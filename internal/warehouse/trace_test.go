package warehouse

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"genalg/internal/etl"
	"genalg/internal/sources"
	"genalg/internal/trace"
)

func tracedCtx() (context.Context, *trace.Tracer) {
	tr := trace.New(trace.Sampling{Mode: trace.SampleAlways}, 16)
	//genalgvet:ignore ctxpass test helper fabricates the root context rather than threading one
	return trace.WithTracer(context.Background(), tr), tr
}

// TestInitialLoadTraced checks the bootstrap's span shape: a
// "warehouse.initial_load" root with one "warehouse.load.source" child per
// repository, and quarantine decisions visible as events on the noisy
// source's span.
func TestInitialLoadTraced(t *testing.T) {
	w := newWarehouse(t)
	ctx, tr := tracedCtx()

	if _, err := w.InitialLoad(ctx, twoRepos(t, 30)); err != nil {
		t.Fatal(err)
	}
	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	spans := traces[0].Spans()
	if spans[0].Name != "warehouse.initial_load" {
		t.Fatalf("root span = %q, want warehouse.initial_load", spans[0].Name)
	}
	var perSource []*trace.Span
	for _, sp := range spans[1:] {
		if sp.Name == "warehouse.load.source" {
			perSource = append(perSource, sp)
			if sp.ParentID != spans[0].ID {
				t.Errorf("source span parent = %v, want the load root", sp.ParentID)
			}
		}
	}
	if len(perSource) != 2 {
		t.Fatalf("got %d per-source spans, want 2:\n%s", len(perSource), traces[0].RenderTree())
	}
	if w.QuarantineCount() > 0 {
		var sawQuarantine bool
		for _, sp := range perSource {
			for _, ev := range sp.Events {
				if strings.Contains(ev.Msg, "quarantined") {
					sawQuarantine = true
				}
			}
		}
		if !sawQuarantine {
			t.Errorf("%d records quarantined but no span event says so", w.QuarantineCount())
		}
	}
}

// TestApplyDeltasTraced checks maintenance spans: applied deltas run under
// a "warehouse.apply_deltas" span carrying the applied count.
func TestApplyDeltasTraced(t *testing.T) {
	w := newWarehouse(t)
	repo := sources.NewRepo("src", sources.FormatCSV, sources.CapQueryable,
		sources.Generate(7, sources.GenOptions{N: 10}))
	if _, err := w.InitialLoad(context.Background(), []*sources.Repo{repo}); err != nil {
		t.Fatal(err)
	}
	det, err := etl.NewSnapshotDiffMonitor(context.Background(), repo)
	if err != nil {
		t.Fatal(err)
	}
	repo.ApplyRandomUpdates(3, 8)
	deltas, err := det.Poll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) == 0 {
		t.Fatal("no deltas to apply")
	}

	ctx, tr := tracedCtx()
	rep, err := w.ApplyDeltas(ctx, deltas)
	if err != nil {
		t.Fatal(err)
	}
	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	root := traces[0].Root()
	if root.Name != "warehouse.apply_deltas" {
		t.Fatalf("root span = %q, want warehouse.apply_deltas", root.Name)
	}
	var appliedAttr string
	for _, a := range root.Attrs {
		if a.Key == "applied" {
			appliedAttr = a.Value
		}
	}
	if want := strconv.Itoa(rep.RecordsOK); appliedAttr != want {
		t.Errorf("applied attr = %q, report says %q", appliedAttr, want)
	}
}
