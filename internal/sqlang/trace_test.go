package sqlang

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"genalg/internal/trace"
)

func tracedCtx(sampling trace.Sampling) (context.Context, *trace.Tracer) {
	tr := trace.New(sampling, 16)
	//genalgvet:ignore ctxpass test helper fabricates the root context rather than threading one
	return trace.WithTracer(context.Background(), tr), tr
}

// TestTraceMatchesExplain is the acceptance check that EXPLAIN ANALYZE and
// the trace tree agree: both views read the same planInfo wall-clock
// counters, so every operator child span's duration must appear verbatim
// as a time= annotation in the plan text of the same execution.
func TestTraceMatchesExplain(t *testing.T) {
	e := testEngine(t)
	setupFragments(t, e, 40)
	ctx, tr := tracedCtx(trace.Sampling{Mode: trace.SampleAlways})

	r, err := e.ExecCtx(ctx, `EXPLAIN ANALYZE SELECT source, COUNT(*) AS n FROM DNAFragments WHERE quality >= 0.25 GROUP BY source ORDER BY n DESC`)
	if err != nil {
		t.Fatal(err)
	}
	plan := r.Rows[0][0].(string)

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	spans := traces[0].Spans()
	if spans[0].Name != "sqlang.statement" {
		t.Fatalf("root span = %q, want sqlang.statement", spans[0].Name)
	}
	operators := spans[1:]
	if len(operators) != 4 { // access, filter, aggregate, sort
		names := make([]string, len(operators))
		for i, sp := range operators {
			names[i] = sp.Name
		}
		t.Fatalf("got operator spans %v, want access/filter/aggregate/sort", names)
	}
	for _, sp := range operators {
		want := fmt.Sprintf("time=%s", fmtNanos(sp.Duration().Nanoseconds()))
		if !strings.Contains(plan, want) {
			t.Errorf("span %q duration %s not found in plan:\n%s", sp.Name, want, plan)
		}
	}
	if operators[0].Name != "access: scan DNAFragments" {
		t.Errorf("first operator span = %q, want the access path", operators[0].Name)
	}
}

// TestTraceWithoutAnalyze: a plain SELECT under tracing still gets
// operator child spans (timing collection rides on the span, not on
// ANALYZE), while the rendered plan stays estimate-only.
func TestTraceWithoutAnalyze(t *testing.T) {
	e := testEngine(t)
	setupFragments(t, e, 30)
	ctx, tr := tracedCtx(trace.Sampling{Mode: trace.SampleAlways})

	r, err := e.ExecCtx(ctx, `SELECT id FROM DNAFragments WHERE quality >= 0.5`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(r.Plan(), "act=") {
		t.Errorf("plain SELECT plan must stay estimate-only:\n%s", r.Plan())
	}
	spans := tr.Traces()[0].Spans()
	var names []string
	for _, sp := range spans[1:] {
		names = append(names, sp.Name)
	}
	if len(names) != 2 || names[0] != "access: scan DNAFragments" || names[1] != "filter" {
		t.Fatalf("operator spans = %v, want [access: scan DNAFragments, filter]", names)
	}
}

// TestSlowLogCarriesTraceID: a statement over the slow threshold logs an
// entry stamped with the same trace ID its trace was stored under.
func TestSlowLogCarriesTraceID(t *testing.T) {
	e := testEngine(t)
	setupFragments(t, e, 20)
	e.SlowQueryThreshold = time.Nanosecond
	ctx, tr := tracedCtx(trace.Sampling{Mode: trace.SampleAlways})

	if _, err := e.ExecCtx(ctx, `SELECT COUNT(*) FROM DNAFragments`); err != nil {
		t.Fatal(err)
	}
	entries := e.SlowQueries()
	if len(entries) == 0 {
		t.Fatal("no slow-log entry despite 1ns threshold")
	}
	got := entries[len(entries)-1].TraceID
	want := tr.Traces()[len(tr.Traces())-1].ID.String()
	if got == "" || got != want {
		t.Fatalf("slow-log trace ID = %q, trace store says %q", got, want)
	}

	// Without tracing the entry has no trace ID.
	if _, err := e.Exec(`SELECT COUNT(*) FROM DNAFragments`); err != nil {
		t.Fatal(err)
	}
	entries = e.SlowQueries()
	if id := entries[len(entries)-1].TraceID; id != "" {
		t.Fatalf("untraced statement got trace ID %q", id)
	}
}

// TestSlowLogConcurrent hammers the slow-query ring with parallel traced
// writers and readers; run under -race this checks the log's and the
// tracer's synchronization on the real execution path.
func TestSlowLogConcurrent(t *testing.T) {
	e := testEngine(t)
	setupFragments(t, e, 30)
	e.SlowQueryThreshold = time.Nanosecond
	ctx, _ := tracedCtx(trace.Sampling{Mode: trace.SampleAlways})

	const writers, readers, perWorker = 4, 2, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stmt, err := Parse(`SELECT COUNT(*) FROM DNAFragments WHERE quality >= 0.5`)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perWorker; i++ {
				if _, err := e.ExecStmtSQLCtx(ctx, stmt, "SELECT ..."); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				for _, q := range e.SlowQueries() {
					if q.Duration <= 0 {
						t.Error("slow-log entry with non-positive duration")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	entries := e.SlowQueries()
	if len(entries) == 0 {
		t.Fatal("no slow-log entries after concurrent writers")
	}
	if len(entries) > slowLogCap {
		t.Fatalf("slow log grew past its cap: %d > %d", len(entries), slowLogCap)
	}
}

// BenchmarkTraceOverhead measures the hot query path with tracing
// disabled (no tracer in context — the shipped default), rate-sampled,
// and always-on. The disabled case is the acceptance bar: it must sit
// within ~2% of the pre-tracing baseline, since the only added work is
// two context lookups.
func BenchmarkTraceOverhead(b *testing.B) {
	run := func(b *testing.B, ctx context.Context) {
		e := testEngine(b)
		setupFragments(b, e, 300)
		stmt, err := Parse(`SELECT COUNT(*) FROM DNAFragments WHERE quality >= 0.5`)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.ExecStmtSQLCtx(ctx, stmt, ""); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) {
		run(b, context.Background())
	})
	b.Run("rate=0.01", func(b *testing.B) {
		ctx, _ := tracedCtx(trace.Sampling{Mode: trace.SampleRate, Rate: 0.01})
		run(b, ctx)
	})
	b.Run("always", func(b *testing.B) {
		ctx, _ := tracedCtx(trace.Sampling{Mode: trace.SampleAlways})
		run(b, ctx)
	})
}
