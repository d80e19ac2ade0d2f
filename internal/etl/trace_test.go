package etl

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"genalg/internal/sources"
	"genalg/internal/trace"
)

// TestRoundTraced drives a degraded round under tracing and checks the span
// shape: an "etl.round" root with one "etl.poll" child per detector and an
// "etl.sink" child, retry attempts recorded as events on the failing poll's
// span, and the breaker skip visible as an event once it trips.
func TestRoundTraced(t *testing.T) {
	repo := sources.NewRepo("ok", sources.FormatCSV, sources.CapQueryable,
		sources.Generate(23, sources.GenOptions{N: 5}))
	good, err := ForRepo(repo)
	if err != nil {
		t.Fatal(err)
	}
	sick := &flakyDetector{failures: 1 << 30, err: sources.Transient("fetch", "flaky", fmt.Errorf("down"))}

	p := NewPipeline([]Detector{good, sick}, acceptAll)
	p.SetRetryPolicy(RetryPolicy{
		MaxAttempts:      2,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
		Sleep:            func(time.Duration) {},
	})
	tr := trace.New(trace.Sampling{Mode: trace.SampleAlways}, 16)
	ctx := trace.WithTracer(context.Background(), tr)

	repo.ApplyRandomUpdates(1, 4)
	if _, err := p.Round(ctx); err != nil {
		t.Fatal(err)
	}

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	spans := traces[0].Spans()
	if spans[0].Name != "etl.round" {
		t.Fatalf("root span = %q, want etl.round", spans[0].Name)
	}
	byName := map[string][]*trace.Span{}
	for _, sp := range spans[1:] {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	if got := len(byName["etl.poll"]); got != 2 {
		t.Fatalf("got %d etl.poll spans, want 2 (one per detector)", got)
	}
	if got := len(byName["etl.sink"]); got != 1 {
		t.Fatalf("got %d etl.sink spans, want 1", got)
	}
	var sickSpan *trace.Span
	for _, sp := range byName["etl.poll"] {
		for _, a := range sp.Attrs {
			if a.Key == "source" && a.Value == "flaky" {
				sickSpan = sp
			}
		}
		if sp.ParentID != spans[0].ID {
			t.Errorf("poll span parent = %v, want the round root", sp.ParentID)
		}
	}
	if sickSpan == nil {
		t.Fatal("no poll span for the flaky detector")
	}
	if sickSpan.Err == "" {
		t.Error("flaky poll span recorded no error")
	}
	var sawRetry bool
	for _, ev := range sickSpan.Events {
		if strings.Contains(ev.Msg, "attempt 1/2 failed") {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Errorf("flaky poll span events lack the retry attempt: %+v", sickSpan.Events)
	}

	// Two more rounds: the second trips the breaker, the third skips and
	// must say so on the poll span.
	if _, err := p.Round(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Round(ctx); err != nil {
		t.Fatal(err)
	}
	if got := p.OpenBreakers(); got != 1 {
		t.Fatalf("OpenBreakers() = %d, want 1", got)
	}
	traces = tr.Traces()
	last := traces[len(traces)-1]
	var sawSkip bool
	for _, sp := range last.Spans() {
		for _, ev := range sp.Events {
			if strings.Contains(ev.Msg, "breaker open") {
				sawSkip = true
			}
		}
	}
	if !sawSkip {
		t.Errorf("round-3 trace lacks the breaker-open event:\n%s", last.RenderTree())
	}
}

// TestRoundUntracedUnchanged pins that rounds without a tracer in context
// behave exactly as before (no spans, no errors from nil-span calls).
func TestRoundUntracedUnchanged(t *testing.T) {
	repo := sources.NewRepo("ok", sources.FormatCSV, sources.CapQueryable,
		sources.Generate(29, sources.GenOptions{N: 4}))
	good, err := ForRepo(repo)
	if err != nil {
		t.Fatal(err)
	}
	var applied []Delta
	p := NewPipeline([]Detector{good}, func(_ context.Context, ds []Delta) (SinkReport, error) {
		applied = append(applied, ds...)
		return SinkReport{RecordsOK: len(ds)}, nil
	})
	repo.ApplyRandomUpdates(2, 3)
	if _, err := p.Round(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(applied) == 0 {
		t.Fatal("untraced round applied nothing")
	}
}
