package etl

import (
	"context"
	"errors"
	"testing"

	"genalg/internal/obs"
	"genalg/internal/sources"
)

// TestMonitorConstructorsHonourCancellation pins down the snapshot
// monitor constructors: the priming Fetch runs under the caller's
// context, so a cancelled context aborts the build instead of silently
// fetching on a detached background context.
func TestMonitorConstructorsHonourCancellation(t *testing.T) {
	repo := sources.NewRepo("rel", sources.FormatCSV, sources.CapQueryable,
		sources.Generate(3, sources.GenOptions{N: 10}))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := NewSnapshotDiffMonitor(ctx, repo); !errors.Is(err, context.Canceled) {
		t.Errorf("NewSnapshotDiffMonitor error = %v, want context.Canceled", err)
	}
	if _, err := NewLCSDiffMonitor(ctx, repo); !errors.Is(err, context.Canceled) {
		t.Errorf("NewLCSDiffMonitor error = %v, want context.Canceled", err)
	}
	gb := sources.NewRepo("gb", sources.FormatACeDB, sources.CapQueryable,
		sources.Generate(4, sources.GenOptions{N: 10}))
	if _, err := NewTreeDiffMonitor(ctx, gb); !errors.Is(err, context.Canceled) {
		t.Errorf("NewTreeDiffMonitor error = %v, want context.Canceled", err)
	}

	// The live-context path still builds.
	if _, err := NewSnapshotDiffMonitor(context.Background(), repo); err != nil {
		t.Fatalf("live context: %v", err)
	}
}

// TestFailedRoundStillObservesPollTimer is the regression test for the
// poll timer leak: a round whose poll phase fails used to return before
// stopping the etl.poll.seconds timer, so failed rounds never showed up
// in the latency histogram.
func TestFailedRoundStillObservesPollTimer(t *testing.T) {
	sick := &flakyDetector{failures: 1 << 30, err: errors.New("down")}
	p := NewPipeline([]Detector{sick}, acceptAll)
	reg := obs.New()
	p.SetRegistry(reg)

	if _, err := p.Round(context.Background()); err == nil {
		t.Fatal("round with a failing detector succeeded")
	}
	var observed float64 = -1
	for _, m := range reg.Snapshot() {
		if m.Name == "etl.poll.seconds" && m.Kind == "histogram" {
			observed = m.Value // histogram Value is the observation count
		}
	}
	if observed != 1 {
		t.Errorf("etl.poll.seconds observations after failed round = %g, want 1", observed)
	}
}
