package etl

import (
	"context"
	"fmt"
	"testing"

	"genalg/internal/sources"
)

// faultyOnce wraps a live repo and fails the Nth fetch, passing everything
// else through — the minimal cursor-preservation probe.
type faultyOnce struct {
	repo    *sources.Repo
	calls   int
	failOn  map[int]bool
	lastErr error
}

func (f *faultyOnce) Name() string           { return f.repo.Name() }
func (f *faultyOnce) Format() sources.Format { return f.repo.Format() }

func (f *faultyOnce) Fetch(ctx context.Context) (string, error) {
	f.calls++
	if f.failOn[f.calls] {
		f.lastErr = sources.Transient("fetch", f.repo.Name(), fmt.Errorf("flap %d", f.calls))
		return "", f.lastErr
	}
	return f.repo.Fetch(ctx)
}

// TestSnapshotMonitorKeepsCursorOnError checks the convergence property the
// retry layer relies on: a failed poll leaves the previous snapshot in
// place, so the deltas it missed surface on the next successful poll.
func TestSnapshotMonitorKeepsCursorOnError(t *testing.T) {
	repo := sources.NewRepo("csv", sources.FormatCSV, sources.CapQueryable,
		sources.Generate(3, sources.GenOptions{N: 8}))
	src := &faultyOnce{repo: repo, failOn: map[int]bool{2: true}}
	det, err := NewSnapshotDiffMonitor(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	muts := repo.ApplyRandomUpdates(7, 5)
	if _, err := det.Poll(context.Background()); err == nil {
		t.Fatal("poll should have failed on the injected fault")
	}
	ds, err := det.Poll(context.Background())
	if err != nil {
		t.Fatalf("recovery poll: %v", err)
	}
	if len(ds) == 0 {
		t.Fatalf("deltas for %d mutations lost across the failed poll", len(muts))
	}
}

// TestSnapshotDiffEmpty checks an unchanged source yields zero deltas, and
// that an empty-to-empty diff is not an error.
func TestSnapshotDiffEmpty(t *testing.T) {
	repo := sources.NewRepo("quiet", sources.FormatCSV, sources.CapQueryable,
		sources.Generate(9, sources.GenOptions{N: 4}))
	det, err := NewSnapshotDiffMonitor(context.Background(), repo)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ds, err := det.Poll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) != 0 {
			t.Fatalf("poll %d on an unchanged source returned %d deltas", i, len(ds))
		}
	}

	empty := sources.NewRepo("empty", sources.FormatCSV, sources.CapQueryable, nil)
	det2, err := NewSnapshotDiffMonitor(context.Background(), empty)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := det2.Poll(context.Background())
	if err != nil || len(ds) != 0 {
		t.Fatalf("empty-to-empty diff = %v, %v", ds, err)
	}
}

// TestMonitorConstructorPropagatesFetchError checks constructors no longer
// swallow a failing baseline fetch.
func TestMonitorConstructorPropagatesFetchError(t *testing.T) {
	repo := sources.NewRepo("csv", sources.FormatCSV, sources.CapQueryable,
		sources.Generate(3, sources.GenOptions{N: 2}))
	src := &faultyOnce{repo: repo, failOn: map[int]bool{1: true}}
	if _, err := NewSnapshotDiffMonitor(context.Background(), src); err == nil {
		t.Error("NewSnapshotDiffMonitor ignored a failing baseline fetch")
	}
	src = &faultyOnce{repo: repo, failOn: map[int]bool{1: true}}
	if _, err := NewLCSDiffMonitor(context.Background(), src); err == nil {
		t.Error("NewLCSDiffMonitor ignored a failing baseline fetch")
	}
}

// Duplicate-key delta application (the at-least-once shape) is exercised
// warehouse-side in TestApplyDeltasDuplicateKeys, where application
// semantics live.
