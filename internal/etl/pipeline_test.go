package etl

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// acceptAll is a pipeline sink that applies every delta.
func acceptAll(_ context.Context, ds []Delta) (SinkReport, error) {
	return SinkReport{RecordsOK: len(ds)}, nil
}

// gaugeDetector records the peak number of concurrently running Polls.
type gaugeDetector struct {
	name    string
	running *atomic.Int64
	peak    *atomic.Int64
	fail    bool
}

func (d gaugeDetector) Name() string      { return d.name }
func (d gaugeDetector) Technique() string { return "gauge" }

func (d gaugeDetector) Poll(context.Context) ([]Delta, error) {
	cur := d.running.Add(1)
	for {
		p := d.peak.Load()
		if cur <= p || d.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	time.Sleep(2 * time.Millisecond)
	d.running.Add(-1)
	if d.fail {
		return nil, fmt.Errorf("boom from %s", d.name)
	}
	return []Delta{{Source: d.name, ID: "r1"}}, nil
}

// TestPollAllWorkersBounded checks the detector fan-out respects the worker
// bound instead of spawning one goroutine per detector.
func TestPollAllWorkersBounded(t *testing.T) {
	var running, peak atomic.Int64
	var dets []Detector
	for i := 0; i < 16; i++ {
		dets = append(dets, gaugeDetector{
			name: fmt.Sprintf("det%02d", i), running: &running, peak: &peak,
		})
	}
	ds, err := PollAll(context.Background(), dets, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 16 {
		t.Fatalf("got %d deltas, want 16", len(ds))
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("observed %d concurrent polls, bound was 3", p)
	}
}

// TestPollAllWorkersFirstError checks the reported failure is always the
// lowest-index detector's, matching serial semantics, regardless of
// scheduling.
func TestPollAllWorkersFirstError(t *testing.T) {
	var running, peak atomic.Int64
	var dets []Detector
	for i := 0; i < 8; i++ {
		dets = append(dets, gaugeDetector{
			name: fmt.Sprintf("det%02d", i), running: &running, peak: &peak,
			fail: i == 2 || i == 6,
		})
	}
	for trial := 0; trial < 10; trial++ {
		_, err := PollAll(context.Background(), dets, 4)
		if err == nil || !strings.Contains(err.Error(), "det02") {
			t.Fatalf("trial %d: error %v, want the det02 failure", trial, err)
		}
	}
}

// TestPollAllWorkersSerialAgreement checks worker counts do not change the
// merged, sorted delta stream.
func TestPollAllWorkersSerialAgreement(t *testing.T) {
	var running, peak atomic.Int64
	var dets []Detector
	for i := 0; i < 6; i++ {
		dets = append(dets, gaugeDetector{
			name: fmt.Sprintf("det%02d", 5-i), running: &running, peak: &peak,
		})
	}
	want, err := PollAll(context.Background(), dets, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := PollAll(context.Background(), dets, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d deltas != %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i].Source != want[i].Source || got[i].ID != want[i].ID {
				t.Fatalf("workers=%d: delta %d differs", workers, i)
			}
		}
	}
	// Concurrent PollAll calls over the same detectors are safe.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := PollAll(context.Background(), dets, 2); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
