package etl

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"genalg/internal/sources"
)

// flakyDetector fails its first n polls with the given error, then returns
// one delta per poll.
type flakyDetector struct {
	failures int
	err      error
	polls    int
	hang     bool
}

func (d *flakyDetector) Name() string      { return "flaky" }
func (d *flakyDetector) Technique() string { return "test" }

func (d *flakyDetector) Poll(ctx context.Context) ([]Delta, error) {
	d.polls++
	if d.polls <= d.failures {
		if d.hang {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return nil, d.err
	}
	return []Delta{{Source: "flaky", ID: fmt.Sprintf("r%d", d.polls)}}, nil
}

type countingStats struct{ attempts, retries int64 }

func (c *countingStats) addAttempts(n int64) { c.attempts += n }
func (c *countingStats) addRetries(n int64)  { c.retries += n }

func TestBackoffSchedule(t *testing.T) {
	p := RetryPolicy{
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  80 * time.Millisecond,
		Multiplier:  2,
	}.withDefaults()
	p.Jitter = 0 // deterministic midpoint
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.backoff(i+1, nil); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestBackoffJitterShrinksOnly(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 100 * time.Millisecond, Jitter: 0.5}.withDefaults()
	rng := newLockedRand(1)
	for i := 0; i < 50; i++ {
		d := p.backoff(1, rng.float64)
		if d > 100*time.Millisecond || d < 50*time.Millisecond {
			t.Fatalf("jittered backoff %v outside [50ms, 100ms]", d)
		}
	}
}

func TestPollWithRetryRecovers(t *testing.T) {
	det := &flakyDetector{failures: 2, err: sources.Transient("fetch", "flaky", fmt.Errorf("reset"))}
	var slept []time.Duration
	policy := RetryPolicy{
		MaxAttempts: 5,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	}
	var cs countingStats
	ds, err := PollWithRetry(context.Background(), det, policy, nil, &cs)
	if err != nil || len(ds) != 1 {
		t.Fatalf("PollWithRetry = %v, %v", ds, err)
	}
	if det.polls != 3 {
		t.Errorf("polls = %d, want 3", det.polls)
	}
	if len(slept) != 2 {
		t.Errorf("slept %d times, want 2", len(slept))
	}
	if cs.attempts != 3 || cs.retries != 2 {
		t.Errorf("counters = %+v, want attempts 3 retries 2", cs)
	}
}

func TestPollWithRetryPermanentShortCircuits(t *testing.T) {
	det := &flakyDetector{failures: 10, err: sources.Permanent("fetch", "flaky", fmt.Errorf("gone for good"))}
	policy := RetryPolicy{MaxAttempts: 5, Sleep: func(time.Duration) {}}
	_, err := PollWithRetry(context.Background(), det, policy, nil, nil)
	if err == nil || !sources.IsPermanent(err) {
		t.Fatalf("err = %v, want permanent", err)
	}
	if det.polls != 1 {
		t.Errorf("polls = %d, permanent errors must not retry", det.polls)
	}
}

func TestPollWithRetryExhausts(t *testing.T) {
	det := &flakyDetector{failures: 100, err: fmt.Errorf("always down")}
	policy := RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}}
	_, err := PollWithRetry(context.Background(), det, policy, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "always down") {
		t.Fatalf("err = %v, want the last failure wrapped", err)
	}
	if det.polls != 3 {
		t.Errorf("polls = %d, want MaxAttempts", det.polls)
	}
}

func TestPollTimeoutAbandonsHungSource(t *testing.T) {
	det := &flakyDetector{failures: 1, hang: true}
	policy := RetryPolicy{
		MaxAttempts: 2,
		PollTimeout: 5 * time.Millisecond,
		Sleep:       func(time.Duration) {},
	}
	start := time.Now()
	ds, err := PollWithRetry(context.Background(), det, policy, nil, nil)
	if err != nil || len(ds) != 1 {
		t.Fatalf("PollWithRetry = %v, %v", ds, err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("hung source held the poll for %v", el)
	}
}

func TestFetchWithRetry(t *testing.T) {
	repo := sources.NewRepo("src", sources.FormatFASTA, sources.CapNonQueryable,
		sources.Generate(5, sources.GenOptions{N: 3}))
	calls := 0
	src := snapshotterFunc{
		name:   "src",
		format: sources.FormatFASTA,
		fetch: func(ctx context.Context) (string, error) {
			calls++
			if calls < 3 {
				return "", sources.Transient("fetch", "src", fmt.Errorf("flap"))
			}
			return repo.Fetch(ctx)
		},
	}
	policy := RetryPolicy{MaxAttempts: 4, Sleep: func(time.Duration) {}}
	text, retries, err := FetchWithRetry(context.Background(), src, policy, nil)
	if err != nil || text == "" {
		t.Fatalf("FetchWithRetry = %q, %v", text, err)
	}
	if retries != 2 {
		t.Errorf("retries = %d, want 2", retries)
	}
}

type snapshotterFunc struct {
	name   string
	format sources.Format
	fetch  func(context.Context) (string, error)
}

func (s snapshotterFunc) Name() string                              { return s.name }
func (s snapshotterFunc) Format() sources.Format                    { return s.format }
func (s snapshotterFunc) Fetch(ctx context.Context) (string, error) { return s.fetch(ctx) }

func TestBreakerLifecycle(t *testing.T) {
	clock := time.Unix(0, 0)
	now := func() time.Time { return clock }
	b := NewBreaker(3, 100*time.Millisecond, now)

	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("breaker closed too early after %d failures", i)
		}
		b.Failure()
	}
	if b.State() != "closed" {
		t.Fatalf("state = %s before threshold", b.State())
	}
	b.Failure() // third consecutive failure trips it
	if b.State() != "open" {
		t.Fatalf("state = %s after threshold", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a poll before cooldown")
	}

	clock = clock.Add(150 * time.Millisecond)
	if b.State() != "half-open" {
		t.Fatalf("state = %s after cooldown", b.State())
	}
	if !b.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker allowed a second concurrent probe")
	}
	b.Failure() // probe failed: re-open, cooldown restarts
	if b.State() != "open" {
		t.Fatalf("state = %s after failed probe", b.State())
	}

	clock = clock.Add(150 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("no probe after second cooldown")
	}
	b.Success()
	if b.State() != "closed" || !b.Allow() {
		t.Fatalf("state = %s after successful probe, want closed", b.State())
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := NewBreaker(0, time.Second, nil)
	for i := 0; i < 10; i++ {
		b.Failure()
	}
	if !b.Allow() || b.State() != "closed" {
		t.Error("threshold 0 must never trip")
	}
}

// TestPipelineDegradedRound drives a two-detector pipeline where one source
// fails persistently: the healthy source's deltas still land, the sick one
// trips its breaker, and the counters account for every attempt.
func TestPipelineDegradedRound(t *testing.T) {
	repo := sources.NewRepo("ok", sources.FormatCSV, sources.CapQueryable,
		sources.Generate(11, sources.GenOptions{N: 5}))
	good, err := ForRepo(repo)
	if err != nil {
		t.Fatal(err)
	}
	sick := &flakyDetector{failures: 1 << 30, err: sources.Transient("fetch", "flaky", fmt.Errorf("down"))}

	var applied []Delta
	p := NewPipeline([]Detector{good, sick}, func(_ context.Context, ds []Delta) (SinkReport, error) {
		applied = append(applied, ds...)
		return SinkReport{RecordsOK: len(ds)}, nil
	})
	p.SetRetryPolicy(RetryPolicy{
		MaxAttempts:      2,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // stays open for the whole test
		Sleep:            func(time.Duration) {},
	})

	repo.ApplyRandomUpdates(1, 4)
	rep, err := p.Round(context.Background())
	if err != nil {
		t.Fatalf("degraded round errored: %v", err)
	}
	if rep.Polled != 1 || len(rep.Failed) != 1 || rep.Failed[0].Detector != "flaky" {
		t.Fatalf("round 1 report = %+v", rep)
	}
	if len(applied) == 0 {
		t.Fatal("healthy source's deltas did not land")
	}

	// Round 2 trips the breaker (2nd consecutive failure); round 3 skips.
	if _, err := p.Round(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := p.BreakerState(1); got != "open" {
		t.Fatalf("breaker = %s after repeated failure, want open", got)
	}
	rep, err = p.Round(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.BreakerSkips != 1 {
		t.Fatalf("round 3 report = %+v, want one breaker skip", rep)
	}

	st := p.Stats()
	if st.Rounds != 3 || st.BreakerOpen != 1 || st.SourceFailures != 2 {
		t.Errorf("stats = %+v", st)
	}
	// Rounds 1 and 2: good 1 attempt each + sick 2 attempts each; round 3:
	// good only.
	if st.Attempts != 7 || st.Retries != 2 {
		t.Errorf("attempts/retries = %d/%d, want 7/2", st.Attempts, st.Retries)
	}
}

// TestPipelineStrictModeUnchanged pins the legacy contract: without a
// policy, one failing detector aborts the round.
func TestPipelineStrictModeUnchanged(t *testing.T) {
	sick := &flakyDetector{failures: 1, err: fmt.Errorf("boom")}
	p := NewPipeline([]Detector{sick}, acceptAll)
	if _, err := p.Round(context.Background()); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("strict round = %v, want failure", err)
	}
	if _, err := p.Round(context.Background()); err != nil {
		t.Fatalf("recovery round = %v", err)
	}
}
