package etl

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"genalg/internal/obs"
	"genalg/internal/parallel"
	"genalg/internal/trace"
)

// PollAll polls every detector concurrently and returns the merged deltas,
// ordered by (source, ID) for deterministic application. One failing
// detector fails the round (partial application would leave the warehouse
// inconsistent across sources); the error names the first (lowest-index)
// failing detector, matching what a serial loop would report. The fan-out
// is bounded by workers (<= 0 selects the parallel package default,
// GENALG_WORKERS or GOMAXPROCS; 1 is serial) rather than one goroutine per
// detector, and it and every per-detector poll honour ctx, so cancelling
// it stops the round. For degraded-mode polling that survives individual
// source failures, use a Pipeline with a RetryPolicy.
func PollAll(ctx context.Context, detectors []Detector, workers int) ([]Delta, error) {
	perDet, err := parallel.Map(ctx, detectors, workers,
		func(i int, det Detector) ([]Delta, error) {
			ds, err := det.Poll(ctx)
			if err != nil {
				return nil, fmt.Errorf("etl: polling %s: %w", det.Name(), err)
			}
			return ds, nil
		})
	if err != nil {
		return nil, err
	}
	return mergeDeltas(perDet), nil
}

// mergeDeltas concatenates per-detector delta slices and sorts them by
// (source, ID) so application order is deterministic.
func mergeDeltas(perDet [][]Delta) []Delta {
	var out []Delta
	for _, ds := range perDet {
		out = append(out, ds...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// SinkReport is what a reporting sink tells the pipeline about one batch:
// how many deltas landed and how many were quarantined as malformed.
type SinkReport struct {
	RecordsOK   int
	Quarantined int
}

// SourceError records one detector that failed a degraded round after
// exhausting its retries (or was skipped by an open breaker).
type SourceError struct {
	Detector string
	Err      error // nil when the breaker skipped the poll
}

// String implements fmt.Stringer.
func (e SourceError) String() string {
	if e.Err == nil {
		return fmt.Sprintf("%s: breaker open", e.Detector)
	}
	return fmt.Sprintf("%s: %v", e.Detector, e.Err)
}

// RoundReport details one degraded-capable round.
type RoundReport struct {
	// Polled counts detectors that delivered deltas this round.
	Polled int
	// Deltas is the number of merged deltas handed to the sink.
	Deltas int
	// RecordsOK and Quarantined come from the sink.
	RecordsOK   int
	Quarantined int
	// BreakerSkips counts detectors skipped because their breaker was open.
	BreakerSkips int
	// Failed lists detectors that could not be polled this round. Their
	// cursors are untouched, so the missed deltas arrive once they recover.
	Failed []SourceError
}

// Stats is the pipeline's cumulative ingest counter snapshot.
type Stats struct {
	// Rounds run and total deltas handed to the sink.
	Rounds int64
	Deltas int64
	// Attempts counts individual polls including retries; Retries counts
	// just the re-attempts.
	Attempts int64
	Retries  int64
	// SourceFailures counts polls abandoned after exhausting retries;
	// BreakerOpen counts polls skipped because the breaker was open.
	SourceFailures int64
	BreakerOpen    int64
	// RecordsOK and Quarantined aggregate the sink reports.
	RecordsOK   int64
	Quarantined int64
}

// Pipeline ties a detector set to a sink (typically the warehouse's
// ApplyDeltas), providing the paper's continuous ETL loop as an
// on-demand "round" operation so callers control pacing (the
// polling-frequency trade-off of Section 5.2). With a RetryPolicy set the
// pipeline degrades gracefully: flaky sources are retried with backoff,
// persistent offenders trip a per-source circuit breaker, and a failed
// source skips a round instead of aborting it.
type Pipeline struct {
	detectors []Detector
	sink      func(context.Context, []Delta) (SinkReport, error)

	policy   RetryPolicy
	breakers []*Breaker
	jitter   *lockedRand

	// reg receives the pipeline's metrics; nil selects obs.Default.
	reg *obs.Registry

	mu    sync.Mutex
	stats struct {
		rounds, deltas              int64
		attempts, retries           atomic.Int64
		sourceFailures, breakerOpen atomic.Int64
		recordsOK, quarantined      int64
	}
}

// SetRegistry redirects the pipeline's metrics to reg (nil restores
// obs.Default). Call before the first round.
func (p *Pipeline) SetRegistry(reg *obs.Registry) { p.reg = reg }

func (p *Pipeline) registry() *obs.Registry {
	if p.reg != nil {
		return p.reg
	}
	return obs.Default
}

func (p *Pipeline) addAttempts(n int64) {
	p.stats.attempts.Add(n)
	p.registry().Counter("etl.attempts").Add(n)
}

func (p *Pipeline) addRetries(n int64) {
	p.stats.retries.Add(n)
	p.registry().Counter("etl.retries").Add(n)
}

// NewPipeline builds a pipeline over detectors feeding sink, which reports
// applied and quarantined counts (warehouse.ApplyDeltas). The round's
// context — carrying the round's trace span — is forwarded to the sink, so
// warehouse maintenance appears inside the round's trace tree.
func NewPipeline(detectors []Detector, sink func(context.Context, []Delta) (SinkReport, error)) *Pipeline {
	return &Pipeline{detectors: detectors, sink: sink}
}

// SetRetryPolicy enables resilient rounds under policy: retries with
// backoff and per-attempt deadlines, per-source breakers, and degraded
// (skip-the-source) behavior on persistent failure.
func (p *Pipeline) SetRetryPolicy(policy RetryPolicy) {
	p.policy = policy.withDefaults()
	p.jitter = newLockedRand(policy.Seed)
	p.breakers = make([]*Breaker, len(p.detectors))
	for i := range p.breakers {
		p.breakers[i] = NewBreaker(p.policy.BreakerThreshold, p.policy.BreakerCooldown, nil)
	}
}

// BreakerState reports detector i's breaker state ("closed" when breakers
// are disabled).
func (p *Pipeline) BreakerState(i int) string {
	if p.breakers == nil || i < 0 || i >= len(p.breakers) {
		return "closed"
	}
	return p.breakers[i].State()
}

// OpenBreakers counts sources whose breaker is not closed (open or
// half-open). Zero means every source is healthy; readiness probes treat
// a non-zero count as degraded.
func (p *Pipeline) OpenBreakers() int {
	n := 0
	for i := range p.breakers {
		if p.breakers[i].State() != "closed" {
			n++
		}
	}
	return n
}

// Round performs one detect-and-apply cycle and returns its report. The
// error is non-nil only for whole-round failures: a sink failure, or
// without a RetryPolicy any detector failure; with one, per-source
// failures degrade instead and are listed in the report. When the context
// carries a tracer the round runs inside an "etl.round" span with one
// "etl.poll" child per source (retry attempts and breaker skips recorded
// as events) and an "etl.sink" child for the apply stage.
func (p *Pipeline) Round(ctx context.Context) (RoundReport, error) {
	ctx, sp := trace.Start(ctx, "etl.round")
	rep, err := p.roundDetailed(ctx)
	sp.SetAttr("deltas", rep.Deltas)
	if len(rep.Failed) > 0 {
		sp.Eventf("degraded round: %d source(s) failed or skipped", len(rep.Failed))
	}
	sp.EndSpan(err)
	return rep, err
}

func (p *Pipeline) roundDetailed(ctx context.Context) (RoundReport, error) {
	reg := p.registry()
	var rep RoundReport
	var merged []Delta
	pollDone := reg.Timer("etl.poll.seconds")
	if !p.policy.Enabled() {
		perDet, err := parallel.Map(ctx, p.detectors, parallel.Workers(),
			func(i int, det Detector) ([]Delta, error) {
				pctx, psp := trace.Start(ctx, "etl.poll")
				psp.SetAttr("source", det.Name())
				p.addAttempts(1)
				ds, derr := det.Poll(pctx)
				if derr != nil {
					derr = fmt.Errorf("etl: polling %s: %w", det.Name(), derr)
					psp.EndSpan(derr)
					return nil, derr
				}
				psp.SetAttr("deltas", len(ds))
				psp.EndOK()
				return ds, nil
			})
		if err != nil {
			pollDone()
			return rep, err
		}
		rep.Polled = len(p.detectors)
		merged = mergeDeltas(perDet)
	} else {
		perDet, errs := parallel.MapAll(ctx, p.detectors, parallel.Workers(),
			func(i int, det Detector) ([]Delta, error) {
				br := p.breakers[i]
				pctx, psp := trace.Start(ctx, "etl.poll")
				psp.SetAttr("source", det.Name())
				if !br.Allow() {
					p.stats.breakerOpen.Add(1)
					reg.Counter("etl.breaker_open").Inc()
					psp.Eventf("breaker open: poll skipped")
					psp.EndSpan(errBreakerOpen)
					return nil, errBreakerOpen
				}
				ds, derr := PollWithRetry(pctx, det, p.policy, p.jitter.float64, p)
				if derr != nil {
					br.Failure()
					p.stats.sourceFailures.Add(1)
					reg.Counter("etl.source_failures").Inc()
					psp.EndSpan(derr)
					return nil, derr
				}
				br.Success()
				psp.SetAttr("deltas", len(ds))
				psp.EndOK()
				return ds, nil
			})
		for i, e := range errs {
			switch {
			case e == nil:
				rep.Polled++
			case e == errBreakerOpen:
				rep.BreakerSkips++
				rep.Failed = append(rep.Failed, SourceError{Detector: p.detectors[i].Name()})
			default:
				rep.Failed = append(rep.Failed, SourceError{Detector: p.detectors[i].Name(), Err: e})
			}
		}
		merged = mergeDeltas(perDet)
	}

	pollDone()
	rep.Deltas = len(merged)
	sctx, ssp := trace.Start(ctx, "etl.sink")
	sinkDone := reg.Timer("etl.sink.seconds")
	sinkRep, err := p.sink(sctx, merged)
	sinkDone()
	if err != nil {
		reg.Counter("etl.sink_failures").Inc()
		ssp.EndSpan(err)
		return rep, err
	}
	ssp.SetAttr("records_ok", sinkRep.RecordsOK)
	ssp.SetAttr("quarantined", sinkRep.Quarantined)
	ssp.EndOK()
	rep.RecordsOK = sinkRep.RecordsOK
	rep.Quarantined = sinkRep.Quarantined
	p.mu.Lock()
	p.stats.rounds++
	p.stats.deltas += int64(len(merged))
	p.stats.recordsOK += int64(sinkRep.RecordsOK)
	p.stats.quarantined += int64(sinkRep.Quarantined)
	p.mu.Unlock()
	reg.Counter("etl.rounds").Inc()
	reg.Counter("etl.deltas").Add(int64(len(merged)))
	reg.Counter("etl.records_ok").Add(int64(sinkRep.RecordsOK))
	reg.Counter("etl.quarantined").Add(int64(sinkRep.Quarantined))
	return rep, nil
}

// errBreakerOpen is the internal marker for breaker-skipped polls.
var errBreakerOpen = fmt.Errorf("etl: breaker open")

// Stats returns the cumulative ingest counters.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Rounds:         p.stats.rounds,
		Deltas:         p.stats.deltas,
		Attempts:       p.stats.attempts.Load(),
		Retries:        p.stats.retries.Load(),
		SourceFailures: p.stats.sourceFailures.Load(),
		BreakerOpen:    p.stats.breakerOpen.Load(),
		RecordsOK:      p.stats.recordsOK,
		Quarantined:    p.stats.quarantined,
	}
}
