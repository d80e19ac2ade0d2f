// Command etlrun drives the full ETL pipeline of the Unifying Database over
// the synthetic repositories: initial load, then a sequence of update
// rounds with per-source Figure-2 change detection and incremental
// maintenance, reporting statistics after each round. With -faults it
// injects transport failures (transient errors, hangs, truncated and
// corrupted dumps) into every source and rides them out with retries,
// circuit breakers, and the quarantine table.
//
// Usage:
//
//	etlrun [-records N] [-rounds R] [-updates U] [-manual]
//	       [-faults RATE] [-fault-seed S] [-retries N] [-poll-timeout D]
//	       [-breaker N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"genalg/internal/etl"
	"genalg/internal/faultsrc"
	"genalg/internal/obs"
	"genalg/internal/obs/httpserve"
	"genalg/internal/ontology"
	"genalg/internal/sources"
	"genalg/internal/trace"
	"genalg/internal/warehouse"
)

func main() {
	records := flag.Int("records", 200, "records per repository")
	rounds := flag.Int("rounds", 3, "update rounds")
	updates := flag.Int("updates", 20, "mutations per repository per round")
	manual := flag.Bool("manual", false, "use manual refresh (queue deltas, apply at round end)")
	concurrent := flag.Bool("concurrent", false, "poll all monitors concurrently via the ETL pipeline")
	faults := flag.Float64("faults", 0, "per-call fault injection rate per failure mode (0 disables)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the fault injectors")
	retries := flag.Int("retries", 4, "poll attempts per source per round under -faults")
	pollTimeout := flag.Duration("poll-timeout", 50*time.Millisecond, "per-attempt poll deadline under -faults")
	breaker := flag.Int("breaker", 5, "circuit-breaker threshold under -faults (0 disables)")
	metricsJSON := flag.String("metrics-json", "", "write an expvar-style JSON metrics snapshot to this file at exit")
	obsAddr := flag.String("obs-addr", "", "serve /metrics, /traces, /healthz, /readyz, /debug/pprof on this address (e.g. 127.0.0.1:9090)")
	traceSpec := flag.String("trace", "", "trace ETL rounds: always, rate=F, or slow=DUR")
	traceOut := flag.String("trace-out", "", "write stored traces as JSONL to this file at exit")
	flag.Parse()
	cfg := runConfig{
		records: *records, rounds: *rounds, updates: *updates,
		manual: *manual, concurrent: *concurrent,
		faults: *faults, faultSeed: *faultSeed,
		retries: *retries, pollTimeout: *pollTimeout, breaker: *breaker,
		metricsJSON: *metricsJSON,
		obsAddr:     *obsAddr, traceSpec: *traceSpec, traceOut: *traceOut,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "etlrun:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	records, rounds, updates int
	manual, concurrent       bool
	faults                   float64
	faultSeed                int64
	retries                  int
	pollTimeout              time.Duration
	breaker                  int
	metricsJSON              string
	obsAddr                  string
	traceSpec                string
	traceOut                 string
}

func run(cfg runConfig) error {
	tracer := trace.New(trace.Sampling{Mode: trace.SampleAlways}, trace.DefaultCapacity)
	tracer.SetEnabled(false)
	if cfg.traceSpec != "" {
		s, err := trace.ParseSampling(cfg.traceSpec)
		if err != nil {
			return err
		}
		tracer.SetSampling(s)
		tracer.SetEnabled(true)
	}
	ctx := trace.WithTracer(context.Background(), tracer)

	w, err := warehouse.Open(8192, etl.NewWrapper(ontology.Standard()))
	if err != nil {
		return err
	}

	// The observability server reports readiness from two probes: the
	// initial load must have finished, and no source breaker may be open.
	var loaded atomic.Bool
	var pipelinePtr atomic.Pointer[etl.Pipeline]
	if cfg.obsAddr != "" {
		srv, err := httpserve.Start(cfg.obsAddr, httpserve.Options{
			Tracer: tracer,
			Readiness: []httpserve.Check{
				{Name: "warehouse", Probe: func() error {
					if !loaded.Load() {
						return fmt.Errorf("initial load not finished")
					}
					return nil
				}},
				{Name: "etl.breakers", Probe: func() error {
					p := pipelinePtr.Load()
					if p == nil {
						return nil
					}
					if n := p.OpenBreakers(); n > 0 {
						return fmt.Errorf("%d circuit breaker(s) open", n)
					}
					return nil
				}},
			},
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("observability server on http://%s\n", srv.Addr())
	}
	// One repository per Figure-2 capability class.
	repos := []*sources.Repo{
		sources.NewRepo("active-csv", sources.FormatCSV, sources.CapActive,
			sources.Generate(10, sources.GenOptions{N: cfg.records, IDPrefix: "ACT"})),
		sources.NewRepo("logged-genbank", sources.FormatGenBank, sources.CapLogged,
			sources.Generate(20, sources.GenOptions{N: cfg.records, IDPrefix: "LOG"})),
		sources.NewRepo("queryable-csv", sources.FormatCSV, sources.CapQueryable,
			sources.Generate(30, sources.GenOptions{N: cfg.records, IDPrefix: "QRY"})),
		sources.NewRepo("dump-acedb", sources.FormatACeDB, sources.CapNonQueryable,
			sources.Generate(40, sources.GenOptions{N: cfg.records, IDPrefix: "ACE"})),
		sources.NewRepo("dump-fasta", sources.FormatFASTA, sources.CapNonQueryable,
			sources.Generate(50, sources.GenOptions{N: cfg.records, IDPrefix: "FAS"})),
	}
	start := time.Now()
	stats, err := w.InitialLoad(ctx, repos)
	if err != nil {
		return err
	}
	loaded.Store(true)
	fmt.Printf("initial load: %d entities from %d observations in %v\n",
		stats.Entities, stats.Observations, time.Since(start).Round(time.Millisecond))

	// Optionally interpose the fault injectors between monitors and sources.
	var injectors []*faultsrc.Source
	monitored := make([]sources.Repository, len(repos))
	for i, r := range repos {
		monitored[i] = r
	}
	if cfg.faults > 0 {
		rates := map[faultsrc.Mode]float64{
			faultsrc.ModeTransient: cfg.faults,
			faultsrc.ModeTimeout:   cfg.faults,
			faultsrc.ModeTruncate:  cfg.faults,
			faultsrc.ModeCorrupt:   cfg.faults,
		}
		injectors, monitored = faultsrc.WrapAll(repos, faultsrc.Config{
			Seed: cfg.faultSeed, Rates: rates, Hang: 5 * time.Millisecond,
		})
		// Monitors prime their baseline snapshot at construction; keep the
		// transport clean until they exist, then let the faults fly.
		for _, inj := range injectors {
			inj.SetEnabled(false)
		}
		fmt.Printf("fault injection: rate %.2f per mode, seed %d\n", cfg.faults, cfg.faultSeed)
	}

	// One Figure-2-appropriate detector per repository.
	var detectors []etl.Detector
	for i, r := range monitored {
		det, err := etl.ForRepo(r)
		if err != nil {
			return err
		}
		fmt.Printf("  %-16s %-12s capability=%-13s technique=%s\n",
			r.Name(), r.Format().Representation(), repos[i].Capability(), det.Technique())
		detectors = append(detectors, det)
	}
	for _, inj := range injectors {
		inj.SetEnabled(true)
	}
	w.SetManualRefresh(cfg.manual)

	pipeline := etl.NewPipeline(detectors, w.ApplyDeltas)
	pipelinePtr.Store(pipeline)
	resilient := cfg.faults > 0 || cfg.retries > 1
	const breakerCooldown = 50 * time.Millisecond
	if resilient {
		pipeline.SetRetryPolicy(etl.RetryPolicy{
			MaxAttempts:      cfg.retries,
			PollTimeout:      cfg.pollTimeout,
			BreakerThreshold: cfg.breaker,
			BreakerCooldown:  breakerCooldown,
			Seed:             cfg.faultSeed,
		})
	}

	usePipeline := cfg.concurrent || resilient
	for round := 1; round <= cfg.rounds; round++ {
		fmt.Printf("\nround %d:\n", round)
		if usePipeline {
			for i, r := range repos {
				r.ApplyRandomUpdates(int64(round*100+i), cfg.updates)
			}
			t0 := time.Now()
			rep, err := pipeline.Round(ctx)
			if err != nil {
				return err
			}
			fmt.Printf("  pipeline: %d deltas across %d sources in %v (applied %d, quarantined %d)\n",
				rep.Deltas, len(repos), time.Since(t0).Round(time.Microsecond),
				rep.RecordsOK, rep.Quarantined)
			for _, f := range rep.Failed {
				fmt.Printf("  degraded: %s\n", f)
			}
		} else {
			for i, r := range repos {
				muts := r.ApplyRandomUpdates(int64(round*100+i), cfg.updates)
				t0 := time.Now()
				deltas, err := detectors[i].Poll(context.Background())
				if err != nil {
					return fmt.Errorf("polling %s: %w", detectors[i].Name(), err)
				}
				detectTime := time.Since(t0)
				t0 = time.Now()
				if _, err := w.ApplyDeltas(context.Background(), deltas); err != nil {
					return fmt.Errorf("applying deltas of %s: %w", r.Name(), err)
				}
				fmt.Printf("  %-16s %3d mutations -> %3d deltas  detect=%-10v apply=%v\n",
					r.Name(), len(muts), len(deltas),
					detectTime.Round(time.Microsecond), time.Since(t0).Round(time.Microsecond))
			}
		}
		if cfg.manual {
			n, err := w.Refresh(context.Background())
			if err != nil {
				return err
			}
			fmt.Printf("  manual refresh applied %d queued deltas\n", n)
		}
		fmt.Printf("  warehouse now holds %d entities\n", w.CountPublic())
	}

	// With faults on, let the system settle: injection off, held trigger
	// deliveries flushed, then catch-up rounds until quiet.
	if cfg.faults > 0 {
		for _, inj := range injectors {
			inj.Quiesce()
		}
		time.Sleep(20 * time.Millisecond)
		for i := 0; i < 8; i++ {
			rep, err := pipeline.Round(ctx)
			if err != nil {
				return err
			}
			if rep.Deltas == 0 && len(rep.Failed) == 0 {
				break
			}
			if len(rep.Failed) > 0 {
				// A breaker left open by the faulty rounds only half-opens
				// after its cooldown; wait it out so catch-up can finish.
				time.Sleep(breakerCooldown)
			}
		}
		var injected int64
		for _, inj := range injectors {
			injected += inj.Counts().Total()
		}
		fmt.Printf("\nsettled after faults: %d faults injected, warehouse holds %d entities\n",
			injected, w.CountPublic())
	}

	if usePipeline {
		st := pipeline.Stats()
		fmt.Printf("\ningest counters:\n")
		fmt.Printf("  rounds=%d deltas=%d attempts=%d retries=%d\n",
			st.Rounds, st.Deltas, st.Attempts, st.Retries)
		fmt.Printf("  source_failures=%d breaker_open=%d records_ok=%d quarantined=%d\n",
			st.SourceFailures, st.BreakerOpen, st.RecordsOK, st.Quarantined)
		fmt.Printf("  quarantine table holds %d records\n", w.QuarantineCount())
	}

	// Closing report: a query proving the warehouse is live.
	r, err := w.Query(ctx, "etlrun", `SELECT COUNT(*), AVG(quality) FROM fragments`)
	if err != nil {
		return err
	}
	fmt.Printf("\nfragments: count=%v avg quality=%.4f\n", r.Rows[0][0], r.Rows[0][1])

	// End-of-run observability report: the registry view of the same run,
	// covering ETL, warehouse, query, and buffer-pool metrics.
	fmt.Printf("\nmetrics:\n")
	if err := obs.Default.WriteText(os.Stdout); err != nil {
		return err
	}
	if cfg.metricsJSON != "" {
		f, err := os.Create(cfg.metricsJSON)
		if err != nil {
			return err
		}
		if err := obs.Default.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("metrics snapshot written to %s\n", cfg.metricsJSON)
	}
	if cfg.traceOut != "" {
		f, err := os.Create(cfg.traceOut)
		if err != nil {
			return err
		}
		if err := tracer.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("%d trace(s) written to %s\n", len(tracer.Traces()), cfg.traceOut)
	}
	return nil
}
