package warehouse

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"genalg/internal/db"
	"genalg/internal/etl"
	"genalg/internal/obs"
	"genalg/internal/parallel"
	"genalg/internal/sources"
	"genalg/internal/storage"
	"genalg/internal/trace"
)

// quarantineSeq orders quarantine rows when no delta tick is available
// (initial load) — negative so load-time rows sort before maintenance
// ticks.
var quarantineSeq atomic.Int64

// QuarantinedRecord is one malformed record preserved for inspection
// instead of poisoning the load: the raw payload plus the rejection reason.
type QuarantinedRecord struct {
	ID     string
	Source string
	Stage  string // "load" or "maintenance"
	Reason string
	// Payload is the record rendered in its source's format (the raw
	// evidence a curator needs).
	Payload string
	Tick    int64
}

// quarantine lands one bad record in the quarantine table.
func (w *Warehouse) quarantine(q QuarantinedRecord) error {
	if _, ok := w.DB.Table(TableQuarantine); !ok {
		return fmt.Errorf("warehouse: quarantine table missing")
	}
	return w.DB.ApplyDML(TableQuarantine, []db.Mutation{{
		Kind: db.MutInsert, Row: db.Row{q.ID, q.Source, q.Stage, q.Reason, q.Payload, q.Tick},
	}})
}

// QuarantineCount returns the number of quarantined records.
func (w *Warehouse) QuarantineCount() int {
	tbl, ok := w.DB.Table(TableQuarantine)
	if !ok {
		return 0
	}
	return tbl.RowCount()
}

// Quarantined returns the quarantine contents ordered by (source, id,
// tick). The table is also directly queryable: SELECT * FROM quarantine.
func (w *Warehouse) Quarantined() ([]QuarantinedRecord, error) {
	tbl, ok := w.DB.Table(TableQuarantine)
	if !ok {
		return nil, fmt.Errorf("warehouse: quarantine table missing")
	}
	var out []QuarantinedRecord
	err := tbl.Scan(nil, func(rid storage.RID, row db.Row) bool {
		out = append(out, QuarantinedRecord{
			ID: row[0].(string), Source: row[1].(string), Stage: row[2].(string),
			Reason: row[3].(string), Payload: row[4].(string), Tick: row[5].(int64),
		})
		return true
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return out[i].Tick < out[j].Tick
	})
	return out, nil
}

// SourceFailure names a repository that could not be loaded at all.
type SourceFailure struct {
	Source string
	Err    error
}

// LoadReport describes how a resilient initial load degraded.
type LoadReport struct {
	// Sources is the number of repositories attempted.
	Sources int
	// Loaded is the number that contributed records.
	Loaded int
	// Quarantined counts malformed records preserved in the quarantine
	// table instead of aborting the load.
	Quarantined int
	// Retries counts fetch re-attempts across all sources.
	Retries int64
	// Failed lists sources skipped entirely (fetch or parse failure after
	// retries). Their data is absent, not partially loaded.
	Failed []SourceFailure
}

// InitialLoadReport wraps, integrates, and loads the full contents of the
// given repositories, storing each source's observations, with graceful
// degradation: a failing source is skipped and reported rather than
// aborting the bootstrap, flaky fetches retry under policy, and malformed
// records land in the quarantine table with their raw payload and
// rejection reason. The returned error is reserved for warehouse-side
// (storage) failures.
//
// Parsing and wrapping fan out across w.Workers goroutines; entries are
// concatenated in repository order before integration, so the result is
// identical to a serial load of the surviving sources.
func (w *Warehouse) InitialLoadReport(ctx context.Context, repos []sources.Repository, policy etl.RetryPolicy) (etl.IntegrationStats, LoadReport, error) {
	defer obs.Default.Timer("warehouse.load.seconds")()
	ctx, sp := trace.Start(ctx, "warehouse.initial_load")
	sp.SetAttr("sources", len(repos))
	rep := LoadReport{Sources: len(repos)}
	jitter := newLoadJitter(policy.Seed)
	type loaded struct {
		entries []etl.Entry
		bad     []QuarantinedRecord
		retries int64
	}
	workers := parallel.Clamp(w.Workers, len(repos))
	perRepo, errs := parallel.MapAll(ctx, repos, workers,
		func(i int, r sources.Repository) (loaded, error) {
			sctx, ssp := trace.Start(ctx, "warehouse.load.source")
			ssp.SetAttr("source", r.Name())
			text, retries, err := etl.FetchWithRetry(sctx, r, policy, jitter)
			if err != nil {
				ssp.EndSpan(err)
				return loaded{retries: retries}, err
			}
			recs, err := sources.Parse(r.Format(), text)
			if err != nil {
				err = fmt.Errorf("warehouse: parsing %s: %w", r.Name(), err)
				ssp.EndSpan(err)
				return loaded{retries: retries}, err
			}
			es, werrs := w.wrapper.WrapAll(recs, r.Name())
			ld := loaded{entries: es, retries: retries}
			for _, werr := range werrs {
				ssp.Eventf("quarantined %s: %v", badRecordID(werr), werr)
				ld.bad = append(ld.bad, QuarantinedRecord{
					ID:      badRecordID(werr),
					Source:  r.Name(),
					Stage:   "load",
					Reason:  werr.Error(),
					Payload: payloadFor(r.Format(), recs, badRecordID(werr)),
					Tick:    -quarantineSeq.Add(1),
				})
			}
			ssp.SetAttr("entries", len(es))
			ssp.EndOK()
			return ld, nil
		})
	var entries []etl.Entry
	for i, ld := range perRepo {
		if errs[i] != nil {
			rep.Failed = append(rep.Failed, SourceFailure{Source: repos[i].Name(), Err: errs[i]})
			rep.Retries += ld.retries
			continue
		}
		rep.Loaded++
		rep.Retries += ld.retries
		entries = append(entries, ld.entries...)
		for _, q := range ld.bad {
			if err := w.quarantine(q); err != nil {
				sp.EndSpan(err)
				return etl.IntegrationStats{}, rep, err
			}
			rep.Quarantined++
		}
	}
	stats, err := w.loadEntries(entries)
	if err != nil {
		sp.EndSpan(err)
		return stats, rep, err
	}
	obs.Default.Counter("warehouse.load.entities").Add(int64(stats.Entities))
	obs.Default.Counter("warehouse.load.quarantined").Add(int64(rep.Quarantined))
	obs.Default.Counter("warehouse.load.source_failures").Add(int64(len(rep.Failed)))
	sp.SetAttr("loaded", rep.Loaded)
	sp.SetAttr("quarantined", rep.Quarantined)
	if len(rep.Failed) > 0 {
		sp.Eventf("degraded load: %d source(s) failed", len(rep.Failed))
	}
	sp.EndOK()
	return stats, rep, nil
}

// badRecordID digs the accession out of a wrap error ("etl: wrapping X:
// ..."); empty when the error carries none.
func badRecordID(err error) string {
	msg := err.Error()
	for _, prefix := range []string{"etl: wrapping ", "etl: classifying "} {
		if i := strings.Index(msg, prefix); i >= 0 {
			rest := msg[i+len(prefix):]
			if j := strings.IndexByte(rest, ':'); j > 0 {
				return rest[:j]
			}
		}
	}
	return ""
}

// payloadFor renders the named record in its source format as quarantine
// evidence; empty when the record cannot be found.
func payloadFor(f sources.Format, recs []sources.Record, id string) string {
	if id == "" {
		return ""
	}
	for _, r := range recs {
		if r.ID == id {
			return sources.Render(f, []sources.Record{r})
		}
	}
	return ""
}

// newLoadJitter builds the jitter stream for load-time retries; the
// warehouse keeps it deterministic per seed like the pipeline does.
func newLoadJitter(seed int64) func() float64 {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return rng.Float64()
	}
}
