package warehouse

import (
	"context"
	"errors"
	"fmt"

	"genalg/internal/db"
	"genalg/internal/etl"
	"genalg/internal/gdt"
	"genalg/internal/obs"
	"genalg/internal/sources"
	"genalg/internal/storage"
	"genalg/internal/trace"
)

// SetManualRefresh switches between the paper's refresh modes (Section
// 5.2): automatic maintenance applies deltas as they arrive; manual refresh
// queues them until the biologist calls Refresh ("allows the biologist to
// defer or advance updates depending on the situation").
func (w *Warehouse) SetManualRefresh(manual bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.manualRefresh = manual
}

// PendingDeltas reports the number of queued deltas under manual refresh.
func (w *Warehouse) PendingDeltas() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending)
}

// ApplyDeltas performs incremental, self-maintainable view maintenance:
// each delta is applied using only the delta itself and current warehouse
// contents — no source re-reads. Under manual refresh the deltas queue
// instead. It returns how many deltas landed and how many were quarantined
// as malformed (wrap-rejected after-images preserved with reason and raw
// payload); the error is reserved for storage-side failures, which still
// abort the batch. The batch runs inside a "warehouse.apply_deltas" trace
// span (with quarantine events) when ctx carries a tracer, which lets a
// traced ETL round show the maintenance work nested under its sink stage.
func (w *Warehouse) ApplyDeltas(ctx context.Context, deltas []etl.Delta) (etl.SinkReport, error) {
	w.mu.Lock()
	manual := w.manualRefresh
	if manual {
		w.pending = append(w.pending, deltas...)
	}
	w.mu.Unlock()
	if manual {
		if sp := trace.FromContext(ctx); sp != nil {
			sp.Eventf("manual refresh: %d delta(s) queued", len(deltas))
		}
		return etl.SinkReport{}, nil
	}
	ctx, sp := trace.Start(ctx, "warehouse.apply_deltas")
	sp.SetAttr("deltas", len(deltas))
	rep, err := w.applyNow(ctx, deltas)
	if err != nil {
		sp.EndSpan(err)
		return rep, err
	}
	sp.SetAttr("applied", rep.RecordsOK)
	sp.SetAttr("quarantined", rep.Quarantined)
	sp.EndOK()
	return rep, nil
}

// Refresh applies all queued deltas (manual mode's "advance updates").
// Quarantine events from the apply land on ctx's trace span.
func (w *Warehouse) Refresh(ctx context.Context) (int, error) {
	w.mu.Lock()
	queued := w.pending
	w.pending = nil
	w.mu.Unlock()
	if _, err := w.applyNow(ctx, queued); err != nil {
		return 0, err
	}
	return len(queued), nil
}

func (w *Warehouse) applyNow(ctx context.Context, deltas []etl.Delta) (etl.SinkReport, error) {
	sp := trace.FromContext(ctx)
	var rep etl.SinkReport
	defer func(rep *etl.SinkReport) {
		obs.Default.Counter("warehouse.maintenance.applied").Add(int64(rep.RecordsOK))
		obs.Default.Counter("warehouse.maintenance.quarantined").Add(int64(rep.Quarantined))
	}(&rep)
	for _, d := range deltas {
		err := w.applyDelta(d)
		if err == nil {
			rep.RecordsOK++
			continue
		}
		var bad *badRecordError
		if errors.As(err, &bad) {
			// A malformed record is the source's fault, not ours: preserve
			// it for curators and keep the round going.
			sp.Eventf("quarantined %s from %s: %v", d.ID, d.Source, bad.err)
			q := QuarantinedRecord{
				ID: d.ID, Source: d.Source, Stage: "maintenance",
				Reason: bad.err.Error(), Tick: d.Tick,
			}
			if d.After != nil {
				q.Payload = sources.Render(formatForPayload, []sources.Record{*d.After})
			}
			if qerr := w.quarantine(q); qerr != nil {
				return rep, qerr
			}
			rep.Quarantined++
			continue
		}
		return rep, fmt.Errorf("warehouse: applying %v: %w", d, err)
	}
	return rep, nil
}

// badRecordError marks a delta rejected because its payload is malformed
// (as opposed to a warehouse-side storage failure).
type badRecordError struct{ err error }

func (e *badRecordError) Error() string { return e.err.Error() }
func (e *badRecordError) Unwrap() error { return e.err }

// formatForPayload renders quarantined after-images; FASTA is the most
// readable single-record evidence format.
const formatForPayload = sources.FormatFASTA

// applyDelta applies one source delta. The maintenance is
// self-maintainable in the paper's sense: the delta plus the stored
// observations suffice. An insert or update replaces the source's
// observation of the entity, a delete removes it, and either way the
// entity's public rows are rewritten from its observations by the same
// integrator a reload runs, so both reach the same state.
//
// The observation is written before the public rows. A crash between the
// two leaves public rows the next delivery of the same delta rewrites.
func (w *Warehouse) applyDelta(d etl.Delta) error {
	var e *etl.Entry
	switch d.Kind {
	case sources.MutInsert, sources.MutUpdate:
		if d.After == nil {
			return fmt.Errorf("delta has no after-image")
		}
		entry, err := w.wrapper.Wrap(*d.After, d.Source)
		if err != nil {
			return &badRecordError{err: err}
		}
		e = &entry
	case sources.MutDelete:
	default:
		return fmt.Errorf("unknown delta kind %v", d.Kind)
	}
	if err := w.replaceObservation(d.ID, d.Source, e); err != nil {
		return err
	}
	return w.reconcileEntity(d.ID)
}

// observationRow is an entry's observations row.
func observationRow(e etl.Entry) db.Row {
	return db.Row{e.ID, e.Source, e.TermID, e.Organism, e.Description,
		int64(e.Version), e.Quality, e.Value.Pack()}
}

// replaceObservation deletes source's observations of id and, when e is
// not nil, inserts e in their place, in one statement.
func (w *Warehouse) replaceObservation(id, source string, e *etl.Entry) error {
	tbl, _ := w.DB.Table(TableObservations)
	rids, err := tbl.IndexLookup("id", id)
	if err != nil {
		return err
	}
	sourceOnly := db.KeepColumns(len(tbl.Schema().Columns), 1)
	var muts []db.Mutation
	for _, rid := range rids {
		row, err := tbl.Get(rid, sourceOnly...)
		if err != nil {
			return err
		}
		if row[0] == source {
			muts = append(muts, db.Mutation{Kind: db.MutDelete, RID: rid})
		}
	}
	if e != nil {
		muts = append(muts, db.Mutation{Kind: db.MutInsert, Row: observationRow(*e)})
	}
	return w.DB.ApplyDML(TableObservations, muts)
}

// reconcileEntity rewrites id's public rows from its observations: it
// deletes them, and integrates and loads the observations that remain.
// An entity nobody observes any more leaves the public space.
func (w *Warehouse) reconcileEntity(id string) error {
	tbl, _ := w.DB.Table(TableObservations)
	rids, err := tbl.IndexLookup("id", id)
	if err != nil {
		return err
	}
	obs := make([]etl.Entry, 0, len(rids))
	for _, rid := range rids {
		row, err := tbl.Get(rid)
		if err != nil {
			return err
		}
		v, err := gdt.Unpack(row[7].([]byte))
		if err != nil {
			return fmt.Errorf("observation of %s from %s: %w", id, row[1], err)
		}
		obs = append(obs, etl.Entry{
			ID: id, Source: row[1].(string), TermID: row[2].(string),
			Organism: row[3].(string), Description: row[4].(string),
			Version: int(row[5].(int64)), Quality: row[6].(float64), Value: v,
		})
	}
	if err := w.deleteEntity(id); err != nil {
		return err
	}
	if len(obs) == 0 {
		return nil
	}
	merged, _ := etl.Integrate(obs)
	return w.loadIntegrated(merged)
}

// FullReload is the paper's baseline maintenance strategy ("one can always
// update the warehouse by reloading the entire contents"): it wipes the
// public space and its observations and re-extracts everything from the
// sources. E3 measures it against ApplyDeltas.
func (w *Warehouse) FullReload(repos []*sources.Repo) error {
	for _, pair := range []string{TableObservations, TableFragments, TableGenes, TableFragmentAlts, TableGeneAlts} {
		tbl, _ := w.DB.Table(pair)
		var rids []storage.RID
		err := tbl.Scan(db.KeepColumns(len(tbl.Schema().Columns)), func(rid storage.RID, _ db.Row) bool {
			rids = append(rids, rid)
			return true
		})
		if err != nil {
			return err
		}
		muts := make([]db.Mutation, 0, len(rids))
		for _, rid := range rids {
			muts = append(muts, db.Mutation{Kind: db.MutDelete, RID: rid})
		}
		if err := w.DB.ApplyDML(pair, muts); err != nil {
			return err
		}
	}
	_, err := w.InitialLoad(context.Background(), repos)
	return err
}
