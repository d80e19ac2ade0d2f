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

// applyDelta reconciles one source delta against the warehouse. The
// maintenance is self-maintainable in the paper's sense: the existing
// warehouse row plus the delta suffice.
//
// Semantics per kind:
//   - insert: wrap and insert (merging if the entity already exists from
//     another source).
//   - update: re-wrap the after-image; if the warehouse row's primary came
//     from this source (or the new observation has higher quality) replace
//     it, else record it as an alternative.
//   - delete: remove the rows whose *only* source was this one; for merged
//     rows the other sources' data stays (the source string is rewritten).
func (w *Warehouse) applyDelta(d etl.Delta) error {
	switch d.Kind {
	case sources.MutInsert, sources.MutUpdate:
		if d.After == nil {
			return fmt.Errorf("delta has no after-image")
		}
		entry, err := w.wrapper.Wrap(*d.After, d.Source)
		if err != nil {
			return &badRecordError{err: err}
		}
		return w.upsertEntry(entry)
	case sources.MutDelete:
		return w.removeSourceObservation(d.ID, d.Source)
	}
	return fmt.Errorf("unknown delta kind %v", d.Kind)
}

// upsertEntry merges a new observation into the public space.
func (w *Warehouse) upsertEntry(e etl.Entry) error {
	main, altsTable, _, err := tableFor(e.Value)
	if err != nil {
		return err
	}
	tbl, _ := w.DB.Table(main)
	rids, err := tbl.IndexLookup("id", e.ID)
	if err != nil {
		return err
	}
	if len(rids) == 0 {
		// Fresh entity: also check the *other* table pair in case the
		// entity changed kind (a fragment gaining exon structure becomes a
		// gene); drop stale rows there.
		if err := w.deleteEntity(e.ID); err != nil {
			return err
		}
		merged, _ := etl.Integrate([]etl.Entry{e})
		return w.loadIntegrated(merged[0])
	}
	// Merge with the existing row: rebuild the observation set from the
	// stored primary + alternatives + the new observation, then re-integrate.
	row, err := tbl.Get(rids[0])
	if err != nil {
		return err
	}
	existing := rowToEntry(row, e.TermID)
	// Skip self-merge: if the update came from a source already recorded as
	// primary, the new observation replaces it.
	obs := []etl.Entry{e}
	if existing.Source != e.Source {
		obs = append(obs, existing)
	}
	at, _ := w.DB.Table(altsTable)
	altRIDs, err := at.IndexLookup("id", e.ID)
	if err != nil {
		return err
	}
	for _, arid := range altRIDs {
		arow, err := at.Get(arid)
		if err != nil {
			return err
		}
		prov, _ := arow[1].(string)
		if prov == e.Source {
			continue // superseded by the new observation
		}
		obs = append(obs, etl.Entry{
			ID: e.ID, TermID: e.TermID, Source: prov,
			Quality:  arow[2].(float64),
			Value:    arow[3].(gdt.Value),
			Organism: existing.Organism, Description: existing.Description,
			Version: existing.Version,
		})
	}
	if err := w.deleteEntity(e.ID); err != nil {
		return err
	}
	merged, _ := etl.Integrate(obs)
	return w.loadIntegrated(merged[0])
}

// rowToEntry reconstructs an Entry from a primary public-space row.
func rowToEntry(row db.Row, termID string) etl.Entry {
	return etl.Entry{
		ID:          row[0].(string),
		TermID:      termID,
		Organism:    row[1].(string),
		Description: row[2].(string),
		Source:      row[3].(string),
		Version:     int(row[4].(int64)),
		Quality:     row[5].(float64),
		Value:       row[8].(gdt.Value),
	}
}

// removeSourceObservation handles a source-side delete: observations from
// that source disappear; entities with no remaining observations are
// removed entirely.
func (w *Warehouse) removeSourceObservation(id, source string) error {
	for _, pair := range [][3]string{
		{TableFragments, TableFragmentAlts, "fragment"},
		{TableGenes, TableGeneAlts, "gene"},
	} {
		tbl, _ := w.DB.Table(pair[0])
		rids, err := tbl.IndexLookup("id", id)
		if err != nil {
			return err
		}
		if len(rids) == 0 {
			continue
		}
		row, err := tbl.Get(rids[0])
		if err != nil {
			return err
		}
		at, _ := w.DB.Table(pair[1])
		altRIDs, err := at.IndexLookup("id", id)
		if err != nil {
			return err
		}
		// Collect surviving observations (primary + alts not from source).
		var obs []etl.Entry
		primarySources := splitSources(row[3].(string))
		surviving := removeString(primarySources, source)
		if len(surviving) > 0 {
			e := rowToEntry(row, "")
			e.Source = surviving[0]
			obs = append(obs, e)
		}
		for _, arid := range altRIDs {
			arow, err := at.Get(arid)
			if err != nil {
				return err
			}
			prov, _ := arow[1].(string)
			if prov == source {
				continue
			}
			obs = append(obs, etl.Entry{
				ID: id, Source: prov, Quality: arow[2].(float64),
				Value: arow[3].(gdt.Value), Organism: row[1].(string),
				Description: row[2].(string), Version: int(row[4].(int64)),
			})
		}
		if err := w.deleteEntity(id); err != nil {
			return err
		}
		if len(obs) == 0 {
			return nil
		}
		merged, _ := etl.Integrate(obs)
		return w.loadIntegrated(merged[0])
	}
	return nil
}

func splitSources(s string) []string {
	var out []string
	cur := ""
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '+' {
			if cur != "" {
				out = append(out, cur)
			}
			cur = ""
			continue
		}
		cur += string(s[i])
	}
	return out
}

func removeString(ss []string, drop string) []string {
	var out []string
	for _, s := range ss {
		if s != drop {
			out = append(out, s)
		}
	}
	return out
}

// FullReload is the paper's baseline maintenance strategy ("one can always
// update the warehouse by reloading the entire contents"): it wipes the
// public space and re-extracts everything from the sources. E3 measures it
// against ApplyDeltas.
func (w *Warehouse) FullReload(repos []*sources.Repo) error {
	for _, pair := range []string{TableFragments, TableGenes, TableFragmentAlts, TableGeneAlts} {
		tbl, _ := w.DB.Table(pair)
		var rids []storage.RID
		err := tbl.Scan(nil, func(rid storage.RID, _ db.Row) bool {
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
