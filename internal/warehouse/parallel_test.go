package warehouse

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"genalg/internal/db"
	"genalg/internal/etl"
	"genalg/internal/sources"
)

// dumpPublic reads every column of the observations and the four derived
// public tables, ordered by key: the state a reload and incremental
// maintenance must agree on, and a recovered warehouse must keep.
func dumpPublic(t *testing.T, w *Warehouse) map[string][]db.Row {
	t.Helper()
	out := make(map[string][]db.Row)
	for _, q := range []struct{ name, sql string }{
		{TableObservations, `SELECT * FROM observations ORDER BY id, source`},
		{TableFragments, `SELECT * FROM fragments ORDER BY id`},
		{TableGenes, `SELECT * FROM genes ORDER BY id`},
		{TableFragmentAlts, `SELECT * FROM fragment_alts ORDER BY id, provenance`},
		{TableGeneAlts, `SELECT * FROM gene_alts ORDER BY id, provenance`},
	} {
		out[q.name] = mustQuery(t, w, "alice", q.sql).Rows
	}
	return out
}

// diffPublic describes the first difference between two dumpPublic
// results; empty when they are equal.
func diffPublic(got, want map[string][]db.Row) string {
	for _, tbl := range []string{TableObservations, TableFragments, TableGenes, TableFragmentAlts, TableGeneAlts} {
		g, w := got[tbl], want[tbl]
		for i := 0; i < len(g) && i < len(w); i++ {
			if !reflect.DeepEqual(g[i], w[i]) {
				return fmt.Sprintf("%s row %d: got %v, want %v", tbl, i, g[i], w[i])
			}
		}
		if len(g) != len(w) {
			return fmt.Sprintf("%s: %d rows, want %d", tbl, len(g), len(w))
		}
	}
	return ""
}

// TestInitialLoadParallelMatchesSerial is the determinism guard for the
// concurrent loader: fanning repository parse+wrap across workers must
// leave the public space identical to a serial load.
func TestInitialLoadParallelMatchesSerial(t *testing.T) {
	serial := newWarehouse(t)
	serial.Workers = 1
	statsS, err := serial.InitialLoad(context.Background(), twoRepos(t, 25))
	if err != nil {
		t.Fatal(err)
	}
	want := dumpPublic(t, serial)

	for _, workers := range []int{2, 4} {
		par := newWarehouse(t)
		par.Workers = workers
		statsP, err := par.InitialLoad(context.Background(), twoRepos(t, 25))
		if err != nil {
			t.Fatal(err)
		}
		if statsP != statsS {
			t.Fatalf("workers=%d: stats %+v != serial %+v", workers, statsP, statsS)
		}
		if d := diffPublic(dumpPublic(t, par), want); d != "" {
			t.Fatalf("workers=%d: differs from serial load: %s", workers, d)
		}
	}
}

// TestInitialLoadParallelErrors checks a malformed record degrades to the
// quarantine table instead of aborting the load, identically under serial
// and parallel wrapping.
func TestInitialLoadParallelErrors(t *testing.T) {
	for _, workers := range []int{1, 4} {
		good := sources.NewRepo("ok", sources.FormatCSV, sources.CapQueryable,
			sources.Generate(3, sources.GenOptions{N: 5}))
		// "XYZ" is not a DNA sequence, so wrapping this record always fails.
		bad := sources.NewRepo("broken", sources.FormatCSV, sources.CapQueryable,
			[]sources.Record{{ID: "BAD1", Version: 1, Organism: "o", Description: "d", Sequence: "XYZ"}})
		w := newWarehouse(t)
		w.Workers = workers
		if _, err := w.InitialLoad(context.Background(), []*sources.Repo{good, bad}); err != nil {
			t.Fatalf("workers=%d: load should degrade, got %v", workers, err)
		}
		if got := w.CountPublic(); got != len(good.Records()) {
			t.Errorf("workers=%d: public entities = %d, want %d", workers, got, len(good.Records()))
		}
		qs, err := w.Quarantined()
		if err != nil {
			t.Fatal(err)
		}
		if len(qs) != 1 || qs[0].ID != "BAD1" || qs[0].Source != "broken" || qs[0].Stage != "load" {
			t.Fatalf("workers=%d: quarantine = %+v, want one load-stage BAD1 row", workers, qs)
		}
		if qs[0].Reason == "" || qs[0].Payload == "" {
			t.Errorf("workers=%d: quarantine row missing reason/payload: %+v", workers, qs[0])
		}
		// The quarantine is part of the public space: plain SQL reaches it.
		res, err := w.Query(context.Background(), "alice", `SELECT id, reason FROM quarantine`)
		if err != nil {
			t.Fatalf("workers=%d: querying quarantine: %v", workers, err)
		}
		if len(res.Rows) != 1 {
			t.Errorf("workers=%d: SELECT FROM quarantine returned %d rows", workers, len(res.Rows))
		}
	}
}

// TestConcurrentQueryDuringRefresh hammers the warehouse with readers while
// incremental maintenance runs — the race-detector guard for satellite
// concurrency in the public space.
func TestConcurrentQueryDuringRefresh(t *testing.T) {
	w := newWarehouse(t)
	repo := sources.NewRepo("src", sources.FormatCSV, sources.CapQueryable,
		sources.Generate(1, sources.GenOptions{N: 60}))
	if _, err := w.InitialLoad(context.Background(), []*sources.Repo{repo}); err != nil {
		t.Fatal(err)
	}
	det, err := etl.NewSnapshotDiffMonitor(context.Background(), repo)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := w.Query(context.Background(), "alice", `SELECT COUNT(*) FROM fragments`); err != nil {
					t.Errorf("concurrent query: %v", err)
					return
				}
				if _, err := w.Query(context.Background(), "alice", `SELECT id FROM genes ORDER BY id LIMIT 5`); err != nil {
					t.Errorf("concurrent query: %v", err)
					return
				}
			}
		}()
	}
	for round := 0; round < 8; round++ {
		repo.ApplyRandomUpdates(int64(round), 6)
		deltas, err := det.Poll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.ApplyDeltas(context.Background(), deltas); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	assertMirrors(t, w, repo)
}
