package warehouse

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"genalg/internal/db"
	"genalg/internal/etl"
	"genalg/internal/gdt"
	"genalg/internal/ontology"
	"genalg/internal/sources"
	"genalg/internal/wal"
)

// oracleRepos builds nsrc overlapping repositories over the same biology
// (generator seed 100): the first is clean, the second carries errRate
// noise and the third half of it. Source i is watched by Figure 2 monitor
// (monitor+i) mod 5.
func oracleRepos(n, nsrc int, errRate float64, monitor int) []*sources.Repo {
	rates := []float64{0, errRate, errRate / 2}
	repos := make([]*sources.Repo, nsrc)
	for i := range repos {
		mon := figure2Monitors[(monitor+i)%len(figure2Monitors)]
		repos[i] = sources.NewRepo(fmt.Sprintf("src%d", i), mon.format, mon.cap,
			sources.Generate(100, sources.GenOptions{N: n, ErrorRate: rates[i]}))
	}
	return repos
}

// watch builds each repository's Figure 2 monitor and drains what it
// reports about the state already loaded.
func watch(t *testing.T, repos []*sources.Repo) []etl.Detector {
	t.Helper()
	dets := make([]etl.Detector, len(repos))
	for i, r := range repos {
		d, err := etl.ForRepo(r)
		if err != nil {
			t.Fatal(err)
		}
		if c, ok := d.(interface{ Close() }); ok {
			t.Cleanup(c.Close)
		}
		if _, err := d.Poll(context.Background()); err != nil {
			t.Fatal(err)
		}
		dets[i] = d
	}
	return dets
}

// mutate applies updates random changes to every repository and returns
// the deltas their monitors detect, in repository order.
func mutate(t *testing.T, repos []*sources.Repo, dets []etl.Detector, seed int64, updates int) []etl.Delta {
	t.Helper()
	var batch []etl.Delta
	for i, r := range repos {
		r.ApplyRandomUpdates(seed*31+int64(i), updates)
		ds, err := dets[i].Poll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, ds...)
	}
	return batch
}

// reloadDump is the reference state: a fresh warehouse loaded from the
// repositories as they stand.
func reloadDump(t *testing.T, repos []*sources.Repo) map[string][]db.Row {
	t.Helper()
	return dumpPublic(t, reloaded(t, repos))
}

// reloaded is a fresh warehouse loaded from the repositories as they stand.
func reloaded(t *testing.T, repos []*sources.Repo) *Warehouse {
	t.Helper()
	w := newWarehouse(t)
	if _, err := w.InitialLoad(context.Background(), repos); err != nil {
		t.Fatal(err)
	}
	return w
}

// oracleK is the word length of the k-mer index the oracle keeps on
// fragments.fragment.
const oracleK = 8

// checkGenomicIndex requires contains(fragment, p) answered through w's
// k-mer index to equal a scan of w's fragments and the same query on the
// reload (which has no index, so it scans), for a pattern cut from each
// live fragment.
func checkGenomicIndex(t *testing.T, w, reload *Warehouse) {
	t.Helper()
	tbl, ok := w.DB.Table(TableFragments)
	if !ok {
		t.Fatal("no fragments table")
	}
	rows := mustQuery(t, w, "alice", `SELECT id, fragment FROM fragments ORDER BY id`).Rows
	for i := range rows {
		s := rows[i][1].(gdt.DNA).Seq
		lo := s.Len() / 3
		if s.Len() < lo+oracleK+8 {
			continue
		}
		pat := s.Slice(lo, lo+oracleK+i%9)
		rids, err := tbl.GenomicLookup("fragment", pat.String())
		if err != nil {
			t.Fatal(err)
		}
		var viaIndex, viaScan, viaReload []string
		for _, rid := range rids {
			row, err := tbl.Get(rid)
			if err != nil {
				t.Fatal(err)
			}
			viaIndex = append(viaIndex, row[0].(string))
		}
		slices.Sort(viaIndex)
		for _, row := range rows {
			if row[1].(gdt.DNA).Seq.Contains(pat) {
				viaScan = append(viaScan, row[0].(string))
			}
		}
		q := fmt.Sprintf(`SELECT id FROM fragments WHERE contains(fragment, '%s') ORDER BY id`, pat)
		for _, row := range mustQuery(t, reload, "alice", q).Rows {
			viaReload = append(viaReload, row[0].(string))
		}
		if !slices.Equal(viaIndex, viaScan) || !slices.Equal(viaIndex, viaReload) {
			t.Fatalf("contains(fragment, %s): index %v, scan %v, reload %v", pat, viaIndex, viaScan, viaReload)
		}
	}
}

// checkIncrementalEqualsReload loads nsrc overlapping sources, runs two
// rounds of random source changes through their monitors and ApplyDeltas,
// and requires the public space to equal a fresh reload of the changed
// sources, row for row and column for column. A k-mer index on
// fragments.fragment must answer contains like a scan and the reload
// after every round. A durable warehouse must also equal the reload after
// a reopen, its index rebuilt by replay.
func checkIncrementalEqualsReload(t *testing.T, seed int64, nsrc int, errRate float64, monitor int, durable bool) {
	const n, rounds, updates = 40, 2, 8
	repos := oracleRepos(n, nsrc, errRate, monitor)
	dir := t.TempDir()
	w := newWarehouse(t)
	if durable {
		// Without OpenDurable's group-commit window, which only adds
		// latency; the reopen below goes through OpenDurable.
		var err error
		if w, err = openDurable(dir, db.DurableOptions{PoolPages: 256}, etl.NewWrapper(ontology.Standard())); err != nil {
			t.Fatal(err)
		}
		defer w.Close()
	}
	if _, err := w.InitialLoad(context.Background(), repos); err != nil {
		t.Fatal(err)
	}
	if err := w.DB.CreateGenomicIndexOn(TableFragments, "fragment", oracleK); err != nil {
		t.Fatal(err)
	}
	dets := watch(t, repos)
	var reload *Warehouse
	for round := 0; round < rounds; round++ {
		batch := mutate(t, repos, dets, seed*rounds+int64(round), updates)
		if _, err := w.ApplyDeltas(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		reload = reloaded(t, repos)
		checkGenomicIndex(t, w, reload)
	}
	want := dumpPublic(t, reload)
	if d := diffPublic(dumpPublic(t, w), want); d != "" {
		t.Fatalf("incremental differs from reload: %s", d)
	}
	if !durable {
		return
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := reopen(t, dir)
	if d := diffPublic(dumpPublic(t, reopened), want); d != "" {
		t.Fatalf("reopened incremental differs from reload: %s", d)
	}
	checkGenomicIndex(t, reopened, reload)
}

// TestIncrementalEqualsFullReload is the paper's Section 5.2 claim as an
// oracle: self-maintainable incremental maintenance reaches exactly the
// state a full reload of the changed sources does, for 1-3 overlapping
// sources, error rates 0-0.6, every Figure 2 monitor, in memory and
// through the log.
func TestIncrementalEqualsFullReload(t *testing.T) {
	for _, durable := range []bool{false, true} {
		for nsrc := 1; nsrc <= 3; nsrc++ {
			for _, rate := range []float64{0, 0.3, 0.6} {
				for m, mon := range figure2Monitors {
					name := fmt.Sprintf("durable=%v/sources=%d/err=%.1f/%s", durable, nsrc, rate, mon.name)
					t.Run(name, func(t *testing.T) {
						checkIncrementalEqualsReload(t, int64(m+nsrc), nsrc, rate, m, durable)
					})
				}
			}
		}
	}
}

// FuzzIncrementalEqualsReload runs the oracle of TestIncrementalEqualsFullReload
// on an in-memory warehouse over fuzzed seeds, source counts, error rates
// and monitors.
func FuzzIncrementalEqualsReload(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(4), uint8(0))
	f.Add(int64(2), uint8(2), uint8(3), uint8(3))
	f.Add(int64(3), uint8(3), uint8(6), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, nsrc, rate, monitor uint8) {
		checkIncrementalEqualsReload(t, seed, 1+int(nsrc%3), float64(rate%7)/10,
			int(monitor)%len(figure2Monitors), false)
	})
}

// TestCrashRedeliveryEqualsReload crashes a durable warehouse at each
// append of one ApplyDeltas batch in turn, recovers the fsynced prefix and
// delivers the same batch again: the public space must equal a reload
// every time. Maintenance writes a source's observation before the public
// rows it derives, and this is the contract that makes that order safe.
func TestCrashRedeliveryEqualsReload(t *testing.T) {
	const n, updates = 10, 4
	mutated := twoRepos(t, n)
	batch := mutate(t, mutated, watch(t, mutated), 7, updates)
	want := reloadDump(t, mutated)

	appends, crashAt := 0, 0
	hooks := wal.Hooks{AfterAppend: func(int64) error {
		if appends++; appends == crashAt {
			return wal.ErrSimulatedCrash
		}
		return nil
	}}
	for k := 1; ; k++ {
		dir := t.TempDir()
		w, err := openDurable(dir, db.DurableOptions{PoolPages: 256, Hooks: hooks}, etl.NewWrapper(ontology.Standard()))
		if err != nil {
			t.Fatal(err)
		}
		crashAt = 0
		if _, err := w.InitialLoad(context.Background(), twoRepos(t, n)); err != nil {
			t.Fatal(err)
		}
		appends, crashAt = 0, k
		if _, err := w.ApplyDeltas(context.Background(), batch); err == nil {
			// The batch appended fewer than k frames: every crash point
			// has been tried.
			w.Close()
			if k == 1 {
				t.Fatal("the batch appended nothing")
			}
			t.Logf("%d deltas, %d crash points", len(batch), k-1)
			return
		}
		rdir := copyDurablePrefix(t, dir, w)
		w.Close()
		w2 := reopen(t, rdir)
		if _, err := w2.ApplyDeltas(context.Background(), batch); err != nil {
			t.Fatalf("crash at append %d: redelivery: %v", k, err)
		}
		if d := diffPublic(dumpPublic(t, w2), want); d != "" {
			t.Fatalf("crash at append %d: redelivered state differs from reload: %s", k, d)
		}
	}
}
