package align

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"genalg/internal/seq"
)

func randNuc(t testing.TB, rng *rand.Rand, n int) seq.NucSeq {
	t.Helper()
	letters := []byte("ACGT")
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = letters[rng.Intn(4)]
	}
	s, err := seq.NewNucSeq(seq.AlphaDNA, string(buf))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestParallelMatchesSerial is the determinism guard for the batch
// alignment APIs: every worker count must reproduce the single-worker
// results exactly.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	jobs := make([]Job, 40)
	for i := range jobs {
		jobs[i] = Job{A: randNuc(t, rng, 120+rng.Intn(80)), B: randNuc(t, rng, 120+rng.Intn(80))}
	}

	wantG := make([]Result, len(jobs))
	wantL := make([]Result, len(jobs))
	for i, j := range jobs {
		var err error
		if wantG[i], err = Global(j.A, j.B, DefaultScoring); err != nil {
			t.Fatal(err)
		}
		if wantL[i], err = Local(j.A, j.B, DefaultScoring); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		gotG, err := GlobalAll(context.Background(), jobs, DefaultScoring, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantG, gotG) {
			t.Fatalf("GlobalAll(workers=%d) differs from serial", workers)
		}
		gotL, err := LocalAll(context.Background(), jobs, DefaultScoring, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantL, gotL) {
			t.Fatalf("LocalAll(workers=%d) differs from serial", workers)
		}
	}
}

func TestBatchErrorPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	jobs := []Job{
		{A: randNuc(t, rng, 50), B: randNuc(t, rng, 50)},
		{A: randNuc(t, rng, 50), B: randNuc(t, rng, 50)},
	}
	bad := Scoring{Match: -1, Mismatch: 0, Gap: -1} // invalid: match must be positive
	if _, err := GlobalAll(context.Background(), jobs, bad, 4); err == nil {
		t.Fatal("expected scoring validation error")
	}
	if _, err := LocalAll(context.Background(), jobs, bad, 4); err == nil {
		t.Fatal("expected scoring validation error")
	}
}

func TestResemblesAllMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	query := randNuc(t, rng, 150)
	cands := make([]seq.NucSeq, 30)
	for i := range cands {
		if i%3 == 0 {
			// Embed a query fragment so some candidates resemble it.
			cands[i] = query.Slice(20, 120)
		} else {
			cands[i] = randNuc(t, rng, 140)
		}
	}
	want := make([]bool, len(cands))
	for i, c := range cands {
		var err error
		if want[i], err = Resembles(query, c, 60); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 4} {
		got, err := ResemblesAll(context.Background(), query, cands, 60, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("ResemblesAll(workers=%d) differs from serial", workers)
		}
	}
}

// TestSearchWorkersMatchesSerial checks the sharded seed-and-extend search
// reproduces the single-worker hit list exactly for every worker count.
func TestSearchWorkersMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	dbx, err := NewDatabase(9)
	if err != nil {
		t.Fatal(err)
	}
	subjects := make([]seq.NucSeq, 37)
	for i := range subjects {
		subjects[i] = randNuc(t, rng, 600)
		dbx.Add(fmt.Sprintf("s%02d", i), subjects[i])
	}
	for qi := 0; qi < 5; qi++ {
		// Queries stitched from subject fragments guarantee seed hits.
		q := subjects[qi*3].Slice(100, 300)
		opts := SearchOptions{MinScore: 15}
		want := dbx.Search(context.Background(), q, opts, 1)
		if len(want) == 0 {
			t.Fatalf("query %d: no hits; test corpus broken", qi)
		}
		for _, workers := range []int{2, 3, 4, 8} {
			got := dbx.Search(context.Background(), q, opts, workers)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("query %d workers=%d: hits differ from serial\nserial: %v\npar:    %v", qi, workers, want, got)
			}
		}
		// SearchAll must agree per query too.
		all := dbx.SearchAll(context.Background(), []seq.NucSeq{q, q}, opts, 4)
		if !reflect.DeepEqual(all[0], want) || !reflect.DeepEqual(all[1], want) {
			t.Fatalf("query %d: SearchAll differs from serial", qi)
		}
	}
	// MaxHits truncation must also agree.
	q := subjects[0].Slice(0, 250)
	opts := SearchOptions{MinScore: 10, MaxHits: 3}
	want := dbx.Search(context.Background(), q, opts, 1)
	for _, workers := range []int{2, 4} {
		if got := dbx.Search(context.Background(), q, opts, workers); !reflect.DeepEqual(want, got) {
			t.Fatalf("MaxHits workers=%d: %v != %v", workers, got, want)
		}
	}
}

// TestSearchHonoursCancellation is the regression test for the
// old searchSharded, which fanned the shard scan out on a detached
// context.Background(): cancelling the caller's context still scanned
// every subject. A pre-cancelled context must now do no work and return
// no hits, for both the single-shard and multi-shard paths.
func TestSearchHonoursCancellation(t *testing.T) {
	db, err := NewDatabase(8)
	if err != nil {
		t.Fatal(err)
	}
	s := randDNA(3, 400)
	for i := 0; i < 8; i++ {
		db.Add(subjID(i), s) // identical subjects: every query seeds hits
	}
	q := s.Slice(50, 150)

	live := db.Search(context.Background(), q, SearchOptions{}, 4)
	if len(live) == 0 {
		t.Fatal("live context found no hits; test corpus broken")
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if hits := db.Search(cancelled, q, SearchOptions{}, workers); len(hits) != 0 {
			t.Errorf("workers=%d: cancelled search returned %d hits, want 0", workers, len(hits))
		}
	}
}
