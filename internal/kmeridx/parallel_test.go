package kmeridx

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"genalg/internal/seq"
)

func randSeq(t testing.TB, rng *rand.Rand, n int) seq.NucSeq {
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

func docCorpus(t testing.TB, n, seqLen int) []Doc {
	rng := rand.New(rand.NewSource(42))
	docs := make([]Doc, n)
	for i := range docs {
		docs[i] = Doc{ID: DocID(i + 1), Seq: randSeq(t, rng, seqLen)}
	}
	return docs
}

// TestAddAllMatchesSerial is the determinism guard for the sharded build:
// for every worker count the index must be byte-identical (same postings,
// same order) to one built with serial Adds.
func TestAddAllMatchesSerial(t *testing.T) {
	docs := docCorpus(t, 60, 300)
	serial, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if err := serial.Add(d.ID, d.Seq); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		par, err := New(8)
		if err != nil {
			t.Fatal(err)
		}
		if err := par.AddAll(context.Background(), docs, workers); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial.postings, par.postings) {
			t.Fatalf("workers=%d: postings differ from serial build", workers)
		}
		if !reflect.DeepEqual(serial.docs, par.docs) || !reflect.DeepEqual(serial.ords, par.ords) {
			t.Fatalf("workers=%d: ordinals differ from serial build", workers)
		}
	}
}

func TestAddAllDuplicateAtomicity(t *testing.T) {
	docs := docCorpus(t, 10, 100)
	ix, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(docs[7].ID, docs[7].Seq); err != nil {
		t.Fatal(err)
	}
	if err := ix.AddAll(context.Background(), docs, 4); err == nil {
		t.Fatal("expected duplicate error")
	}
	if got := ix.Docs(); got != 1 {
		t.Fatalf("failed AddAll must insert nothing; index has %d docs", got)
	}
	// Batch-internal duplicate.
	fresh, _ := New(8)
	dup := append([]Doc{}, docs[:3]...)
	dup = append(dup, docs[1])
	if err := fresh.AddAll(context.Background(), dup, 2); err == nil {
		t.Fatal("expected batch-internal duplicate error")
	}
	if got := fresh.Docs(); got != 0 {
		t.Fatalf("failed AddAll must insert nothing; index has %d docs", got)
	}
}

// TestConcurrentAddAllAndLookup drives batch writers and readers
// simultaneously; run under -race it is the concurrency guard for the
// narrowed Add critical section and the parallel verification stage.
func TestConcurrentAddAllAndLookup(t *testing.T) {
	docs := docCorpus(t, 80, 200)
	byID := make(map[DocID]seq.NucSeq, len(docs))
	for _, d := range docs {
		byID[d.ID] = d.Seq
	}
	fetch := func(id DocID) (seq.NucSeq, error) {
		s, ok := byID[id]
		if !ok {
			return seq.NucSeq{}, fmt.Errorf("no doc %d", id)
		}
		return s, nil
	}
	ix, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	// Writers: half the corpus via Add, half via AddAll batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, d := range docs[:40] {
			if err := ix.Add(d.ID, d.Seq); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for lo := 40; lo < 80; lo += 10 {
			if err := ix.AddAll(context.Background(), docs[lo:lo+10], 3); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Readers: pattern lookups and stats while writes are in flight.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				pat := docs[(r*17+i)%len(docs)].Seq.String()[:20]
				if _, err := ix.Lookup(context.Background(), pat, fetch, 2); err != nil {
					t.Errorf("lookup: %v", err)
					return
				}
				ix.Stats()
			}
		}(r)
	}
	wg.Wait()
	if got := ix.Docs(); got != len(docs) {
		t.Fatalf("indexed %d docs, want %d", got, len(docs))
	}
	// Every document must now be findable by its own prefix.
	for _, d := range docs {
		pat := d.Seq.String()[:24]
		hits, err := ix.Lookup(context.Background(), pat, fetch, 4)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, h := range hits {
			if h == d.ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("doc %d not found by its own prefix", d.ID)
		}
	}
}

// TestLookupWorkersMatchesSerial checks the parallel verification stage
// returns the same documents in the same order for any worker count.
func TestLookupWorkersMatchesSerial(t *testing.T) {
	docs := docCorpus(t, 50, 250)
	byID := make(map[DocID]seq.NucSeq, len(docs))
	ix, err := New(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		byID[d.ID] = d.Seq
		if err := ix.Add(d.ID, d.Seq); err != nil {
			t.Fatal(err)
		}
	}
	fetch := func(id DocID) (seq.NucSeq, error) { return byID[id], nil }
	for _, d := range docs[:10] {
		pat := d.Seq.String()[10:40]
		want, err := ix.Lookup(context.Background(), pat, fetch, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			got, err := ix.Lookup(context.Background(), pat, fetch, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("workers=%d: %v != serial %v", workers, got, want)
			}
		}
	}
}
