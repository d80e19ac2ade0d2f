package kmeridx

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"genalg/internal/seq"
)

func randDNA(seed int64, n int) seq.NucSeq {
	r := rand.New(rand.NewSource(seed))
	bases := make([]seq.Base, n)
	for i := range bases {
		bases[i] = seq.Base(r.Intn(4))
	}
	return seq.FromBases(seq.AlphaDNA, bases)
}

// corpus builds an index plus a fetcher over n random docs of length
// docLen.
func corpus(t testing.TB, k, n, docLen int) (*Index, map[DocID]seq.NucSeq, func(DocID) (seq.NucSeq, error)) {
	ix, err := New(k)
	if err != nil {
		t.Fatal(err)
	}
	docs := make(map[DocID]seq.NucSeq, n)
	for i := 0; i < n; i++ {
		s := randDNA(int64(i+1000), docLen)
		docs[DocID(i)] = s
		if err := ix.Add(DocID(i), s); err != nil {
			t.Fatal(err)
		}
	}
	fetch := func(d DocID) (seq.NucSeq, error) {
		s, ok := docs[d]
		if !ok {
			return seq.NucSeq{}, fmt.Errorf("no doc %d", d)
		}
		return s, nil
	}
	return ix, docs, fetch
}

func TestNewValidatesK(t *testing.T) {
	if _, err := New(3); err == nil {
		t.Error("k=3 accepted")
	}
	if _, err := New(32); err == nil {
		t.Error("k=32 accepted")
	}
	ix, err := New(8)
	if err != nil || ix.K() != 8 {
		t.Errorf("New(8) = %v, %v", ix, err)
	}
}

func TestAddDuplicate(t *testing.T) {
	ix, _ := New(8)
	s := randDNA(1, 100)
	if err := ix.Add(1, s); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(1, s); err == nil {
		t.Error("duplicate Add succeeded")
	}
	if ix.Docs() != 1 {
		t.Errorf("Docs = %d", ix.Docs())
	}
}

func TestLookupFindsExactSubstrings(t *testing.T) {
	ix, docs, fetch := corpus(t, 8, 50, 400)
	// Take substrings of known docs at varied offsets/lengths and verify
	// the owning doc is always found.
	for docID, s := range docs {
		if docID%7 != 0 {
			continue
		}
		for _, span := range [][2]int{{0, 20}, {100, 131}, {380, 400}, {50, 58}} {
			pat := s.Slice(span[0], span[1]).String()
			got, err := ix.Lookup(context.Background(), pat, fetch, 0)
			if err != nil {
				t.Fatalf("Lookup(%q): %v", pat, err)
			}
			found := false
			for _, d := range got {
				if d == docID {
					found = true
				}
				// Every reported doc must truly contain the pattern.
				if !mustSeq(t, docs[d]).Contains(mustPat(t, pat)) {
					t.Errorf("false positive: doc %d does not contain %q", d, pat)
				}
			}
			if !found {
				t.Errorf("doc %d not found for its own substring [%d:%d]", docID, span[0], span[1])
			}
		}
	}
}

func mustSeq(t *testing.T, s seq.NucSeq) seq.NucSeq { return s }

func mustPat(t *testing.T, p string) seq.NucSeq {
	ns, err := seq.NewNucSeq(seq.AlphaDNA, p)
	if err != nil {
		t.Fatal(err)
	}
	return ns
}

func TestLookupAgainstScanProperty(t *testing.T) {
	ix, docs, fetch := corpus(t, 8, 30, 200)
	f := func(seed int64, lenSel uint8) bool {
		// Random pattern: sometimes from a doc, sometimes random.
		patLen := 8 + int(lenSel%40)
		if seed < 0 {
			seed = -(seed + 1)
		}
		var pat string
		if seed%2 == 0 {
			doc := docs[DocID(seed%30)]
			start := int(seed/2) % (doc.Len() - patLen)
			pat = doc.Slice(start, start+patLen).String()
		} else {
			pat = randDNA(seed, patLen).String()
		}
		got, err := ix.Lookup(context.Background(), pat, fetch, 0)
		if err != nil {
			return false
		}
		gotSet := map[DocID]bool{}
		for _, d := range got {
			gotSet[d] = true
		}
		pn, _ := seq.NewNucSeq(seq.AlphaDNA, pat)
		for d, s := range docs {
			if s.Contains(pn) != gotSet[d] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPatternTooShort(t *testing.T) {
	ix, _, fetch := corpus(t, 8, 2, 100)
	_, err := ix.Lookup(context.Background(), "ACGT", fetch, 0)
	var tooShort *ErrPatternTooShort
	if !errors.As(err, &tooShort) {
		t.Fatalf("error = %v", err)
	}
	if tooShort.K != 8 || tooShort.PatternLen != 4 {
		t.Errorf("ErrPatternTooShort = %+v", tooShort)
	}
	if !strings.Contains(err.Error(), "shorter") {
		t.Errorf("message = %q", err.Error())
	}
}

func TestBadPattern(t *testing.T) {
	ix, _, _ := corpus(t, 8, 1, 50)
	if _, err := ix.Candidates("ACGTNNNN"); err == nil {
		t.Error("invalid letters accepted")
	}
}

func TestNoMatch(t *testing.T) {
	ix, _, fetch := corpus(t, 12, 5, 100)
	got, err := ix.Lookup(context.Background(), strings.Repeat("ACGT", 5), fetch, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Verify against scan: pattern unlikely in random docs but must agree.
	for _, d := range got {
		_ = d
	}
}

func TestRemove(t *testing.T) {
	ix, docs, fetch := corpus(t, 8, 10, 200)
	target := DocID(3)
	pat := docs[target].Slice(50, 80).String()
	got, err := ix.Lookup(context.Background(), pat, fetch, 0)
	if err != nil || len(got) == 0 {
		t.Fatalf("pre-remove lookup = %v, %v", got, err)
	}
	ix.Remove(target, docs[target])
	if ix.Docs() != 9 {
		t.Errorf("Docs after remove = %d", ix.Docs())
	}
	got, err = ix.Lookup(context.Background(), pat, fetch, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range got {
		if d == target {
			t.Error("removed doc still returned")
		}
	}
	// Removing a non-existent doc is a no-op.
	ix.Remove(DocID(999), docs[0])
	if ix.Docs() != 9 {
		t.Errorf("Docs after removing an unindexed doc = %d", ix.Docs())
	}
}

// removeFullWalk is the pre-sequence Remove: it drops doc from every
// posting list in the index. It is the reference the per-document Remove
// is checked against.
func removeFullWalk(ix *Index, doc DocID) {
	if _, exists := ix.docLens[doc]; !exists {
		return
	}
	delete(ix.docLens, doc)
	for km, ps := range ix.postings {
		kept := ps[:0]
		for _, p := range ps {
			if p.doc != doc {
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			delete(ix.postings, km)
		} else {
			ix.postings[km] = kept
		}
	}
}

// repetitiveDNA builds a sequence out of a few short motifs, so the same
// k-mer recurs within a document and across documents.
func repetitiveDNA(r *rand.Rand, n int) seq.NucSeq {
	motifs := []string{"ACGTACGTAC", "GGGGCCCC", "ATATATATAT", "TTGACA"}
	var sb strings.Builder
	for sb.Len() < n {
		if r.Intn(4) == 0 {
			sb.WriteByte("ACGT"[r.Intn(4)])
			continue
		}
		sb.WriteString(motifs[r.Intn(len(motifs))])
	}
	s, err := seq.NewNucSeq(seq.AlphaDNA, sb.String()[:n])
	if err != nil {
		panic(err)
	}
	return s
}

// TestRemoveMatchesFullWalkAndRebuild interleaves Adds and Removes of
// documents with repeated k-mers and checks the per-document Remove
// against the full walk (identical posting lists) and against an index
// built fresh from the surviving documents (identical Candidates and
// Lookup answers).
func TestRemoveMatchesFullWalkAndRebuild(t *testing.T) {
	const k = 6
	r := rand.New(rand.NewSource(11))
	ix, _ := New(k)
	ref, _ := New(k)
	docs := map[DocID]seq.NucSeq{}
	var live []DocID // in insertion order
	next := DocID(0)
	for step := 0; step < 400; step++ {
		if len(live) == 0 || r.Intn(3) > 0 {
			s := repetitiveDNA(r, 20+r.Intn(120))
			docs[next] = s
			if err := ix.Add(next, s); err != nil {
				t.Fatal(err)
			}
			if err := ref.Add(next, s); err != nil {
				t.Fatal(err)
			}
			live = append(live, next)
			next++
			continue
		}
		i := r.Intn(len(live))
		doc := live[i]
		live = append(live[:i], live[i+1:]...)
		ix.Remove(doc, docs[doc])
		removeFullWalk(ref, doc)
		// Removing it again, or a doc never added, changes nothing.
		ix.Remove(doc, docs[doc])
		ix.Remove(next+1000, docs[doc])
	}
	if !reflect.DeepEqual(ix.postings, ref.postings) || !reflect.DeepEqual(ix.docLens, ref.docLens) {
		t.Fatal("per-document Remove left different postings than the full walk")
	}

	fresh, _ := New(k)
	for _, d := range live {
		if err := fresh.Add(d, docs[d]); err != nil {
			t.Fatal(err)
		}
	}
	fetch := func(d DocID) (seq.NucSeq, error) { return docs[d], nil }
	pats := []string{"ACGTACGTAC", "GGGGCCCC", "ATATAT", "TTGACAACGT", "CCCCTTGACA", "GACATATA"}
	for _, d := range live[:min(len(live), 20)] {
		s := docs[d]
		if s.Len() >= 12 {
			pats = append(pats, s.Slice(2, 12).String())
		}
	}
	for _, p := range pats {
		got, err := ix.Candidates(p)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := fresh.Candidates(p)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Candidates(%s) = %v, rebuilt index gives %v", p, got, want)
		}
		got, err = ix.Lookup(context.Background(), p, fetch, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, _ = fresh.Lookup(context.Background(), p, fetch, 1)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Lookup(%s) = %v, rebuilt index gives %v", p, got, want)
		}
	}
}

// TestRemoveVisitsOnlyTheDocumentsKmers plants a posting for a document
// under a k-mer its sequence lacks: Remove must leave that list alone,
// which shows it walks only the lists of the sequence's own k-mers.
func TestRemoveVisitsOnlyTheDocumentsKmers(t *testing.T) {
	ix, _ := New(4)
	s, _ := seq.NewNucSeq(seq.AlphaDNA, "AAAAAA")
	other, _ := seq.NewNucSeq(seq.AlphaDNA, "CCCCGG")
	if err := ix.Add(1, s); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(2, other); err != nil {
		t.Fatal(err)
	}
	foreign, _ := seq.KmerAt(other, 0, 4)
	ix.postings[foreign] = append(ix.postings[foreign], posting{doc: 1, pos: 0})
	ix.Remove(1, s)
	aaaa, _ := seq.KmerAt(s, 0, 4)
	if _, ok := ix.postings[aaaa]; ok {
		t.Error("the document's own k-mer list survived Remove")
	}
	if ps := ix.postings[foreign]; len(ps) != 2 || ps[1].doc != 1 {
		t.Errorf("Remove visited a list outside the document's k-mers: %v", ps)
	}
}

func TestSeedHits(t *testing.T) {
	ix, _, _ := corpus(t, 8, 20, 300)
	// A query made of doc 5's middle region must rank doc 5 first.
	q := randDNA(1005, 300).Slice(100, 200)
	hits := ix.SeedHits(q, 3)
	if len(hits) == 0 || hits[0] != DocID(5) {
		t.Errorf("SeedHits = %v, want doc 5 first", hits)
	}
	// minSeeds filter: absurd threshold yields nothing.
	if got := ix.SeedHits(q, 10000); len(got) != 0 {
		t.Errorf("high threshold hits = %v", got)
	}
}

func TestStats(t *testing.T) {
	ix, _, _ := corpus(t, 8, 5, 100)
	st := ix.Stats()
	if st.Docs != 5 {
		t.Errorf("Stats.Docs = %d", st.Docs)
	}
	// 100-base doc has 93 k-mers (k=8).
	if st.Postings != 5*93 {
		t.Errorf("Stats.Postings = %d, want %d", st.Postings, 5*93)
	}
	if st.DistinctKmer == 0 || st.DistinctKmer > st.Postings {
		t.Errorf("Stats.DistinctKmer = %d", st.DistinctKmer)
	}
}

func TestLookupFetchErrorPropagates(t *testing.T) {
	ix, docs, _ := corpus(t, 8, 3, 100)
	pat := docs[0].Slice(0, 30).String()
	_, err := ix.Lookup(context.Background(), pat, func(DocID) (seq.NucSeq, error) {
		return seq.NucSeq{}, errors.New("boom")
	}, 0)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("fetch error lost: %v", err)
	}
}

func TestConcurrentAddAndLookup(t *testing.T) {
	ix, _ := New(8)
	base := randDNA(1, 500)
	if err := ix.Add(0, base); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 50; i++ {
			if err := ix.Add(DocID(i), randDNA(int64(i), 200)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	pat := base.Slice(10, 40).String()
	for i := 0; i < 50; i++ {
		if _, err := ix.Candidates(pat); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}

func BenchmarkLookup1k(b *testing.B) {
	ix, _ := New(11)
	docs := make(map[DocID]seq.NucSeq, 1000)
	for i := 0; i < 1000; i++ {
		s := randDNA(int64(i), 500)
		docs[DocID(i)] = s
		ix.Add(DocID(i), s)
	}
	fetch := func(d DocID) (seq.NucSeq, error) { return docs[d], nil }
	pat := docs[500].Slice(100, 132).String()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Lookup(context.Background(), pat, fetch, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanEquivalent1k(b *testing.B) {
	docs := make([]seq.NucSeq, 1000)
	for i := range docs {
		docs[i] = randDNA(int64(i), 500)
	}
	pat := docs[500].Slice(100, 132)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, d := range docs {
			if d.Contains(pat) {
				n++
			}
		}
	}
}
