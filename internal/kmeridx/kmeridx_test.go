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

// corpus builds an index over n random docs of length docLen.
func corpus(t testing.TB, k, n, docLen int) (*Index, map[DocID]seq.NucSeq) {
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
	return ix, docs
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
	ix, docs := corpus(t, 8, 50, 400)
	// Take substrings of known docs at varied offsets/lengths and verify
	// the owning doc is always found.
	for docID, s := range docs {
		if docID%7 != 0 {
			continue
		}
		for _, span := range [][2]int{{0, 20}, {100, 131}, {380, 400}, {50, 58}} {
			pat := s.Slice(span[0], span[1]).String()
			got, err := ix.Candidates(pat)
			if err != nil {
				t.Fatalf("Candidates(%q): %v", pat, err)
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
	ix, docs := corpus(t, 8, 30, 200)
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
		got, err := ix.Candidates(pat)
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
	ix, _ := corpus(t, 8, 2, 100)
	_, err := ix.Candidates("ACGT")
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
	ix, _ := corpus(t, 8, 1, 50)
	if _, err := ix.Candidates("ACGTNNNN"); err == nil {
		t.Error("invalid letters accepted")
	}
}

func TestNoMatch(t *testing.T) {
	ix, docs := corpus(t, 12, 5, 100)
	pat := strings.Repeat("ACGT", 5)
	got, err := ix.Candidates(pat)
	if err != nil {
		t.Fatal(err)
	}
	// Verify against scan: pattern unlikely in random docs but must agree.
	var scan []DocID
	for d := DocID(0); d < 5; d++ {
		if docs[d].Contains(mustPat(t, pat)) {
			scan = append(scan, d)
		}
	}
	if !reflect.DeepEqual(got, scan) {
		t.Errorf("Candidates(%s) = %v, scan finds %v", pat, got, scan)
	}
}

func TestRemove(t *testing.T) {
	ix, docs := corpus(t, 8, 10, 200)
	target := DocID(3)
	pat := docs[target].Slice(50, 80).String()
	got, err := ix.Candidates(pat)
	if err != nil || len(got) == 0 {
		t.Fatalf("pre-remove lookup = %v, %v", got, err)
	}
	ix.Remove(target, docs[target])
	if ix.Docs() != 9 {
		t.Errorf("Docs after remove = %d", ix.Docs())
	}
	got, err = ix.Candidates(pat)
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
// is checked against. It never renumbers, so its ordinals are the ones
// the documents were added with.
func removeFullWalk(ix *Index, doc DocID) {
	ord, exists := ix.ords[doc]
	if !exists {
		return
	}
	delete(ix.ords, doc)
	ix.dir.each(func(km seq.Kmer, ps []posting) {
		kept := ps[:0]
		for _, p := range ps {
			if p.ord != ord {
				kept = append(kept, p)
			}
		}
		ix.dir.put(km, kept)
	})
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
// built fresh from the surviving documents (identical Candidates), with a
// dense directory (k=6) and a map (k=9).
func TestRemoveMatchesFullWalkAndRebuild(t *testing.T) {
	for _, k := range []int{6, 9} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { removeMatchesFullWalkAndRebuild(t, k) })
	}
}

func removeMatchesFullWalkAndRebuild(t *testing.T, k int) {
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
	if !reflect.DeepEqual(byDoc(ix), byDoc(ref)) || !reflect.DeepEqual(liveDocs(ix), liveDocs(ref)) {
		t.Fatal("per-document Remove left different postings than the full walk")
	}

	fresh, _ := New(k)
	for _, d := range live {
		if err := fresh.Add(d, docs[d]); err != nil {
			t.Fatal(err)
		}
	}
	pats := []string{"ACGTACGTAC", "GGGGCCCC", "ATATAT", "TTGACAACGT", "CCCCTTGACA", "GACATATA", "GGGGCCCCATATATATAT"}
	for _, d := range live[:min(len(live), 20)] {
		s := docs[d]
		if s.Len() >= 12 {
			pats = append(pats, s.Slice(2, 12).String())
		}
	}
	for _, p := range pats {
		if len(p) < k {
			continue
		}
		got, err := ix.Candidates(p)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := fresh.Candidates(p)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Candidates(%s) = %v, rebuilt index gives %v", p, got, want)
		}
	}
}

// docPos is a posting with its ordinal resolved to the document.
type docPos struct {
	doc DocID
	pos int32
}

// byDoc returns the index's posting lists with ordinals resolved, so two
// indexes that numbered the same documents differently compare equal.
func byDoc(ix *Index) map[seq.Kmer][]docPos {
	out := map[seq.Kmer][]docPos{}
	ix.dir.each(func(km seq.Kmer, ps []posting) {
		for _, p := range ps {
			out[km] = append(out[km], docPos{ix.docs[p.ord], p.pos})
		}
	})
	return out
}

// liveDocs returns the set of indexed documents.
func liveDocs(ix *Index) map[DocID]bool {
	out := make(map[DocID]bool, len(ix.ords))
	for d := range ix.ords {
		out[d] = true
	}
	return out
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
	// Doc 1 holds ordinal 0, so its planted posting sorts first.
	ix.dir.put(foreign, append([]posting{{ord: ix.ords[1], pos: 0}}, ix.dir.list(foreign)...))
	ix.Remove(1, s)
	aaaa, _ := seq.KmerAt(s, 0, 4)
	if ix.dir.list(aaaa) != nil {
		t.Error("the document's own k-mer list survived Remove")
	}
	if ps := ix.dir.list(foreign); len(ps) != 2 || ix.docs[ps[0].ord] != 1 {
		t.Errorf("Remove visited a list outside the document's k-mers: %v", ps)
	}
}

// TestRemoveWithOtherSequence: a Remove handed a sequence other than the
// one added leaves the document's postings behind under its dead
// ordinal. They must never surface as an answer, not even once the
// DocID is indexed again, and the next renumbering drops them.
func TestRemoveWithOtherSequence(t *testing.T) {
	ix, _ := New(4)
	old, _ := seq.NewNucSeq(seq.AlphaDNA, "ACGTACGTAA")
	other, _ := seq.NewNucSeq(seq.AlphaDNA, "CCCCGGGG")
	if err := ix.Add(1, old); err != nil {
		t.Fatal(err)
	}
	// Doc 2 stays live, so the dead ordinal is not renumbered away at once.
	if err := ix.Add(2, other); err != nil {
		t.Fatal(err)
	}
	ix.Remove(1, other)
	check := func(pat string, want []DocID) {
		t.Helper()
		if got, _ := ix.Candidates(pat); !reflect.DeepEqual(got, want) {
			t.Errorf("Candidates(%s) = %v, want %v", pat, got, want)
		}
		if got := ix.SeedHits(mustPat(t, pat), 1); len(got) != len(want) {
			t.Errorf("SeedHits(%s) = %v, want %v", pat, got, want)
		}
	}
	check("ACGTACGT", nil)
	if err := ix.Add(1, old); err != nil {
		t.Fatal(err)
	}
	check("ACGTACGT", []DocID{1})
	ix.Remove(1, old)
	if st := ix.Stats(); st.Docs != 1 || st.Postings != other.Len()-3 || len(ix.docs) != 1 {
		t.Errorf("after renumbering: %+v with %d ordinals, want doc 2 alone", st, len(ix.docs))
	}
}

// TestAddAllocations: Add appends onto existing lists and builds no
// per-document map, so a 160-base document into a warmed index allocates
// only when a list outgrows its capacity. At 16000 documents the 8-mer
// lists average about 37 postings.
func TestAddAllocations(t *testing.T) {
	const warm, runs = 16000, 200
	ix, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]seq.NucSeq, warm+runs+1)
	for i := range docs {
		docs[i] = randDNA(int64(i), 160)
	}
	for i := 0; i < warm; i++ {
		if err := ix.Add(DocID(i), docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	next := warm
	allocs := testing.AllocsPerRun(runs, func() {
		if err := ix.Add(DocID(next), docs[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs >= 10 {
		t.Errorf("Add allocates %.1f times per 160-base document, want under 10", allocs)
	}
}

// TestOrdinalSpaceExhausted: ordinals are never reused, so once the
// space is used up Add and AddAll fail and change nothing, until a
// renumbering frees dead ordinals.
func TestOrdinalSpaceExhausted(t *testing.T) {
	ix, _ := New(4)
	ix.maxOrds = 3
	docs := docCorpus(t, 6, 20)
	for _, d := range docs[:3] {
		if err := ix.Add(d.ID, d.Seq); err != nil {
			t.Fatal(err)
		}
	}
	before := ix.Stats()
	if err := ix.Add(docs[3].ID, docs[3].Seq); err == nil {
		t.Fatal("Add past the ordinal space succeeded")
	}
	ix.Remove(docs[0].ID, docs[0].Seq)
	if err := ix.Add(docs[3].ID, docs[3].Seq); err == nil {
		t.Fatal("Add reused a dead ordinal")
	}
	// A second Remove makes dead ordinals outnumber live ones: the
	// renumbering leaves one ordinal in use and two free.
	ix.Remove(docs[1].ID, docs[1].Seq)
	if len(ix.docs) != 1 {
		t.Fatalf("after renumbering %d ordinals are in use, want 1", len(ix.docs))
	}
	if err := ix.AddAll(context.Background(), docs[3:6], 2); err == nil {
		t.Fatal("AddAll past the ordinal space succeeded")
	}
	if ix.Docs() != 1 {
		t.Fatalf("a failed AddAll left %d documents, want 1", ix.Docs())
	}
	if err := ix.AddAll(context.Background(), docs[3:5], 2); err != nil {
		t.Fatal(err)
	}
	if st := ix.Stats(); st.Docs != 3 || before.Docs != 3 {
		t.Errorf("Stats = %+v, want 3 documents", st)
	}
}

func TestSeedHits(t *testing.T) {
	ix, _ := corpus(t, 8, 20, 300)
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
	ix, _ := corpus(t, 8, 5, 100)
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
	pat := docs[500].Slice(100, 132).String()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Candidates(pat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdd adds ingest-shaped documents, 80 to 240 bases, into an
// index already holding 16000 of them: a dense directory at k=8, a map at
// k=11.
func BenchmarkAdd(b *testing.B) {
	const warm, pool = 16000, 4096
	r := rand.New(rand.NewSource(7))
	docs := make([]seq.NucSeq, pool)
	for i := range docs {
		docs[i] = randDNA(r.Int63(), 80+r.Intn(161))
	}
	for _, k := range []int{8, 11} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			ix, err := New(k)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < warm; i++ {
				if err := ix.Add(DocID(i), docs[i%pool]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ix.Add(DocID(warm+i), docs[i%pool]); err != nil {
					b.Fatal(err)
				}
			}
		})
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
