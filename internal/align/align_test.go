package align

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"genalg/internal/seq"
)

func dna(s string) seq.NucSeq { return seq.MustNucSeq(seq.AlphaDNA, s) }

func randDNA(seed int64, n int) seq.NucSeq {
	r := rand.New(rand.NewSource(seed))
	bases := make([]seq.Base, n)
	for i := range bases {
		bases[i] = seq.Base(r.Intn(4))
	}
	return seq.FromBases(seq.AlphaDNA, bases)
}

func TestGlobalIdentical(t *testing.T) {
	a := dna("ACGTACGT")
	r, err := Global(a, a, DefaultScoring)
	if err != nil {
		t.Fatal(err)
	}
	if r.Score != 8*DefaultScoring.Match {
		t.Errorf("score = %d, want %d", r.Score, 8*DefaultScoring.Match)
	}
	if r.Identity() != 1 {
		t.Errorf("identity = %v", r.Identity())
	}
	if len(r.Trace) != 8 {
		t.Errorf("trace len = %d", len(r.Trace))
	}
}

func TestGlobalWithGap(t *testing.T) {
	// b misses one base; expect one gap op.
	a, b := dna("ACGTACGT"), dna("ACGACGT")
	r, err := Global(a, b, DefaultScoring)
	if err != nil {
		t.Fatal(err)
	}
	want := 7*DefaultScoring.Match + DefaultScoring.Gap
	if r.Score != want {
		t.Errorf("score = %d, want %d", r.Score, want)
	}
	gaps := 0
	for _, op := range r.Trace {
		if op == OpInsA || op == OpInsB {
			gaps++
		}
	}
	if gaps != 1 {
		t.Errorf("gaps = %d, want 1", gaps)
	}
}

func TestGlobalEmptySequences(t *testing.T) {
	r, err := Global(dna(""), dna("ACG"), DefaultScoring)
	if err != nil {
		t.Fatal(err)
	}
	if r.Score != 3*DefaultScoring.Gap || len(r.Trace) != 3 {
		t.Errorf("empty-vs-ACG: score=%d trace=%d", r.Score, len(r.Trace))
	}
	r, err = Global(dna(""), dna(""), DefaultScoring)
	if err != nil || r.Score != 0 || len(r.Trace) != 0 {
		t.Errorf("empty-vs-empty: %+v, %v", r, err)
	}
}

func TestScoringValidation(t *testing.T) {
	if _, err := Global(dna("A"), dna("A"), Scoring{Match: 0, Mismatch: -1, Gap: -1}); err == nil {
		t.Error("zero match accepted")
	}
	if _, err := Local(dna("A"), dna("A"), Scoring{Match: 1, Mismatch: -1, Gap: 1}); err == nil {
		t.Error("positive gap accepted")
	}
}

func TestLocalFindsEmbeddedMatch(t *testing.T) {
	needle := "GGGCCCGGG"
	a := dna("TTTTTTT" + needle + "AAAAAAA")
	b := dna("CACACA" + needle + "GTGTGT")
	r, err := Local(a, b, DefaultScoring)
	if err != nil {
		t.Fatal(err)
	}
	if r.Score < len(needle)*DefaultScoring.Match {
		t.Errorf("score = %d, want >= %d", r.Score, len(needle)*DefaultScoring.Match)
	}
	// The aligned region of a must cover the needle.
	got := a.Slice(r.AStart, r.AEnd).String()
	if !strings.Contains(got, needle) {
		t.Errorf("aligned region %q does not contain needle", got)
	}
}

func TestLocalNoSimilarity(t *testing.T) {
	r, err := Local(dna("AAAA"), dna("CCCC"), DefaultScoring)
	if err != nil {
		t.Fatal(err)
	}
	// Best local alignment of pure mismatches is the empty alignment.
	if r.Score != 0 || len(r.Trace) != 0 {
		t.Errorf("no-similarity result: %+v", r)
	}
}

func TestLocalSpansConsistent(t *testing.T) {
	a, b := randDNA(10, 200), randDNA(11, 180)
	r, err := Local(a, b, DefaultScoring)
	if err != nil {
		t.Fatal(err)
	}
	na, nb := 0, 0
	for _, op := range r.Trace {
		switch op {
		case OpMatch, OpMismatch:
			na++
			nb++
		case OpInsA:
			na++
		case OpInsB:
			nb++
		}
	}
	if r.AEnd-r.AStart != na || r.BEnd-r.BStart != nb {
		t.Errorf("span/trace mismatch: a[%d,%d) consumes %d; b[%d,%d) consumes %d",
			r.AStart, r.AEnd, na, r.BStart, r.BEnd, nb)
	}
}

func TestGlobalBandedMatchesFullWhenBandWide(t *testing.T) {
	a, b := randDNA(20, 120), randDNA(21, 115)
	full, err := Global(a, b, DefaultScoring)
	if err != nil {
		t.Fatal(err)
	}
	banded, err := GlobalBanded(a, b, DefaultScoring, 120)
	if err != nil {
		t.Fatal(err)
	}
	if banded.Score != full.Score {
		t.Errorf("banded score %d != full score %d", banded.Score, full.Score)
	}
}

func TestGlobalBandedNarrowBandErrors(t *testing.T) {
	if _, err := GlobalBanded(dna("ACGTACGTAC"), dna("AC"), DefaultScoring, 3); err == nil {
		t.Error("band narrower than length difference accepted")
	}
}

func TestGlobalBandedIdentical(t *testing.T) {
	a := randDNA(30, 500)
	r, err := GlobalBanded(a, a, DefaultScoring, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Score != 500*DefaultScoring.Match {
		t.Errorf("banded identical score = %d", r.Score)
	}
}

// Property: global alignment score is symmetric and bounded above by
// match * min(n,m) ... and identical sequences achieve the bound.
func TestGlobalScoreProperties(t *testing.T) {
	f := func(rawA, rawB []byte) bool {
		if len(rawA) > 60 {
			rawA = rawA[:60]
		}
		if len(rawB) > 60 {
			rawB = rawB[:60]
		}
		a := basesOf(rawA)
		b := basesOf(rawB)
		ra, err1 := Global(a, b, DefaultScoring)
		rb, err2 := Global(b, a, DefaultScoring)
		if err1 != nil || err2 != nil {
			return false
		}
		if ra.Score != rb.Score {
			return false
		}
		minLen := a.Len()
		if b.Len() < minLen {
			minLen = b.Len()
		}
		return ra.Score <= minLen*DefaultScoring.Match
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: local alignment score >= 0 and >= any exact shared substring
// length times match score is not guaranteed in general, but score must be
// >= 0 and AStart<=AEnd etc.
func TestLocalInvariantProperties(t *testing.T) {
	f := func(rawA, rawB []byte) bool {
		if len(rawA) > 50 {
			rawA = rawA[:50]
		}
		if len(rawB) > 50 {
			rawB = rawB[:50]
		}
		a, b := basesOf(rawA), basesOf(rawB)
		r, err := Local(a, b, DefaultScoring)
		if err != nil {
			return false
		}
		return r.Score >= 0 && r.AStart <= r.AEnd && r.BStart <= r.BEnd &&
			r.AEnd <= a.Len() && r.BEnd <= b.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func basesOf(raw []byte) seq.NucSeq {
	bases := make([]seq.Base, len(raw))
	for i, r := range raw {
		bases[i] = seq.Base(r & 3)
	}
	return seq.FromBases(seq.AlphaDNA, bases)
}

func TestPretty(t *testing.T) {
	a, b := dna("ACGT"), dna("AGGT")
	r, err := Global(a, b, DefaultScoring)
	if err != nil {
		t.Fatal(err)
	}
	out := r.Pretty(a, b)
	lines := strings.Split(out, "\n")
	if len(lines) != 3 {
		t.Fatalf("Pretty output: %q", out)
	}
	if lines[0] != "ACGT" || lines[2] != "AGGT" {
		t.Errorf("Pretty rows: %q / %q", lines[0], lines[2])
	}
	if !strings.Contains(lines[1], ".") {
		t.Errorf("Pretty midline %q lacks mismatch marker", lines[1])
	}
}

func TestDatabaseSearchFindsPlanted(t *testing.T) {
	db, err := NewDatabase(8)
	if err != nil {
		t.Fatal(err)
	}
	motif := randDNA(99, 40)
	for i := 0; i < 20; i++ {
		s := randDNA(int64(i), 300)
		db.Add(subjID(i), s)
	}
	// Subject 20 carries the motif.
	carrier, err := randDNA(50, 100).Append(motif)
	if err != nil {
		t.Fatal(err)
	}
	carrier, err = carrier.Append(randDNA(51, 100))
	if err != nil {
		t.Fatal(err)
	}
	db.Add("carrier", carrier)
	if db.Len() != 21 {
		t.Fatalf("Len = %d", db.Len())
	}

	hits := db.Search(context.Background(), motif, SearchOptions{MinScore: 40}, 0)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if hits[0].SubjectID != "carrier" {
		t.Errorf("best hit = %+v, want carrier", hits[0])
	}
	if hits[0].Score < 40*DefaultScoring.Match {
		t.Errorf("best score = %d, want >= %d", hits[0].Score, 40*DefaultScoring.Match)
	}
}

func TestDatabaseSearchMaxHits(t *testing.T) {
	db, _ := NewDatabase(8)
	s := randDNA(7, 500)
	for i := 0; i < 10; i++ {
		db.Add(subjID(i), s) // identical subjects: many hits
	}
	hits := db.Search(context.Background(), s.Slice(100, 160), SearchOptions{MaxHits: 3}, 0)
	if len(hits) != 3 {
		t.Errorf("MaxHits: got %d hits", len(hits))
	}
}

func TestDatabaseSearchNoFalsePositives(t *testing.T) {
	db, _ := NewDatabase(12)
	db.Add("x", randDNA(1, 200))
	// A query with no shared 12-mer yields no hits.
	hits := db.Search(context.Background(), randDNA(2, 50), SearchOptions{MinScore: 30}, 0)
	for _, h := range hits {
		if h.Score >= 30*DefaultScoring.Match {
			t.Errorf("implausible hit: %+v", h)
		}
	}
}

func TestNewDatabaseValidatesK(t *testing.T) {
	if _, err := NewDatabase(2); err == nil {
		t.Error("k=2 accepted")
	}
	if _, err := NewDatabase(40); err == nil {
		t.Error("k=40 accepted")
	}
}

func TestResembles(t *testing.T) {
	a := randDNA(5, 100)
	ok, err := Resembles(a, a, 100)
	if err != nil || !ok {
		t.Errorf("self-resemblance failed: %v %v", ok, err)
	}
	ok, err = Resembles(dna("AAAA"), dna("CCCC"), 4)
	if err != nil || ok {
		t.Errorf("dissimilar resembles: %v %v", ok, err)
	}
}

func subjID(i int) string { return "subj" + string(rune('A'+i%26)) + string(rune('0'+i/26)) }

func BenchmarkGlobal1k(b *testing.B) {
	x, y := randDNA(1, 1000), randDNA(2, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Global(x, y, DefaultScoring); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocal1k(b *testing.B) {
	x, y := randDNA(3, 1000), randDNA(4, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Local(x, y, DefaultScoring); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBanded1k(b *testing.B) {
	x, y := randDNA(5, 1000), randDNA(6, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GlobalBanded(x, y, DefaultScoring, 32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeededSearch(b *testing.B) {
	db, _ := NewDatabase(11)
	for i := 0; i < 100; i++ {
		db.Add(subjID(i), randDNA(int64(i), 1000))
	}
	q := randDNA(42, 1000).Slice(0, 200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = db.Search(context.Background(), q, SearchOptions{MinScore: 20}, 0)
	}
}

func prot(s string) seq.ProtSeq { return seq.MustProtSeq(s) }

func TestProtLocalIdentical(t *testing.T) {
	p := prot("MKVLWAALLVTFLAGCQA")
	r, err := ProtLocal(p, p, nil, -4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Identity() != 1 || r.AStart != 0 || r.AEnd != p.Len() {
		t.Errorf("self-alignment = %+v", r)
	}
	// Score is the sum of identity scores (5 or 7 per residue).
	minScore := 5 * p.Len()
	if r.Score < minScore {
		t.Errorf("score = %d, want >= %d", r.Score, minScore)
	}
}

func TestProtLocalFindsConservedRegion(t *testing.T) {
	// Shared domain embedded in different contexts.
	domain := "WKDGHECW"
	a := prot("AAAAA" + domain + "TTTTT")
	b := prot("DDEEE" + domain + "KKRRR")
	r, err := ProtLocal(a, b, nil, -4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Score < 5*len(domain) {
		t.Errorf("domain score = %d", r.Score)
	}
	got := a.Slice(r.AStart, r.AEnd).String()
	if !strings.Contains(got, domain) {
		t.Errorf("aligned region %q misses the domain", got)
	}
}

func TestProtLocalClassSubstitutions(t *testing.T) {
	// Conservative substitutions (L<->I, D<->E, K<->R) score positively;
	// the alignment of class-equivalent sequences beats random ones.
	a := prot("LLDDKK")
	conservative := prot("IIEERR")
	random := prot("GWGWGW")
	rc, err := ProtLocal(a, conservative, nil, -4)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := ProtLocal(a, random, nil, -4)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Score <= rr.Score {
		t.Errorf("conservative %d <= random %d", rc.Score, rr.Score)
	}
}

func TestProtLocalValidation(t *testing.T) {
	if _, err := ProtLocal(prot("MK"), prot("MK"), nil, 1); err == nil {
		t.Error("positive gap accepted")
	}
	r, err := ProtLocal(prot(""), prot("MK"), nil, -4)
	if err != nil || r.Score != 0 {
		t.Errorf("empty protein alignment = %+v, %v", r, err)
	}
}

func TestProtResembles(t *testing.T) {
	a := prot("MKVLWAALLVTFLAGCQAKVEQAVETEPEPELRQQ")
	ok, err := ProtResembles(a, a, 100)
	if err != nil || !ok {
		t.Errorf("self-resemblance = %v, %v", ok, err)
	}
	ok, err = ProtResembles(prot("GGGG"), prot("WWWW"), 10)
	if err != nil || ok {
		t.Errorf("dissimilar = %v, %v", ok, err)
	}
}

func TestBlosumishSymmetric(t *testing.T) {
	for a := 0; a < 21; a++ {
		for b := 0; b < 21; b++ {
			if Blosumish[a][b] != Blosumish[b][a] {
				t.Fatalf("matrix asymmetric at %d,%d", a, b)
			}
		}
	}
	// Identities dominate their row.
	for a := seq.AminoAcid(0); a < 20; a++ {
		for b := seq.AminoAcid(0); b < 20; b++ {
			if a != b && Blosumish[a][b] >= Blosumish[a][a] {
				t.Fatalf("substitution %v->%v scores >= identity", a, b)
			}
		}
	}
}

func BenchmarkProtLocal300(b *testing.B) {
	mk := func(seed int64) seq.ProtSeq {
		letters := "ACDEFGHIKLMNPQRSTVWY"
		r := rand.New(rand.NewSource(seed))
		buf := make([]byte, 300)
		for i := range buf {
			buf[i] = letters[r.Intn(len(letters))]
		}
		return seq.MustProtSeq(string(buf))
	}
	x, y := mk(1), mk(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ProtLocal(x, y, nil, -4); err != nil {
			b.Fatal(err)
		}
	}
}
