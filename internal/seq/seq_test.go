package seq

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBaseComplement(t *testing.T) {
	pairs := map[Base]Base{A: T, C: G, G: C, T: A}
	for b, want := range pairs {
		if got := b.Complement(); got != want {
			t.Errorf("Complement(%v) = %v, want %v", b, got, want)
		}
		if got := b.Complement().Complement(); got != b {
			t.Errorf("double complement of %v = %v", b, got)
		}
	}
}

func TestNewNucSeqRoundTrip(t *testing.T) {
	cases := []string{"", "A", "ACGT", "acgt", "TTTTGGGGCCCCAAAA", "ATG" + strings.Repeat("ACGT", 100)}
	for _, c := range cases {
		ns, err := NewNucSeq(AlphaDNA, c)
		if err != nil {
			t.Fatalf("NewNucSeq(%q): %v", c, err)
		}
		if got, want := ns.String(), strings.ToUpper(c); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
		if ns.Len() != len(c) {
			t.Errorf("Len() = %d, want %d", ns.Len(), len(c))
		}
	}
}

func TestNewNucSeqRejectsBadLetters(t *testing.T) {
	for _, c := range []string{"ACGX", "N", "ACG-T", "hello"} {
		if _, err := NewNucSeq(AlphaDNA, c); err == nil {
			t.Errorf("NewNucSeq(%q) succeeded, want error", c)
		}
	}
	// Alphabet cross-checks.
	if _, err := NewNucSeq(AlphaDNA, "ACGU"); err == nil {
		t.Error("DNA sequence accepted 'U'")
	}
	if _, err := NewNucSeq(AlphaRNA, "ACGT"); err == nil {
		t.Error("RNA sequence accepted 'T'")
	}
}

func TestBadLetterErrorMessage(t *testing.T) {
	_, err := NewNucSeq(AlphaDNA, "ACX")
	if err == nil {
		t.Fatal("expected error")
	}
	ble, ok := err.(*BadLetterError)
	if !ok {
		t.Fatalf("error type %T, want *BadLetterError", err)
	}
	if ble.Pos != 2 || ble.Letter != 'X' {
		t.Errorf("BadLetterError = %+v", ble)
	}
	if !strings.Contains(err.Error(), "position 2") {
		t.Errorf("error message %q lacks position", err.Error())
	}
}

func TestReverseComplement(t *testing.T) {
	ns := MustNucSeq(AlphaDNA, "ATGC")
	if got := ns.ReverseComplement().String(); got != "GCAT" {
		t.Errorf("ReverseComplement(ATGC) = %q, want GCAT", got)
	}
	// Empty and single-base edge cases.
	if got := MustNucSeq(AlphaDNA, "").ReverseComplement().String(); got != "" {
		t.Errorf("rc of empty = %q", got)
	}
	if got := MustNucSeq(AlphaDNA, "A").ReverseComplement().String(); got != "T" {
		t.Errorf("rc of A = %q", got)
	}
}

func TestReverseComplementInvolution(t *testing.T) {
	f := func(raw []byte) bool {
		ns := randomSeqFromBytes(raw)
		return ns.ReverseComplement().ReverseComplement().Equal(ns)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(raw []byte, rna bool) bool {
		ns := randomSeqFromBytes(raw)
		if rna {
			ns = ns.ToRNA()
		}
		out, err := UnpackNucSeq(ns.Pack())
		return err == nil && out.Equal(ns)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnpackRejectsCorrupt(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},
		{0, 1, 2, 3},
		{5, 0, 0, 0, 0, 0, 0, 0, 0},   // bad alphabet
		{0, 200, 0, 0, 0, 0, 0, 0, 0}, // claims 200 bases, no payload
		{0, 255, 255, 255, 255, 255, 255, 255, 255}, // absurd length
	}
	for i, c := range cases {
		if _, err := UnpackNucSeq(c); err == nil {
			t.Errorf("case %d: UnpackNucSeq accepted corrupt buffer", i)
		}
	}
}

func TestSliceAppend(t *testing.T) {
	ns := MustNucSeq(AlphaDNA, "ACGTACGT")
	sub := ns.Slice(2, 6)
	if sub.String() != "GTAC" {
		t.Errorf("Slice(2,6) = %q", sub.String())
	}
	// Slicing must copy: mutating source via rebuild should not affect sub.
	joined, err := ns.Slice(0, 2).Append(sub)
	if err != nil {
		t.Fatal(err)
	}
	if joined.String() != "ACGTAC" {
		t.Errorf("Append = %q", joined.String())
	}
	if _, err := ns.Append(MustNucSeq(AlphaRNA, "ACGU")); err == nil {
		t.Error("Append across alphabets succeeded")
	}
}

func TestSlicePanics(t *testing.T) {
	ns := MustNucSeq(AlphaDNA, "ACGT")
	for _, c := range [][2]int{{-1, 2}, {0, 5}, {3, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slice(%d,%d) did not panic", c[0], c[1])
				}
			}()
			ns.Slice(c[0], c[1])
		}()
	}
}

func TestGCContent(t *testing.T) {
	cases := []struct {
		s    string
		want float64
	}{
		{"", 0}, {"AT", 0}, {"GC", 1}, {"ACGT", 0.5}, {"GGGA", 0.75},
	}
	for _, c := range cases {
		if got := MustNucSeq(AlphaDNA, c.s).GCContent(); got != c.want {
			t.Errorf("GCContent(%q) = %v, want %v", c.s, got, c.want)
		}
	}
}

// gcContentRef is the per-base reference GCContent is checked against.
func gcContentRef(s NucSeq) float64 {
	if s.Len() == 0 {
		return 0
	}
	gc := 0
	for i := 0; i < s.Len(); i++ {
		if b := s.At(i); b == C || b == G {
			gc++
		}
	}
	return float64(gc) / float64(s.Len())
}

// TestGCContentPackedMatchesPerBase checks the packed-byte G+C count
// against the per-base reference, bit for bit: both alphabets, every
// length 0–67 (every tail shape around the 8-byte word loop), seeded
// random sequences, and packed buffers whose unused tail bits are set.
func TestGCContentPackedMatchesPerBase(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	randBases := func(n int) []Base {
		bs := make([]Base, n)
		for i := range bs {
			bs[i] = Base(rng.Intn(4))
		}
		return bs
	}
	check := func(s NucSeq) {
		t.Helper()
		if got, want := s.GCContent(), gcContentRef(s); got != want {
			t.Fatalf("GCContent(%v, n=%d) = %v, per-base reference %v", s.Alphabet(), s.Len(), got, want)
		}
	}
	for _, a := range []Alphabet{AlphaDNA, AlphaRNA} {
		for n := 0; n <= 67; n++ {
			for rep := 0; rep < 8; rep++ {
				s := FromBases(a, randBases(n))
				check(s)
				// Same bases with the unused tail pairs dirtied to C, G
				// or T codes: the kernel must mask them off.
				packed := s.Pack()
				if n&3 != 0 {
					dirt := []byte{0x55, 0xAA, 0xFF}[rep%3]
					packed[len(packed)-1] |= dirt << (2 * uint(n&3))
				}
				dirty, err := UnpackNucSeq(packed)
				if err != nil {
					t.Fatal(err)
				}
				check(dirty)
			}
		}
		for rep := 0; rep < 200; rep++ {
			check(FromBases(a, randBases(rng.Intn(5000))))
		}
	}
}

func TestIndexOfContains(t *testing.T) {
	s := MustNucSeq(AlphaDNA, "ACGTACGTTT")
	cases := []struct {
		pat  string
		want int
	}{
		{"ACGT", 0}, {"CGTA", 1}, {"TTT", 7}, {"GGG", -1}, {"", 0},
		{"ACGTACGTTT", 0}, {"ACGTACGTTTT", -1},
	}
	for _, c := range cases {
		pat := MustNucSeq(AlphaDNA, c.pat)
		if got := s.IndexOf(pat); got != c.want {
			t.Errorf("IndexOf(%q) = %d, want %d", c.pat, got, c.want)
		}
		if got := s.Contains(pat); got != (c.want >= 0) {
			t.Errorf("Contains(%q) = %v", c.pat, got)
		}
	}
}

func TestToRNAToDNA(t *testing.T) {
	dna := MustNucSeq(AlphaDNA, "ATGC")
	rna := dna.ToRNA()
	if rna.String() != "AUGC" {
		t.Errorf("ToRNA = %q, want AUGC", rna.String())
	}
	if rna.Alphabet() != AlphaRNA {
		t.Error("ToRNA alphabet wrong")
	}
	back := rna.ToDNA()
	if !back.Equal(dna) {
		t.Errorf("ToDNA round-trip = %q", back.String())
	}
	// ToRNA must not mutate the original.
	if dna.Alphabet() != AlphaDNA {
		t.Error("ToRNA mutated receiver")
	}
}

func TestCountBases(t *testing.T) {
	c := MustNucSeq(AlphaDNA, "AACCCGT").CountBases()
	if c != [4]int{2, 3, 1, 1} {
		t.Errorf("CountBases = %v", c)
	}
}

func TestProtSeqRoundTrip(t *testing.T) {
	cases := []string{"", "M", "MKV", "ACDEFGHIKLMNPQRSTVWY*", strings.Repeat("MKVLW", 50)}
	for _, c := range cases {
		ps, err := NewProtSeq(c)
		if err != nil {
			t.Fatalf("NewProtSeq(%q): %v", c, err)
		}
		if ps.String() != strings.ToUpper(c) {
			t.Errorf("String() = %q, want %q", ps.String(), c)
		}
		out, err := UnpackProtSeq(ps.Pack())
		if err != nil || !out.Equal(ps) {
			t.Errorf("pack round-trip of %q failed: %v", c, err)
		}
	}
}

func TestProtSeqRejectsBadLetters(t *testing.T) {
	for _, c := range []string{"B", "J", "O", "U", "Z", "M K"} {
		if _, err := NewProtSeq(c); err == nil {
			t.Errorf("NewProtSeq(%q) succeeded", c)
		}
	}
}

func TestProtSeqPackPropertyRoundTrip(t *testing.T) {
	letters := "ACDEFGHIKLMNPQRSTVWY*"
	f := func(raw []byte) bool {
		var sb strings.Builder
		for _, b := range raw {
			sb.WriteByte(letters[int(b)%len(letters)])
		}
		ps := MustProtSeq(sb.String())
		out, err := UnpackProtSeq(ps.Pack())
		return err == nil && out.Equal(ps) && out.String() == sb.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProtSlice(t *testing.T) {
	ps := MustProtSeq("MKVLWAAL")
	if got := ps.Slice(2, 5).String(); got != "VLW" {
		t.Errorf("Slice(2,5) = %q", got)
	}
}

func TestMolecularWeight(t *testing.T) {
	if w := MustProtSeq("").MolecularWeight(); w != 0 {
		t.Errorf("empty weight = %v", w)
	}
	// Glycine: 57.05 + water 18.02.
	w := MustProtSeq("G").MolecularWeight()
	if w < 75 || w > 76 {
		t.Errorf("Gly weight = %v, want ~75.07", w)
	}
	// Longer proteins weigh more.
	if MustProtSeq("GG").MolecularWeight() <= w {
		t.Error("weight not monotone in length")
	}
}

func TestCodonDecode(t *testing.T) {
	cases := map[string]AminoAcid{
		"AUG": Met, "UGG": Trp, "UAA": Stop, "UAG": Stop, "UGA": Stop,
		"UUU": Phe, "GGG": Gly, "AAA": Lys, "CCC": Pro,
	}
	for s, want := range cases {
		rna := MustNucSeq(AlphaRNA, s)
		c := MakeCodon(rna.At(0), rna.At(1), rna.At(2))
		if got := c.Decode(); got != want {
			t.Errorf("Decode(%s) = %v, want %v", s, got, want)
		}
		if c.String() != s {
			t.Errorf("Codon.String = %q, want %q", c.String(), s)
		}
	}
}

func TestCodonTableIsTotal(t *testing.T) {
	// All 64 codons decode; count stops and Met.
	stops, mets := 0, 0
	for c := Codon(0); c < 64; c++ {
		switch c.Decode() {
		case Stop:
			stops++
		case Met:
			mets++
		}
	}
	if stops != 3 {
		t.Errorf("stop codons = %d, want 3", stops)
	}
	if mets != 1 {
		t.Errorf("Met codons = %d, want 1", mets)
	}
}

func TestTranslate(t *testing.T) {
	rna := MustNucSeq(AlphaRNA, "AUGAAAUAG") // Met Lys Stop
	if got := Translate(rna, 0, true).String(); got != "MK" {
		t.Errorf("Translate = %q, want MK", got)
	}
	if got := Translate(rna, 0, false).String(); got != "MK*" {
		t.Errorf("Translate no-stop = %q, want MK*", got)
	}
	// Frame shift.
	if got := Translate(rna, 1, false).Len(); got != 2 {
		t.Errorf("frame-1 length = %d, want 2", got)
	}
	// Trailing partial codon ignored.
	if got := Translate(MustNucSeq(AlphaRNA, "AUGAA"), 0, true).String(); got != "M" {
		t.Errorf("partial-codon translate = %q", got)
	}
	// Invalid frame treated as 0.
	if got := Translate(rna, 9, true).String(); got != "MK" {
		t.Errorf("invalid frame translate = %q", got)
	}
}

func TestFindORFs(t *testing.T) {
	// Forward ORF: ATG AAA TAA at offset 2.
	dna := MustNucSeq(AlphaDNA, "CCATGAAATAACC")
	orfs := FindORFs(dna, 9)
	if len(orfs) == 0 {
		t.Fatal("no ORFs found")
	}
	found := false
	for _, o := range orfs {
		if !o.Reverse && o.Start == 2 && o.End == 11 {
			found = true
		}
	}
	if !found {
		t.Errorf("forward ORF [2,11) not found in %+v", orfs)
	}
}

func TestFindORFsReverseStrand(t *testing.T) {
	fwd := MustNucSeq(AlphaDNA, "CCATGAAATAACC")
	rc := fwd.ReverseComplement()
	orfs := FindORFs(rc, 9)
	found := false
	for _, o := range orfs {
		if o.Reverse && o.Len() == 9 {
			found = true
			// Extract from the reverse complement of rc and check it decodes.
			sub := rc.ReverseComplement().Slice(rc.Len()-o.End, rc.Len()-o.Start)
			_ = sub
		}
	}
	if !found {
		t.Errorf("reverse ORF not found in %+v", orfs)
	}
}

func TestFindORFsMinLen(t *testing.T) {
	dna := MustNucSeq(AlphaDNA, "ATGTAA") // 6-base ORF
	if got := len(FindORFs(dna, 7)); got != 0 {
		t.Errorf("minLen filter failed: %d ORFs", got)
	}
	if got := len(FindORFs(dna, 6)); got == 0 {
		t.Error("6-base ORF not found at minLen 6")
	}
}

func TestCodonUsage(t *testing.T) {
	rna := MustNucSeq(AlphaRNA, "AUGAUGUAA")
	usage := CodonUsage(rna)
	aug := MakeCodon(A, U, G)
	if usage[aug] != 2 {
		t.Errorf("AUG count = %d, want 2", usage[aug])
	}
	total := 0
	for _, c := range usage {
		total += c
	}
	if total != 3 {
		t.Errorf("total codons = %d, want 3", total)
	}
}

func TestKmerAtAndString(t *testing.T) {
	s := MustNucSeq(AlphaDNA, "ACGTAC")
	km, ok := KmerAt(s, 0, 4)
	if !ok || KmerString(km, 4) != "ACGT" {
		t.Errorf("KmerAt(0,4) = %q ok=%v", KmerString(km, 4), ok)
	}
	km, ok = KmerAt(s, 2, 4)
	if !ok || KmerString(km, 4) != "GTAC" {
		t.Errorf("KmerAt(2,4) = %q", KmerString(km, 4))
	}
	if _, ok := KmerAt(s, 3, 4); ok {
		t.Error("out-of-window KmerAt succeeded")
	}
}

func TestEachKmerRollingMatchesDirect(t *testing.T) {
	f := func(raw []byte) bool {
		s := randomSeqFromBytes(raw)
		for _, k := range []int{1, 3, 7, 15} {
			ok := true
			EachKmer(s, k, func(pos int, km Kmer) bool {
				direct, valid := KmerAt(s, pos, k)
				if !valid || direct != km {
					ok = false
					return false
				}
				return true
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEachKmerEarlyStop(t *testing.T) {
	s := MustNucSeq(AlphaDNA, "ACGTACGT")
	calls := 0
	EachKmer(s, 2, func(pos int, km Kmer) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Errorf("early stop: %d calls, want 3", calls)
	}
}

func TestKmerOf(t *testing.T) {
	km, k, err := KmerOf("ACGT")
	if err != nil || k != 4 || KmerString(km, 4) != "ACGT" {
		t.Errorf("KmerOf(ACGT) = %v,%d,%v", km, k, err)
	}
	if _, _, err := KmerOf(""); err == nil {
		t.Error("empty pattern accepted")
	}
	if _, _, err := KmerOf(strings.Repeat("A", 32)); err == nil {
		t.Error("over-long pattern accepted")
	}
	if _, _, err := KmerOf("ACXG"); err == nil {
		t.Error("bad letter accepted")
	}
}

// randomSeqFromBytes derives a deterministic sequence from fuzz bytes:
// each byte contributes one base.
func randomSeqFromBytes(raw []byte) NucSeq {
	bases := make([]Base, len(raw))
	for i, b := range raw {
		bases[i] = Base(b & 3)
	}
	return FromBases(AlphaDNA, bases)
}

// RandomDNA is a shared test helper producing a deterministic pseudo-random
// DNA sequence of length n from seed.
func RandomDNA(seed int64, n int) NucSeq {
	r := rand.New(rand.NewSource(seed))
	bases := make([]Base, n)
	for i := range bases {
		bases[i] = Base(r.Intn(4))
	}
	return FromBases(AlphaDNA, bases)
}

func BenchmarkPack1k(b *testing.B) {
	s := RandomDNA(1, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Pack()
	}
}

func BenchmarkTranslate10k(b *testing.B) {
	s := RandomDNA(2, 10000).ToRNA()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Translate(s, 0, false)
	}
}

func BenchmarkEachKmer10k(b *testing.B) {
	s := RandomDNA(3, 10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		EachKmer(s, 11, func(pos int, km Kmer) bool { n++; return true })
	}
}
