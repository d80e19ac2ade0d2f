package adapter

import (
	"strings"
	"testing"

	"genalg/internal/core"
	"genalg/internal/seq"

	"genalg/internal/db"
	"genalg/internal/gdt"
	"genalg/internal/genops"
	"genalg/internal/sqlang"
)

func installed(t testing.TB) *sqlang.Engine {
	d, err := db.OpenMemory(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := Install(d, genops.NewKernel()); err != nil {
		t.Fatal(err)
	}
	return sqlang.NewEngine(d)
}

func mustExec(t testing.TB, e *sqlang.Engine, sql string) *sqlang.Result {
	t.Helper()
	r, err := e.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return r
}

func TestInstallRegistersAllGDTs(t *testing.T) {
	d, _ := db.OpenMemory(64)
	if err := Install(d, genops.NewKernel()); err != nil {
		t.Fatal(err)
	}
	want := []string{"annotation", "chromosome", "dna", "gene", "genome",
		"mrna", "nucleotide", "primarytranscript", "protein", "rna"}
	got := d.UDTs.Names()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("UDTs = %v", got)
	}
	// Algebra ops are callable functions.
	for _, fn := range []string{"transcribe", "splice", "translate", "decode", "contains", "gccontent", "length"} {
		if _, ok := d.Funcs.Get(fn); !ok {
			t.Errorf("function %q not registered", fn)
		}
	}
	// contains carries the k-mer index hint.
	f, _ := d.Funcs.Get("contains")
	if f.IndexHint != "kmer" || f.Selectivity == 0 {
		t.Errorf("contains metadata = %+v", f)
	}
}

func TestPaperPipelineThroughSQL(t *testing.T) {
	// Store a gene, then run the central dogma inside a query:
	// SELECT proteinseq(translate(splice(transcribe(g)))) FROM genes.
	e := installed(t)
	mustExec(t, e, `CREATE TABLE genes (id string, g gene)`)
	geneSeq := "ATGAAA" + "GTCCCTAG" + "CCCGGG" + "GTTTTTAG" + "TTTTAA"
	mustExec(t, e, `INSERT INTO genes VALUES ('G1', gene('G1', 'TST1', 'synthetica', '`+geneSeq+`', '0-6,14-20,28-34'))`)
	r := mustExec(t, e, `SELECT id, proteinseq(translate(splice(transcribe(g)))) FROM genes`)
	if len(r.Rows) != 1 || r.Rows[0][1] != "MKPGF" {
		t.Errorf("pipeline rows = %v", r.Rows)
	}
}

func TestOverloadedLengthThroughSQL(t *testing.T) {
	e := installed(t)
	mustExec(t, e, `CREATE TABLE frags (id string, f dna)`)
	mustExec(t, e, `INSERT INTO frags VALUES ('a', dna('a', 'ACGTACGT'))`)
	r := mustExec(t, e, `SELECT length(f) FROM frags`)
	if r.Rows[0][0] != int64(8) {
		t.Errorf("length = %v", r.Rows[0])
	}
	// protein overload of the same function name.
	mustExec(t, e, `CREATE TABLE prots (id string, p protein)`)
	mustExec(t, e, `INSERT INTO prots VALUES ('p1', protein('p1', 'MKV'))`)
	r = mustExec(t, e, `SELECT length(p) FROM prots`)
	if r.Rows[0][0] != int64(3) {
		t.Errorf("protein length = %v", r.Rows[0])
	}
}

func TestConstructorValidation(t *testing.T) {
	e := installed(t)
	mustExec(t, e, `CREATE TABLE frags (id string, f dna)`)
	cases := []string{
		`INSERT INTO frags VALUES ('x', dna('x', 'ACGU'))`,    // U in DNA
		`INSERT INTO frags VALUES ('x', dna('x', 'NNNN'))`,    // bad letters
		`INSERT INTO frags VALUES ('x', rna('x', 'ACGU'))`,    // wrong UDT for column
		`INSERT INTO frags VALUES ('x', protein('x', 'MKB'))`, // bad amino acid
		`INSERT INTO frags VALUES ('x', dna('x'))`,            // arity
	}
	for _, c := range cases {
		if _, err := e.Exec(c); err == nil {
			t.Errorf("Exec(%q) succeeded", c)
		}
	}
}

func TestGeneConstructorExonValidation(t *testing.T) {
	e := installed(t)
	mustExec(t, e, `CREATE TABLE genes (id string, g gene)`)
	if _, err := e.Exec(`INSERT INTO genes VALUES ('g', gene('g', 'S', 'o', 'ACGT', '0-100'))`); err == nil {
		t.Error("out-of-bounds exon accepted")
	}
	if _, err := e.Exec(`INSERT INTO genes VALUES ('g', gene('g', 'S', 'o', 'ACGT', 'zero-4'))`); err == nil {
		t.Error("malformed exon spec accepted")
	}
}

func TestParseExonSpec(t *testing.T) {
	exons, err := ParseExonSpec("0-6, 14-20 ,28-34")
	if err != nil || len(exons) != 3 || exons[1] != (gdt.Interval{Start: 14, End: 20}) {
		t.Errorf("ParseExonSpec = %v, %v", exons, err)
	}
	if got, _ := ParseExonSpec(""); got != nil {
		t.Errorf("empty spec = %v", got)
	}
	for _, bad := range []string{"5", "a-b", "1-2-3x"} {
		if _, err := ParseExonSpec(bad); err == nil && bad != "1-2-3x" {
			t.Errorf("ParseExonSpec(%q) succeeded", bad)
		}
	}
	if FormatExonSpec(exons) != "0-6,14-20,28-34" {
		t.Errorf("FormatExonSpec = %q", FormatExonSpec(exons))
	}
}

func TestUnpackKindMismatch(t *testing.T) {
	d, _ := db.OpenMemory(64)
	if err := Install(d, genops.NewKernel()); err != nil {
		t.Fatal(err)
	}
	udt, _ := d.UDTs.Get("dna")
	// Feeding a packed protein into the dna unpack must fail.
	buf := gdt.Protein{ID: "p"}.Pack()
	if _, err := udt.Unpack(buf); err == nil {
		t.Error("dna UDT accepted a protein buffer")
	}
}

func TestGenomicIndexWithAdapterContains(t *testing.T) {
	e := installed(t)
	mustExec(t, e, `CREATE TABLE frags (id string, f dna)`)
	mustExec(t, e, `INSERT INTO frags VALUES ('hit', dna('hit', 'AAAATTGCCATAGGAAAA'))`)
	mustExec(t, e, `INSERT INTO frags VALUES ('miss', dna('miss', 'CCCCCCCCCCCCCCCCCC'))`)
	mustExec(t, e, `CREATE GENOMIC INDEX ON frags (f) USING 8`)
	exp := mustExec(t, e, `EXPLAIN SELECT id FROM frags WHERE contains(f, 'ATTGCCATAGG')`)
	if !strings.Contains(exp.Plan(), "genomic index") {
		t.Errorf("plan = %q", exp.Plan())
	}
	r := mustExec(t, e, `SELECT id FROM frags WHERE contains(f, 'ATTGCCATAGG')`)
	if len(r.Rows) != 1 || r.Rows[0][0] != "hit" {
		t.Errorf("rows = %v", r.Rows)
	}
}

func TestResemblesThroughSQL(t *testing.T) {
	e := installed(t)
	mustExec(t, e, `CREATE TABLE a (id string, f dna)`)
	mustExec(t, e, `INSERT INTO a VALUES
		('x', dna('x', 'ACGTACGTACGTACGTACGT')),
		('y', dna('y', 'ACGTACGTACGTACGTACGT')),
		('z', dna('z', 'CCCCCCCCCCGGGGGGGGGG'))`)
	r := mustExec(t, e, `SELECT l.id, r.id FROM a l, a r WHERE resembles(l.f, r.f, 40) AND l.id < r.id`)
	if len(r.Rows) != 1 || r.Rows[0][0] != "x" || r.Rows[0][1] != "y" {
		t.Errorf("resembles rows = %v", r.Rows)
	}
}

func TestEveryUDTRoundTripsAndExtracts(t *testing.T) {
	d, _ := db.OpenMemory(64)
	if err := Install(d, genops.NewKernel()); err != nil {
		t.Fatal(err)
	}
	ns := seq.MustNucSeq(seq.AlphaDNA, "ATGAAACCC")
	rns := seq.MustNucSeq(seq.AlphaRNA, "AUGAAACCC")
	samples := map[string]struct {
		value   gdt.Value
		hasSeq  bool
		wantSeq string
	}{
		"nucleotide": {value: gdt.Nucleotide{Base: seq.G}},
		"dna":        {value: gdt.DNA{ID: "d", Seq: ns}, hasSeq: true, wantSeq: "ATGAAACCC"},
		"rna":        {value: gdt.RNA{ID: "r", Seq: rns}, hasSeq: true, wantSeq: "AUGAAACCC"},
		"primarytranscript": {
			value:  gdt.PrimaryTranscript{GeneID: "g", Seq: rns, Exons: []gdt.Interval{{Start: 0, End: 9}}},
			hasSeq: true, wantSeq: "AUGAAACCC"},
		"mrna":    {value: gdt.MRNA{GeneID: "g", Seq: rns}, hasSeq: true, wantSeq: "AUGAAACCC"},
		"protein": {value: gdt.Protein{ID: "p", Seq: seq.MustProtSeq("MK")}},
		"gene": {value: gdt.Gene{ID: "g", Seq: ns, Exons: []gdt.Interval{{Start: 0, End: 9}}},
			hasSeq: true, wantSeq: "ATGAAACCC"},
		"chromosome": {value: gdt.Chromosome{ID: "c", Name: "chr1", Seq: ns},
			hasSeq: true, wantSeq: "ATGAAACCC"},
		"genome":     {value: gdt.Genome{ID: "gn", Organism: "o", ChromosomeIDs: []string{"c"}}},
		"annotation": {value: gdt.Annotation{ID: "a", TargetID: "t", Text: "note"}},
	}
	for name, s := range samples {
		udt, ok := d.UDTs.Get(name)
		if !ok {
			t.Fatalf("UDT %s not registered", name)
		}
		if !udt.Check(s.value) {
			t.Errorf("%s: Check rejected its own value", name)
		}
		// Check rejects other kinds.
		if name != "dna" && udt.Check(gdt.MustDNA("x", "A")) {
			t.Errorf("%s: Check accepted a dna value", name)
		}
		packed, err := udt.Pack(s.value)
		if err != nil {
			t.Fatalf("%s: Pack: %v", name, err)
		}
		back, err := udt.Unpack(packed)
		if err != nil {
			t.Fatalf("%s: Unpack: %v", name, err)
		}
		if !gdt.Equal(back.(gdt.Value), s.value) {
			t.Errorf("%s: round-trip mismatch", name)
		}
		// Pack of a non-GDT fails.
		if _, err := udt.Pack("not a gdt"); err == nil {
			t.Errorf("%s: Pack accepted a string", name)
		}
		// Sequence extraction.
		if s.hasSeq {
			got, ok := udt.ExtractSeq(s.value)
			if !ok || got.String() != s.wantSeq {
				t.Errorf("%s: ExtractSeq = %q, %v", name, got.String(), ok)
			}
			if _, ok := udt.ExtractSeq("wrong type"); ok {
				t.Errorf("%s: ExtractSeq accepted a string", name)
			}
		} else if udt.ExtractSeq != nil {
			t.Errorf("%s: unexpected ExtractSeq", name)
		}
	}
}

func TestSortOfRuntimeAllKinds(t *testing.T) {
	cases := []struct {
		v    any
		want core.Sort
	}{
		{gdt.MustDNA("d", "A"), "dna"},
		{gdt.Protein{ID: "p"}, "protein"},
		{int64(1), core.SortInt},
		{1.5, core.SortFloat},
		{"s", core.SortString},
		{true, core.SortBool},
	}
	for _, c := range cases {
		got, err := sortOfRuntime(c.v)
		if err != nil || got != c.want {
			t.Errorf("sortOfRuntime(%T) = %v, %v", c.v, got, err)
		}
	}
	if _, err := sortOfRuntime([]byte("x")); err == nil {
		t.Error("bytes got a sort")
	}
	if _, err := sortOfRuntime(nil); err == nil {
		t.Error("nil got a sort")
	}
}

func TestRNAAndAnnotationColumnsThroughSQL(t *testing.T) {
	e := installed(t)
	mustExec(t, e, `CREATE TABLE transcripts (id string, r rna)`)
	mustExec(t, e, `INSERT INTO transcripts VALUES ('t1', rna('t1', 'AUGAAACCC'))`)
	r := mustExec(t, e, `SELECT length(r) FROM transcripts`)
	if r.Rows[0][0] != int64(9) {
		t.Errorf("rna length = %v", r.Rows[0])
	}
	mustExec(t, e, `CREATE TABLE notes (id string, a annotation)`)
	mustExec(t, e, `INSERT INTO notes VALUES ('n1', annotation('n1', 'SYN1', 5, 10, 'me', 'text'))`)
	rr := mustExec(t, e, `SELECT a FROM notes`)
	ann := rr.Rows[0][0].(gdt.Annotation)
	if ann.Span.Start != 5 || ann.Author != "me" {
		t.Errorf("annotation = %+v", ann)
	}
}

// TestGCContentDispatchAllocatesOnlyResult pins the cost of calling an
// algebra operation through its registered external function: overload
// resolution builds no key and the argument sorts stay on the stack, so the
// only allocation is boxing the float64 result.
func TestGCContentDispatchAllocatesOnlyResult(t *testing.T) {
	d, err := db.OpenMemory(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := Install(d, genops.NewKernel()); err != nil {
		t.Fatal(err)
	}
	fn, ok := d.Funcs.Get("gccontent")
	if !ok {
		t.Fatal("gccontent not registered")
	}
	args := []any{gdt.DNA{Seq: seq.MustNucSeq(seq.AlphaDNA, "ACGTGGCCATGCGCGTATAT")}}
	out, err := fn.Fn(args)
	if err != nil || out != 0.55 {
		t.Fatalf("gccontent = %v, %v; want 0.55", out, err)
	}
	if n := testing.AllocsPerRun(200, func() { _, _ = fn.Fn(args) }); n > 1 {
		t.Errorf("gccontent dispatch: %v allocations per call, want at most 1", n)
	}
	// An argument no overload accepts keeps its error text.
	_, err = fn.Fn([]any{"ACGT"})
	if want := `core: no overload of "gccontent" accepts (string)`; err == nil || err.Error() != want {
		t.Errorf("gccontent('ACGT') error = %v, want %q", err, want)
	}
}
