package db

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"genalg/internal/gdt"
	"genalg/internal/seq"
	"genalg/internal/storage"
)

// dnaUDT registers the dna GDT as an opaque type, mirroring what the
// adapter package does in production.
func dnaUDT() UDT {
	return UDT{
		Name: "dna",
		Pack: func(v any) ([]byte, error) {
			d, ok := v.(gdt.DNA)
			if !ok {
				return nil, fmt.Errorf("not a dna value: %T", v)
			}
			return d.Pack(), nil
		},
		Unpack: func(buf []byte) (any, error) { return gdt.Unpack(buf) },
		Check:  func(v any) bool { _, ok := v.(gdt.DNA); return ok },
		ExtractSeq: func(v any) (seq.NucSeq, bool) {
			d, ok := v.(gdt.DNA)
			if !ok {
				return seq.NucSeq{}, false
			}
			return d.Seq, true
		},
	}
}

func testDB(t testing.TB) *DB {
	d, err := OpenMemory(512)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.UDTs.Register(dnaUDT()); err != nil {
		t.Fatal(err)
	}
	return d
}

func fragmentsSchema() Schema {
	return Schema{
		Table: "DNAFragments",
		Columns: []Column{
			{Name: "id", Type: TString, NotNull: true},
			{Name: "source", Type: TString},
			{Name: "quality", Type: TFloat},
			{Name: "fragment", Type: TOpaque, UDTName: "dna"},
		},
	}
}

func randDNA(seed int64, n int) seq.NucSeq {
	r := rand.New(rand.NewSource(seed))
	bases := make([]seq.Base, n)
	for i := range bases {
		bases[i] = seq.Base(r.Intn(4))
	}
	return seq.FromBases(seq.AlphaDNA, bases)
}

func TestCreateTableValidation(t *testing.T) {
	d := testDB(t)
	if _, err := d.CreateTable(Schema{}); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := d.CreateTable(Schema{Table: "t"}); err == nil {
		t.Error("zero-column table accepted")
	}
	if _, err := d.CreateTable(Schema{Table: "t", Columns: []Column{{Name: "a", Type: TInt}, {Name: "a", Type: TInt}}}); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := d.CreateTable(Schema{Table: "t", Columns: []Column{{Name: "x", Type: TOpaque, UDTName: "nosuch"}}}); err == nil {
		t.Error("unknown UDT accepted")
	}
	if _, err := d.CreateTable(fragmentsSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable(fragmentsSchema()); err == nil {
		t.Error("duplicate table accepted")
	}
	if got := d.Tables(); len(got) != 1 || got[0] != "DNAFragments" {
		t.Errorf("Tables = %v", got)
	}
}

func TestInsertGetRoundTrip(t *testing.T) {
	d := testDB(t)
	tbl, err := d.CreateTable(fragmentsSchema())
	if err != nil {
		t.Fatal(err)
	}
	frag := gdt.DNA{ID: "F1", Seq: randDNA(1, 200)}
	rid, err := tbl.Insert(Row{"F1", "genbank", 0.93, frag})
	if err != nil {
		t.Fatal(err)
	}
	row, err := tbl.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if row[0] != "F1" || row[1] != "genbank" || row[2] != 0.93 {
		t.Errorf("scalars = %v", row[:3])
	}
	got, ok := row[3].(gdt.DNA)
	if !ok || !gdt.Equal(got, frag) {
		t.Errorf("opaque round-trip failed: %T", row[3])
	}
}

func TestInsertTypeChecks(t *testing.T) {
	d := testDB(t)
	tbl, _ := d.CreateTable(fragmentsSchema())
	cases := []Row{
		{nil, "s", 1.0, nil},                  // NOT NULL violation
		{"F", "s", "not-a-float", nil},        // wrong scalar type
		{"F", "s", 1.0, "not-a-dna"},          // wrong opaque type
		{"F", "s"},                            // arity
		{"F", "s", 1.0, gdt.Protein{ID: "p"}}, // wrong GDT kind
	}
	for i, row := range cases {
		if _, err := tbl.Insert(row); err == nil {
			t.Errorf("case %d: bad row accepted", i)
		}
	}
	// NULLs allowed on nullable columns.
	if _, err := tbl.Insert(Row{"F", nil, nil, nil}); err != nil {
		t.Errorf("nullable row rejected: %v", err)
	}
}

func TestDeleteUpdateScan(t *testing.T) {
	d := testDB(t)
	tbl, _ := d.CreateTable(fragmentsSchema())
	var rids []storage.RID
	for i := 0; i < 50; i++ {
		rid, err := tbl.Insert(Row{fmt.Sprintf("F%02d", i), "src", float64(i), gdt.DNA{ID: "x", Seq: randDNA(int64(i), 50)}})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if tbl.RowCount() != 50 {
		t.Errorf("RowCount = %d", tbl.RowCount())
	}
	if err := tbl.Delete(rids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Get(rids[0]); err == nil {
		t.Error("deleted row readable")
	}
	newRID, err := tbl.Update(rids[1], Row{"F01-v2", "src2", 99.0, nil})
	if err != nil {
		t.Fatal(err)
	}
	row, _ := tbl.Get(newRID)
	if row[0] != "F01-v2" {
		t.Errorf("updated row = %v", row)
	}
	n := 0
	if err := tbl.Scan(nil, func(rid storage.RID, row Row) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 49 {
		t.Errorf("scan visited %d rows", n)
	}
}

func TestBTreeIndexLookupAndMaintenance(t *testing.T) {
	d := testDB(t)
	tbl, _ := d.CreateTable(fragmentsSchema())
	// Insert before creating the index to exercise backfill.
	for i := 0; i < 30; i++ {
		if _, err := tbl.Insert(Row{fmt.Sprintf("F%02d", i%10), "src", float64(i), nil}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CreateBTreeIndex("id"); err != nil {
		t.Fatal(err)
	}
	if !tbl.HasBTreeIndex("id") {
		t.Error("HasBTreeIndex false")
	}
	rids, err := tbl.IndexLookup("id", "F03")
	if err != nil || len(rids) != 3 {
		t.Errorf("IndexLookup = %d rids, %v", len(rids), err)
	}
	for _, rid := range rids {
		row, err := tbl.Get(rid)
		if err != nil || row[0] != "F03" {
			t.Errorf("index hit wrong row: %v, %v", row, err)
		}
	}
	// Maintenance under insert and delete.
	rid, _ := tbl.Insert(Row{"F99", "src", 1.0, nil})
	rids, _ = tbl.IndexLookup("id", "F99")
	if len(rids) != 1 {
		t.Errorf("index missed new row: %v", rids)
	}
	tbl.Delete(rid)
	rids, _ = tbl.IndexLookup("id", "F99")
	if len(rids) != 0 {
		t.Errorf("index kept deleted row: %v", rids)
	}
	// Errors.
	if err := tbl.CreateBTreeIndex("id"); err == nil {
		t.Error("duplicate index accepted")
	}
	if err := tbl.CreateBTreeIndex("nosuch"); err == nil {
		t.Error("index on missing column accepted")
	}
	if err := tbl.CreateBTreeIndex("fragment"); err == nil {
		t.Error("B-tree on opaque column accepted")
	}
	if _, err := tbl.IndexLookup("quality", 1.0); err == nil {
		t.Error("lookup on unindexed column succeeded")
	}
}

func TestIndexRange(t *testing.T) {
	d := testDB(t)
	tbl, _ := d.CreateTable(Schema{Table: "nums", Columns: []Column{{Name: "n", Type: TInt}}})
	for i := -50; i < 50; i++ {
		if _, err := tbl.Insert(Row{int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CreateBTreeIndex("n"); err != nil {
		t.Fatal(err)
	}
	rids, err := tbl.IndexRange("n", int64(-5), int64(5))
	if err != nil || len(rids) != 11 {
		t.Errorf("range = %d rids, %v", len(rids), err)
	}
	// Negative ints order correctly (order-preserving key encoding).
	rids, _ = tbl.IndexRange("n", nil, int64(-45))
	if len(rids) != 6 {
		t.Errorf("unbounded-low range = %d", len(rids))
	}
}

// A lookup value of the wrong Go type is an error, never a panic.
func TestIndexLookupWrongTypeErrors(t *testing.T) {
	d := testDB(t)
	tbl, _ := d.CreateTable(Schema{Table: "typed", Columns: []Column{
		{Name: "i", Type: TInt}, {Name: "f", Type: TFloat}, {Name: "s", Type: TString}, {Name: "b", Type: TBool},
	}})
	if _, err := tbl.Insert(Row{int64(1), 1.5, "x", true}); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"i", "f", "s", "b"} {
		if err := tbl.CreateBTreeIndex(col); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		col  string
		val  any
		want string
	}{
		{"i", "x", "db: index key for int column: got string"},
		{"f", int64(1), "db: index key for float column: got int64"},
		{"s", 1.5, "db: index key for string column: got float64"},
		{"b", "true", "db: index key for bool column: got string"},
	} {
		_, err := tbl.IndexLookup(c.col, c.val)
		if err == nil || err.Error() != c.want {
			t.Errorf("IndexLookup(%q, %#v) = %v, want %q", c.col, c.val, err, c.want)
		}
		if _, err := tbl.IndexRange(c.col, c.val, nil); err == nil {
			t.Errorf("IndexRange(%q, %#v) accepted a mistyped bound", c.col, c.val)
		}
	}
}

func TestFloatIndexKeyOrdering(t *testing.T) {
	vals := []float64{-100.5, -1, -0.001, 0, 0.001, 1, 2.5, 1e9}
	var prev []byte
	for i, v := range vals {
		key, err := IndexKey(TFloat, v)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && string(prev) >= string(key) {
			t.Errorf("float key order broken at %v", v)
		}
		prev = key
	}
}

func TestIntIndexKeyOrderingProperty(t *testing.T) {
	f := func(a, b int64) bool {
		ka, _ := IndexKey(TInt, a)
		kb, _ := IndexKey(TInt, b)
		return (a < b) == (string(ka) < string(kb)) || a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGenomicIndex(t *testing.T) {
	d := testDB(t)
	tbl, _ := d.CreateTable(fragmentsSchema())
	seqs := make([]seq.NucSeq, 20)
	for i := range seqs {
		seqs[i] = randDNA(int64(i+100), 300)
		if _, err := tbl.Insert(Row{fmt.Sprintf("F%02d", i), "src", 1.0, gdt.DNA{ID: fmt.Sprintf("F%02d", i), Seq: seqs[i]}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CreateGenomicIndex("fragment", 8); err != nil {
		t.Fatal(err)
	}
	if !tbl.HasGenomicIndex("fragment") {
		t.Error("HasGenomicIndex false")
	}
	// Pattern from doc 7 must hit exactly the rows containing it.
	pat := seqs[7].Slice(100, 140).String()
	rids, err := tbl.GenomicLookup("fragment", pat)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) == 0 {
		t.Fatal("no genomic hits")
	}
	for _, rid := range rids {
		row, _ := tbl.Get(rid)
		frag := row[3].(gdt.DNA)
		if !frag.Seq.Contains(seq.MustNucSeq(seq.AlphaDNA, pat)) {
			t.Errorf("false positive row %v", row[0])
		}
	}
	// Index maintenance on delete.
	tbl.Delete(rids[0])
	rids2, err := tbl.GenomicLookup("fragment", pat)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids2) != len(rids)-1 {
		t.Errorf("genomic index kept deleted row: %d vs %d", len(rids2), len(rids))
	}
	// Errors.
	if err := tbl.CreateGenomicIndex("id", 8); err == nil {
		t.Error("genomic index on scalar column accepted")
	}
	if err := tbl.CreateGenomicIndex("fragment", 8); err == nil {
		t.Error("duplicate genomic index accepted")
	}
	if _, err := tbl.GenomicLookup("id", "ACGTACGT"); err == nil {
		t.Error("lookup without index succeeded")
	}
}

func TestNullHandlingInIndexes(t *testing.T) {
	d := testDB(t)
	tbl, _ := d.CreateTable(fragmentsSchema())
	tbl.Insert(Row{"F1", nil, nil, nil})
	tbl.Insert(Row{"F2", "src", 1.0, nil})
	if err := tbl.CreateBTreeIndex("source"); err != nil {
		t.Fatal(err)
	}
	rids, err := tbl.IndexLookup("source", nil)
	if err != nil || len(rids) != 1 {
		t.Errorf("NULL lookup = %v, %v", rids, err)
	}
	// Genomic index skips NULL fragments.
	if err := tbl.CreateGenomicIndex("fragment", 8); err != nil {
		t.Fatal(err)
	}
}

func TestDropTable(t *testing.T) {
	d := testDB(t)
	d.CreateTable(fragmentsSchema())
	if err := d.DropTable("DNAFragments"); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Table("DNAFragments"); ok {
		t.Error("dropped table still visible")
	}
	if err := d.DropTable("DNAFragments"); err == nil {
		t.Error("double drop succeeded")
	}
}

func TestRowCodecProperty(t *testing.T) {
	d := testDB(t)
	schema := Schema{Table: "t", Columns: []Column{
		{Name: "i", Type: TInt},
		{Name: "f", Type: TFloat},
		{Name: "s", Type: TString},
		{Name: "b", Type: TBool},
		{Name: "y", Type: TBytes},
	}}
	f := func(i int64, fl float64, s string, b bool, y []byte) bool {
		row := Row{i, fl, s, b, y}
		buf, err := EncodeRow(&schema, d.UDTs, row)
		if err != nil {
			return false
		}
		got, err := DecodeRow(&schema, d.UDTs, buf, nil)
		if err != nil {
			return false
		}
		if got[0] != i || got[2] != s || got[3] != b {
			return false
		}
		// Float: NaN != NaN, compare bitwise via string of encode.
		gf := got[1].(float64)
		if !(gf == fl || (gf != gf && fl != fl)) {
			return false
		}
		gy := got[4].([]byte)
		return string(gy) == string(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestKeepColumns: a KeepColumns map decodes the kept columns in the
// order named, and one that keeps nothing decodes an empty row.
func TestKeepColumns(t *testing.T) {
	d := testDB(t)
	schema := fragmentsSchema()
	buf, err := EncodeRow(&schema, d.UDTs, Row{"f1", "genbank", 0.5, gdt.DNA{Seq: randDNA(1, 40)}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRow(&schema, d.UDTs, buf, KeepColumns(4, 2, 0))
	if err != nil || len(got) != 2 || got[0] != 0.5 || got[1] != "f1" {
		t.Fatalf("keep (quality, id) = %v, %v", got, err)
	}
	got, err = DecodeRow(&schema, d.UDTs, buf, KeepColumns(4))
	if err != nil || len(got) != 0 {
		t.Fatalf("keep nothing = %v, %v", got, err)
	}
}

func TestDecodeRowRejectsCorrupt(t *testing.T) {
	d := testDB(t)
	schema := fragmentsSchema()
	row := Row{"F1", "src", 1.5, gdt.DNA{ID: "F1", Seq: randDNA(1, 40)}}
	buf, err := EncodeRow(&schema, d.UDTs, row)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, 3, len(buf) / 2, len(buf) - 1} {
		_, err := DecodeRow(&schema, d.UDTs, buf[:cut], nil)
		if err == nil {
			t.Errorf("truncation at %d accepted", cut)
			continue
		}
		// Skipped columns are still bounds-checked: every map reports
		// the same truncation.
		for _, cols := range [][]int{{-1, -1, -1, -1}, {0, -1, -1, -1}, {-1, -1, 1, 0}} {
			if _, merr := DecodeRow(&schema, d.UDTs, buf[:cut], cols); merr == nil || merr.Error() != err.Error() {
				t.Errorf("truncation at %d under map %v: %v, want %v", cut, cols, merr, err)
			}
		}
	}
	// Wrong schema arity, and a map of the wrong length.
	short := Schema{Table: "t", Columns: schema.Columns[:2]}
	if _, err := DecodeRow(&short, d.UDTs, buf, nil); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := DecodeRow(&schema, d.UDTs, buf, []int{0, 1}); err == nil {
		t.Error("short column map accepted")
	}
	if _, err := DecodeRow(&schema, d.UDTs, buf, []int{0, 1, 2, 4}); err == nil {
		t.Error("column map position past the schema accepted")
	}
	// A length prefix past the int range, and a row cut right after a
	// bool's null flag, fail rather than panic.
	huge := append(binary.AppendUvarint([]byte{1, 0}, 1<<63|5), "abcde"...)
	if _, err := DecodeRow(&Schema{Table: "t", Columns: []Column{{Name: "s", Type: TString}}}, d.UDTs, huge, nil); err == nil {
		t.Error("overflowing length prefix accepted")
	}
	if _, err := DecodeRow(&Schema{Table: "t", Columns: []Column{{Name: "b", Type: TBool}}}, d.UDTs, []byte{1, 0}, nil); err == nil {
		t.Error("bool cut after its null flag accepted")
	}
}

func TestLargeOpaqueValuesSpillToBlobs(t *testing.T) {
	d := testDB(t)
	tbl, _ := d.CreateTable(fragmentsSchema())
	// A 100kb sequence exceeds a page by far.
	big := gdt.DNA{ID: "BIG", Seq: randDNA(9, 100000)}
	rid, err := tbl.Insert(Row{"BIG", "src", 1.0, big})
	if err != nil {
		t.Fatal(err)
	}
	row, err := tbl.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	got := row[3].(gdt.DNA)
	if got.Seq.Len() != 100000 || !got.Seq.Equal(big.Seq) {
		t.Error("big opaque value corrupted")
	}
}

func TestUDTRegistryValidation(t *testing.T) {
	r := NewUDTRegistry()
	if err := r.Register(UDT{Name: "x"}); err == nil {
		t.Error("incomplete UDT accepted")
	}
	if err := r.Register(dnaUDT()); err != nil {
		t.Fatal(err)
	}
	if got := r.Names(); len(got) != 1 || got[0] != "dna" {
		t.Errorf("Names = %v", got)
	}
}

func TestFuncRegistry(t *testing.T) {
	r := NewFuncRegistry()
	if err := r.Register(ExternalFunc{Name: "f"}); err == nil {
		t.Error("function without Fn accepted")
	}
	err := r.Register(ExternalFunc{Name: "f", NArgs: 1, Fn: func(a []any) (any, error) { return a[0], nil }})
	if err != nil {
		t.Fatal(err)
	}
	f, ok := r.Get("f")
	if !ok || f.NArgs != 1 {
		t.Errorf("Get = %+v, %v", f, ok)
	}
	if got := r.Names(); len(got) != 1 {
		t.Errorf("Names = %v", got)
	}
}

func TestConcurrentReadersWithWriter(t *testing.T) {
	d := testDB(t)
	tbl, _ := d.CreateTable(fragmentsSchema())
	for i := 0; i < 100; i++ {
		tbl.Insert(Row{fmt.Sprintf("F%03d", i), "src", 1.0, nil})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 100; i < 200; i++ {
			if _, err := tbl.Insert(Row{fmt.Sprintf("F%03d", i), "src", 1.0, nil}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		n := 0
		if err := tbl.Scan(nil, func(rid storage.RID, row Row) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n < 100 {
			t.Fatalf("scan saw %d rows", n)
		}
	}
	<-done
}

func BenchmarkInsertScalarRows(b *testing.B) {
	d, _ := OpenMemory(4096)
	tbl, _ := d.CreateTable(Schema{Table: "t", Columns: []Column{
		{Name: "id", Type: TString}, {Name: "n", Type: TInt}}})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Insert(Row{fmt.Sprintf("row%d", i), int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScan10k(b *testing.B) {
	d, _ := OpenMemory(4096)
	tbl, _ := d.CreateTable(Schema{Table: "t", Columns: []Column{
		{Name: "id", Type: TString}, {Name: "n", Type: TInt}}})
	for i := 0; i < 10000; i++ {
		tbl.Insert(Row{fmt.Sprintf("row%d", i), int64(i)})
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		tbl.Scan(nil, func(rid storage.RID, row Row) bool { n++; return true })
	}
}

func TestVacuumReclaimsAndPreserves(t *testing.T) {
	d := testDB(t)
	tbl, _ := d.CreateTable(fragmentsSchema())
	var rids []storage.RID
	for i := 0; i < 60; i++ {
		rid, err := tbl.Insert(Row{fmt.Sprintf("F%02d", i), "src", float64(i),
			gdt.DNA{ID: fmt.Sprintf("F%02d", i), Seq: randDNA(int64(i), 120)}})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := tbl.CreateBTreeIndex("id"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateGenomicIndex("fragment", 8); err != nil {
		t.Fatal(err)
	}
	// Delete two thirds.
	for i, rid := range rids {
		if i%3 != 0 {
			if err := tbl.Delete(rid); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tbl.Vacuum(); err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount() != 20 {
		t.Errorf("RowCount after vacuum = %d", tbl.RowCount())
	}
	// Indexes rebuilt and consistent.
	hits, err := tbl.IndexLookup("id", "F03")
	if err != nil || len(hits) != 1 {
		t.Errorf("btree after vacuum = %v, %v", hits, err)
	}
	row, err := tbl.Get(hits[0])
	if err != nil || row[0] != "F03" {
		t.Errorf("row after vacuum = %v, %v", row, err)
	}
	frag := row[3].(gdt.DNA)
	pat := frag.Seq.Slice(20, 50).String()
	ghits, err := tbl.GenomicLookup("fragment", pat)
	if err != nil || len(ghits) == 0 {
		t.Errorf("genomic index after vacuum = %v, %v", ghits, err)
	}
	// New inserts continue to work.
	if _, err := tbl.Insert(Row{"NEW", "src", 0.0, nil}); err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount() != 21 {
		t.Errorf("RowCount after post-vacuum insert = %d", tbl.RowCount())
	}
}
