package db

import (
	"math"
	"reflect"
	"testing"

	"genalg/internal/gdt"
)

// everyTypeSchema has one column of every ColType.
func everyTypeSchema() Schema {
	return Schema{Table: "every", Columns: []Column{
		{Name: "i", Type: TInt},
		{Name: "f", Type: TFloat},
		{Name: "s", Type: TString},
		{Name: "b", Type: TBool},
		{Name: "y", Type: TBytes},
		{Name: "d", Type: TOpaque, UDTName: "dna"},
	}}
}

// denseMap builds the column map the executor builds: the columns whose
// bit is set in keep, at consecutive positions in schema order (or in
// reverse order when rev is set); the rest skipped.
func denseMap(n int, keep uint8, rev bool) []int {
	cols := make([]int, n)
	kept := 0
	for i := range cols {
		cols[i] = -1
		if keep&(1<<uint(i)) != 0 {
			cols[i] = kept
			kept++
		}
	}
	if rev {
		for i, p := range cols {
			if p >= 0 {
				cols[i] = kept - 1 - p
			}
		}
	}
	return cols
}

// sameValue is value equality with NaN equal to itself.
func sameValue(a, b any) bool {
	fa, oka := a.(float64)
	fb, okb := b.(float64)
	if oka && okb {
		return math.Float64bits(fa) == math.Float64bits(fb) || (fa != fa && fb != fb)
	}
	return reflect.DeepEqual(a, b)
}

// FuzzDecodeRow checks the column-mapped decoder against the full one:
// for any bytes and any column map DecodeRow never panics, and whenever
// the full decode succeeds, a mapped decode succeeds too and holds the
// full row's value at every kept position.
func FuzzDecodeRow(f *testing.F) {
	reg := NewUDTRegistry()
	if err := reg.Register(dnaUDT()); err != nil {
		f.Fatal(err)
	}
	schema := everyTypeSchema()
	dna, err := gdt.NewDNA("F1", "ACGTTGCAACGTAAGGCCTT")
	if err != nil {
		f.Fatal(err)
	}
	for _, row := range []Row{
		{int64(-7), 2.5, "abc", true, []byte{0, 1, 2}, dna},
		{nil, nil, nil, nil, nil, nil},
		{int64(1 << 40), math.NaN(), "", false, []byte{}, nil},
		{nil, math.Inf(-1), "ünï", nil, nil, dna},
	} {
		buf, err := EncodeRow(&schema, reg, row)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf, uint8(0x3f), false, []byte{})
		f.Add(buf, uint8(0x21), true, []byte{0xff, 0, 0xff, 1, 0xff, 0xff})
		f.Add(buf[:len(buf)-1], uint8(0x10), false, []byte{5, 4, 3, 2, 1, 0})
	}
	f.Fuzz(func(t *testing.T, buf []byte, keep uint8, rev bool, raw []byte) {
		// Any map at all: out-of-range, duplicate and negative positions,
		// and a wrong length, must fail cleanly or decode, never panic.
		rawMap := make([]int, len(raw))
		for i, b := range raw {
			rawMap[i] = int(int8(b))
		}
		_, _ = DecodeRow(&schema, reg, buf, rawMap)

		full, err := DecodeRow(&schema, reg, buf, nil)
		cols := denseMap(len(schema.Columns), keep, rev)
		got, merr := DecodeRow(&schema, reg, buf, cols)
		if err != nil {
			return
		}
		if merr != nil {
			t.Fatalf("full decode succeeds, map %v fails: %v", cols, merr)
		}
		width := 0
		for i, p := range cols {
			if p < 0 {
				continue
			}
			width++
			if !sameValue(full[i], got[p]) {
				t.Fatalf("column %d: mapped decode %#v, full decode %#v", i, got[p], full[i])
			}
		}
		if len(got) != width {
			t.Fatalf("mapped row has %d values, map keeps %d", len(got), width)
		}
	})
}
