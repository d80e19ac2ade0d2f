// Package db implements the extensible relational engine hosting the
// Unifying Database (paper Sections 5 and 6.2): tables of typed rows stored
// in heap files, B-tree and genomic (k-mer) secondary indexes, and — the
// crux of the paper's integration story — opaque user-defined types (UDTs)
// whose internal structure the engine does not know. GDT values plug in as
// opaque attribute types exactly as Section 6.2 prescribes: "tuples ...
// only serve as containers for storing genomic values".
package db

import (
	"encoding/binary"
	"fmt"
	"math"

	"genalg/internal/seq"
)

// ColType is the type of a column.
type ColType uint8

// Column types. Opaque columns additionally name their UDT.
const (
	TInt ColType = iota
	TFloat
	TString
	TBool
	TBytes
	TOpaque
)

// String implements fmt.Stringer.
func (t ColType) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TString:
		return "string"
	case TBool:
		return "bool"
	case TBytes:
		return "bytes"
	case TOpaque:
		return "opaque"
	}
	return fmt.Sprintf("coltype(%d)", uint8(t))
}

// UDT describes an opaque user-defined type: the engine can (de)serialize
// and type-check values only through these callbacks, never looking inside
// (paper Section 6.2's opaque types).
type UDT struct {
	// Name is the type name used in schemas, e.g. "dna" or "gene".
	Name string
	// Pack serializes a value to its flat byte form.
	Pack func(v any) ([]byte, error)
	// Unpack deserializes.
	Unpack func(buf []byte) (any, error)
	// Check reports whether v belongs to the type.
	Check func(v any) bool
	// ExtractSeq optionally exposes a nucleotide sequence inside the value
	// for genomic indexing; nil when the type is not sequence-bearing.
	ExtractSeq func(v any) (seq.NucSeq, bool)
}

// Column is one schema column.
type Column struct {
	Name string
	Type ColType
	// UDTName names the opaque type for TOpaque columns.
	UDTName string
	// NotNull forbids NULL values.
	NotNull bool
}

// Schema is an ordered column list.
type Schema struct {
	Table   string
	Columns []Column
}

// ColIndex returns the position of a column by name, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// KeepColumns builds a DecodeRow column map for a schema of ncols columns
// that keeps the schema columns keep, in that order, at positions 0, 1,
// ... and skips the rest. With no keep it keeps nothing, for scans that
// only want RIDs.
func KeepColumns(ncols int, keep ...int) []int {
	cols := make([]int, ncols)
	for i := range cols {
		cols[i] = -1
	}
	for pos, ci := range keep {
		cols[ci] = pos
	}
	return cols
}

// Row is a tuple of values parallel to the schema columns. nil means NULL.
// Value representations: TInt -> int64, TFloat -> float64, TString ->
// string, TBool -> bool, TBytes -> []byte, TOpaque -> the UDT's Go value.
type Row []any

// typeCheck validates a value against a column, resolving UDTs from reg.
func typeCheck(c Column, v any, reg *UDTRegistry) error {
	if v == nil {
		if c.NotNull {
			return fmt.Errorf("db: column %s is NOT NULL", c.Name)
		}
		return nil
	}
	switch c.Type {
	case TInt:
		if _, ok := v.(int64); !ok {
			return fmt.Errorf("db: column %s expects int64, got %T", c.Name, v)
		}
	case TFloat:
		if _, ok := v.(float64); !ok {
			return fmt.Errorf("db: column %s expects float64, got %T", c.Name, v)
		}
	case TString:
		if _, ok := v.(string); !ok {
			return fmt.Errorf("db: column %s expects string, got %T", c.Name, v)
		}
	case TBool:
		if _, ok := v.(bool); !ok {
			return fmt.Errorf("db: column %s expects bool, got %T", c.Name, v)
		}
	case TBytes:
		if _, ok := v.([]byte); !ok {
			return fmt.Errorf("db: column %s expects []byte, got %T", c.Name, v)
		}
	case TOpaque:
		udt, ok := reg.Get(c.UDTName)
		if !ok {
			return fmt.Errorf("db: column %s references unknown UDT %q", c.Name, c.UDTName)
		}
		if !udt.Check(v) {
			return fmt.Errorf("db: column %s: value %T is not a %s", c.Name, v, c.UDTName)
		}
	default:
		return fmt.Errorf("db: column %s has invalid type %v", c.Name, c.Type)
	}
	return nil
}

// EncodeRow serializes a row against the schema.
//
// Layout: uvarint column count, then per column a 1-byte null flag followed
// (when non-null) by the typed encoding: zigzag varint for ints, 8-byte LE
// float, length-prefixed bytes for strings/bytes/opaque payloads, 1 byte
// for bools.
func EncodeRow(s *Schema, reg *UDTRegistry, row Row) ([]byte, error) {
	if len(row) != len(s.Columns) {
		return nil, fmt.Errorf("db: row has %d values, schema %s has %d columns", len(row), s.Table, len(s.Columns))
	}
	buf := binary.AppendUvarint(nil, uint64(len(row)))
	for i, c := range s.Columns {
		v := row[i]
		if err := typeCheck(c, v, reg); err != nil {
			return nil, err
		}
		if v == nil {
			buf = append(buf, 1)
			continue
		}
		buf = append(buf, 0)
		switch c.Type {
		case TInt:
			buf = binary.AppendVarint(buf, v.(int64))
		case TFloat:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.(float64)))
		case TString:
			sv := v.(string)
			buf = binary.AppendUvarint(buf, uint64(len(sv)))
			buf = append(buf, sv...)
		case TBool:
			if v.(bool) {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		case TBytes:
			bv := v.([]byte)
			buf = binary.AppendUvarint(buf, uint64(len(bv)))
			buf = append(buf, bv...)
		case TOpaque:
			udt, _ := reg.Get(c.UDTName)
			packed, err := udt.Pack(v)
			if err != nil {
				return nil, fmt.Errorf("db: packing %s value for column %s: %w", c.UDTName, c.Name, err)
			}
			buf = binary.AppendUvarint(buf, uint64(len(packed)))
			buf = append(buf, packed...)
		}
	}
	return buf, nil
}

// DecodeRow deserializes a row. cols is the column map: for each schema
// column, its position in the returned row (below the column count), or a
// negative value to skip it. The returned row is as wide as the largest
// kept position plus one; a map that keeps nothing yields an empty row. A
// nil map keeps every column in schema order, so DecodeRow(s, reg, buf,
// nil) is the whole row.
//
// A skipped column is stepped over by its fixed width or length prefix:
// it is never boxed, copied or unpacked, but its bounds are still checked,
// so a truncated row fails with the same error under any map.
func DecodeRow(s *Schema, reg *UDTRegistry, buf []byte, cols []int) (Row, error) {
	n, off := binary.Uvarint(buf)
	if off <= 0 {
		return nil, fmt.Errorf("db: truncated row header")
	}
	if n != uint64(len(s.Columns)) {
		return nil, fmt.Errorf("db: row has %d columns, schema %s has %d", n, s.Table, len(s.Columns))
	}
	width := len(s.Columns)
	if cols != nil {
		if len(cols) != len(s.Columns) {
			return nil, fmt.Errorf("db: column map has %d entries, schema %s has %d columns", len(cols), s.Table, len(s.Columns))
		}
		width = 0
		for _, p := range cols {
			if p >= len(cols) {
				return nil, fmt.Errorf("db: column map position %d out of range for schema %s", p, s.Table)
			}
			width = max(width, p+1)
		}
	}
	pos := off
	row := make(Row, width)
	readLen := func() (int, error) {
		l, m := binary.Uvarint(buf[pos:])
		if m <= 0 || l > uint64(len(buf)-pos-m) {
			return 0, fmt.Errorf("db: truncated length at offset %d", pos)
		}
		pos += m
		return int(l), nil
	}
	for i, c := range s.Columns {
		if pos >= len(buf) {
			return nil, fmt.Errorf("db: truncated row at column %s", c.Name)
		}
		out := i
		if cols != nil {
			out = cols[i]
		}
		isNull := buf[pos] == 1
		pos++
		if isNull {
			continue
		}
		switch c.Type {
		case TInt:
			v, m := binary.Varint(buf[pos:])
			if m <= 0 {
				return nil, fmt.Errorf("db: truncated int at column %s", c.Name)
			}
			pos += m
			if out >= 0 {
				row[out] = v
			}
		case TFloat:
			if pos+8 > len(buf) {
				return nil, fmt.Errorf("db: truncated float at column %s", c.Name)
			}
			if out >= 0 {
				row[out] = math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))
			}
			pos += 8
		case TString:
			l, err := readLen()
			if err != nil {
				return nil, err
			}
			if out >= 0 {
				row[out] = string(buf[pos : pos+l])
			}
			pos += l
		case TBool:
			if pos >= len(buf) {
				return nil, fmt.Errorf("db: truncated bool at column %s", c.Name)
			}
			if out >= 0 {
				row[out] = buf[pos] == 1
			}
			pos++
		case TBytes:
			l, err := readLen()
			if err != nil {
				return nil, err
			}
			if out >= 0 {
				b := make([]byte, l)
				copy(b, buf[pos:pos+l])
				row[out] = b
			}
			pos += l
		case TOpaque:
			l, err := readLen()
			if err != nil {
				return nil, err
			}
			if out >= 0 {
				udt, ok := reg.Get(c.UDTName)
				if !ok {
					return nil, fmt.Errorf("db: column %s references unknown UDT %q", c.Name, c.UDTName)
				}
				v, err := udt.Unpack(buf[pos : pos+l])
				if err != nil {
					return nil, fmt.Errorf("db: unpacking %s value for column %s: %w", c.UDTName, c.Name, err)
				}
				row[out] = v
			}
			pos += l
		}
	}
	return row, nil
}

// IndexKey encodes a scalar value into a byte-comparable key for the B-tree
// (memcmp order matches value order within each type).
func IndexKey(t ColType, v any) ([]byte, error) {
	if v == nil {
		return []byte{0}, nil // NULLs sort first under a 0 tag
	}
	switch t {
	case TInt:
		iv := v.(int64)
		var b [9]byte
		b[0] = 1
		binary.BigEndian.PutUint64(b[1:], uint64(iv)^(1<<63)) // order-preserving bias
		return b[:], nil
	case TFloat:
		fv := v.(float64)
		bits := math.Float64bits(fv)
		if fv >= 0 {
			bits ^= 1 << 63
		} else {
			bits = ^bits
		}
		var b [9]byte
		b[0] = 1
		binary.BigEndian.PutUint64(b[1:], bits)
		return b[:], nil
	case TString:
		return append([]byte{1}, v.(string)...), nil
	case TBool:
		if v.(bool) {
			return []byte{1, 1}, nil
		}
		return []byte{1, 0}, nil
	case TBytes:
		return append([]byte{1}, v.([]byte)...), nil
	}
	return nil, fmt.Errorf("db: type %v is not indexable with a B-tree", t)
}
