package wal

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the frame decoder. For any input it
// must not panic; re-encoding what it decoded must give back exactly the
// prefix it says it consumed; and bytes appended after that prefix must
// not change the transactions decoded from it.
func FuzzDecode(f *testing.F) {
	one := encodeFrame(1, []Record{{Type: RecInsert, Table: "t", Data: []byte("row")}})
	two := encodeFrame(2, []Record{
		{Type: RecDelete, Table: "frags", Data: []byte{0, 1, 2}},
		{Type: RecCreateTable, Data: []byte(`{"table":"x"}`)},
	})
	empty := encodeFrame(3, nil)
	stream := append(append(append([]byte{}, one...), two...), empty...)
	f.Add(stream, []byte{})
	f.Add(stream[:len(stream)-3], two)                // torn tail
	f.Add(append([]byte{}, one[:len(one)-1]...), one) // torn only frame
	corrupt := append([]byte{}, stream...)
	corrupt[len(one)+frameHdrLen+5] ^= 0xff // bad checksum in the second frame
	f.Add(corrupt, []byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{}, one)
	f.Fuzz(func(t *testing.T, data, tail []byte) {
		txns, n := Decode(data)
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		var re []byte
		for _, txn := range txns {
			re = append(re, encodeFrame(txn.Seq, txn.Records)...)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encoding %d txns gives %d bytes, decoder consumed %d", len(txns), len(re), n)
		}
		prefix := append([]byte{}, data[:n]...)
		again, m := Decode(prefix)
		if m != n || !reflect.DeepEqual(again, txns) {
			t.Fatalf("the consumed prefix alone decodes to %d txns over %d bytes, want %d over %d", len(again), m, len(txns), n)
		}
		longer, m := Decode(append(prefix, tail...))
		if m < n || len(longer) < len(txns) || len(txns) > 0 && !reflect.DeepEqual(longer[:len(txns)], txns) {
			t.Fatalf("appending %d bytes changed what the prefix decodes to", len(tail))
		}
	})
}
