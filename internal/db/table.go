package db

import (
	"context"
	"fmt"
	"sync"

	"genalg/internal/btree"
	"genalg/internal/kmeridx"
	"genalg/internal/parallel"
	"genalg/internal/seq"
	"genalg/internal/storage"
)

// ridToU64 packs a RID for index payloads.
func ridToU64(rid storage.RID) uint64 {
	return uint64(rid.Page)<<16 | uint64(uint16(rid.Slot))
}

func u64ToRID(v uint64) storage.RID {
	return storage.RID{Page: storage.PageID(v >> 16), Slot: int(uint16(v))}
}

// Table is a stored relation: a heap file of encoded rows plus secondary
// indexes. All operations are safe for concurrent use under a single-writer
// multiple-reader discipline.
type Table struct {
	schema Schema
	reg    *UDTRegistry

	mu   sync.RWMutex
	heap *storage.HeapFile
	// btrees maps column name to its B-tree index.
	btrees map[string]*btree.Tree
	// kmers maps column name to its genomic index.
	kmers map[string]*kmeridx.Index
	rows  int
}

// Schema returns a copy of the table schema.
func (t *Table) Schema() Schema {
	cols := make([]Column, len(t.schema.Columns))
	copy(cols, t.schema.Columns)
	return Schema{Table: t.schema.Table, Columns: cols}
}

// RowCount returns the number of live rows.
func (t *Table) RowCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// Insert appends a row, maintaining all indexes, and returns its RID.
func (t *Table) Insert(row Row) (storage.RID, error) {
	buf, err := EncodeRow(&t.schema, t.reg, row)
	if err != nil {
		return storage.RID{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insertRawLocked(buf, row)
}

// insertRawLocked stores pre-encoded row bytes and indexes the decoded
// row. It is the shared core of Insert, WAL replay, and the DML undo path.
func (t *Table) insertRawLocked(raw []byte, row Row) (storage.RID, error) {
	rid, err := t.heap.Insert(raw)
	if err != nil {
		return storage.RID{}, err
	}
	if err := t.indexRowLocked(rid, row, true); err != nil {
		return storage.RID{}, err
	}
	t.rows++
	return rid, nil
}

// indexRowLocked adds (add=true) or removes a row from every index.
func (t *Table) indexRowLocked(rid storage.RID, row Row, add bool) error {
	for col, tree := range t.btrees {
		ci := t.schema.ColIndex(col)
		key, err := IndexKey(t.schema.Columns[ci].Type, row[ci])
		if err != nil {
			return err
		}
		if add {
			tree.Insert(key, ridToU64(rid))
		} else {
			tree.Delete(key, ridToU64(rid))
		}
	}
	for col, ix := range t.kmers {
		ci := t.schema.ColIndex(col)
		if row[ci] == nil {
			continue
		}
		udt, _ := t.reg.Get(t.schema.Columns[ci].UDTName)
		if udt.ExtractSeq == nil {
			continue
		}
		s, ok := udt.ExtractSeq(row[ci])
		if !ok {
			continue
		}
		if add {
			if err := ix.Add(kmeridx.DocID(ridToU64(rid)), s); err != nil {
				return err
			}
		} else {
			ix.Remove(kmeridx.DocID(ridToU64(rid)), s)
		}
	}
	return nil
}

// Get fetches the row at rid, decoding the columns the column map cols
// keeps (see DecodeRow). Omitted or nil, cols keeps the whole row, so
// Get(rid) is the full decode.
func (t *Table) Get(rid storage.RID, cols ...int) (Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	buf, err := t.heap.Get(rid)
	if err != nil {
		return nil, err
	}
	return DecodeRow(&t.schema, t.reg, buf, cols)
}

// Delete removes the row at rid and de-indexes it.
func (t *Table) Delete(rid storage.RID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, _, err := t.deleteLocked(rid)
	return err
}

// deleteLocked removes the row at rid, returning its stored bytes and
// decoded form so callers (WAL logging, the DML undo path) can restore or
// re-log it.
func (t *Table) deleteLocked(rid storage.RID) ([]byte, Row, error) {
	buf, err := t.heap.Get(rid)
	if err != nil {
		return nil, nil, err
	}
	row, err := DecodeRow(&t.schema, t.reg, buf, nil)
	if err != nil {
		return nil, nil, err
	}
	if err := t.heap.Delete(rid); err != nil {
		return nil, nil, err
	}
	if err := t.indexRowLocked(rid, row, false); err != nil {
		return nil, nil, err
	}
	t.rows--
	return buf, row, nil
}

// Update replaces the row at rid, returning the new RID.
func (t *Table) Update(rid storage.RID, row Row) (storage.RID, error) {
	if err := t.Delete(rid); err != nil {
		return storage.RID{}, err
	}
	return t.Insert(row)
}

// Scan calls fn for every live row, decoded under the column map cols
// (see DecodeRow; nil is the whole row). Returning false stops the scan.
// The row is freshly decoded per call and may be retained.
func (t *Table) Scan(cols []int, fn func(rid storage.RID, row Row) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var derr error
	err := t.heap.Scan(func(rid storage.RID, rec []byte) bool {
		row, err := DecodeRow(&t.schema, t.reg, rec, cols)
		if err != nil {
			derr = err
			return false
		}
		return fn(rid, row)
	})
	if derr != nil {
		return derr
	}
	return err
}

// ScanShard scans the shard-th of shards contiguous page ranges of the
// heap, calling fn for every live row in that range in heap order,
// decoded under the column map cols as in Scan. Shards
// partition the table: running every shard and concatenating the results
// in shard order visits exactly the rows of Scan, in the same order.
// Multiple ScanShard calls may run concurrently (each takes the reader
// lock); this is the partition primitive behind the query engine's
// parallel table scans.
func (t *Table) ScanShard(shard, shards int, cols []int, fn func(rid storage.RID, row Row) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	spans := parallel.Chunks(t.heap.NumPages(), shards)
	if shard < 0 || shard >= len(spans) {
		return nil // fewer pages than shards: this shard is empty
	}
	sp := spans[shard]
	var derr error
	err := t.heap.ScanPageRange(sp.Lo, sp.Hi, func(rid storage.RID, rec []byte) bool {
		row, err := DecodeRow(&t.schema, t.reg, rec, cols)
		if err != nil {
			derr = err
			return false
		}
		return fn(rid, row)
	})
	if derr != nil {
		return derr
	}
	return err
}

// CreateBTreeIndex builds a B-tree index on a scalar column, backfilling
// existing rows.
func (t *Table) CreateBTreeIndex(col string) error {
	ci := t.schema.ColIndex(col)
	if ci < 0 {
		return fmt.Errorf("db: table %s has no column %q", t.schema.Table, col)
	}
	ct := t.schema.Columns[ci].Type
	if ct == TOpaque {
		return fmt.Errorf("db: column %s is opaque; use a genomic index", col)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, exists := t.btrees[col]; exists {
		return fmt.Errorf("db: index on %s.%s already exists", t.schema.Table, col)
	}
	tree := btree.New()
	only := KeepColumns(len(t.schema.Columns), ci)
	var backErr error
	err := t.heap.Scan(func(rid storage.RID, rec []byte) bool {
		row, err := DecodeRow(&t.schema, t.reg, rec, only)
		if err != nil {
			backErr = err
			return false
		}
		key, err := IndexKey(ct, row[0])
		if err != nil {
			backErr = err
			return false
		}
		tree.Insert(key, ridToU64(rid))
		return true
	})
	if backErr != nil {
		return backErr
	}
	if err != nil {
		return err
	}
	t.btrees[col] = tree
	return nil
}

// CreateGenomicIndex builds a k-mer index on an opaque sequence-bearing
// column, backfilling existing rows.
func (t *Table) CreateGenomicIndex(col string, k int) error {
	ci := t.schema.ColIndex(col)
	if ci < 0 {
		return fmt.Errorf("db: table %s has no column %q", t.schema.Table, col)
	}
	c := t.schema.Columns[ci]
	if c.Type != TOpaque {
		return fmt.Errorf("db: genomic index requires an opaque column, %s is %v", col, c.Type)
	}
	udt, ok := t.reg.Get(c.UDTName)
	if !ok || udt.ExtractSeq == nil {
		return fmt.Errorf("db: UDT %q of column %s does not expose a sequence", c.UDTName, col)
	}
	ix, err := kmeridx.New(k)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, exists := t.kmers[col]; exists {
		return fmt.Errorf("db: genomic index on %s.%s already exists", t.schema.Table, col)
	}
	// Collect the sequences serially (decode shares the heap scan), then
	// hand the batch to the index's sharded parallel build.
	var docs []kmeridx.Doc
	only := KeepColumns(len(t.schema.Columns), ci)
	var backErr error
	err = t.heap.Scan(func(rid storage.RID, rec []byte) bool {
		row, err := DecodeRow(&t.schema, t.reg, rec, only)
		if err != nil {
			backErr = err
			return false
		}
		if row[0] == nil {
			return true
		}
		if s, ok := udt.ExtractSeq(row[0]); ok {
			docs = append(docs, kmeridx.Doc{ID: kmeridx.DocID(ridToU64(rid)), Seq: s})
		}
		return true
	})
	if backErr != nil {
		return backErr
	}
	if err != nil {
		return err
	}
	if err := ix.AddAll(context.Background(), docs, parallel.Workers()); err != nil {
		return err
	}
	t.kmers[col] = ix
	return nil
}

// HasBTreeIndex reports whether col carries a B-tree index.
func (t *Table) HasBTreeIndex(col string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.btrees[col]
	return ok
}

// HasGenomicIndex reports whether col carries a genomic index.
func (t *Table) HasGenomicIndex(col string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.kmers[col]
	return ok
}

// IndexLookup returns the RIDs whose col equals value, via the B-tree.
func (t *Table) IndexLookup(col string, value any) ([]storage.RID, error) {
	t.mu.RLock()
	tree, ok := t.btrees[col]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("db: no B-tree index on %s.%s", t.schema.Table, col)
	}
	ci := t.schema.ColIndex(col)
	key, err := IndexKey(t.schema.Columns[ci].Type, value)
	if err != nil {
		return nil, err
	}
	vals := tree.Search(key)
	rids := make([]storage.RID, len(vals))
	for i, v := range vals {
		rids[i] = u64ToRID(v)
	}
	return rids, nil
}

// IndexRange returns the RIDs whose col lies in [lo,hi] (nil = unbounded).
func (t *Table) IndexRange(col string, lo, hi any) ([]storage.RID, error) {
	t.mu.RLock()
	tree, ok := t.btrees[col]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("db: no B-tree index on %s.%s", t.schema.Table, col)
	}
	ci := t.schema.ColIndex(col)
	ct := t.schema.Columns[ci].Type
	var loKey, hiKey []byte
	var err error
	if lo != nil {
		if loKey, err = IndexKey(ct, lo); err != nil {
			return nil, err
		}
	}
	if hi != nil {
		if hiKey, err = IndexKey(ct, hi); err != nil {
			return nil, err
		}
	}
	var rids []storage.RID
	tree.Range(loKey, hiKey, func(key []byte, v uint64) bool {
		rids = append(rids, u64ToRID(v))
		return true
	})
	return rids, nil
}

// GenomicLookup returns the RIDs of rows whose col sequence contains the
// pattern, using the k-mer index with verification against stored rows.
// It returns (*kmeridx.ErrPatternTooShort) when the pattern is shorter than
// the index word, signalling the planner to scan instead.
func (t *Table) GenomicLookup(col, pattern string) ([]storage.RID, error) {
	return t.GenomicLookupCtx(context.Background(), col, pattern)
}

// GenomicLookupCtx is GenomicLookup under the caller's context, so the
// k-mer lookup (and its candidate verification fan-out) appears as a child
// span of a traced statement and observes cancellation.
func (t *Table) GenomicLookupCtx(ctx context.Context, col, pattern string) ([]storage.RID, error) {
	t.mu.RLock()
	ix, ok := t.kmers[col]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("db: no genomic index on %s.%s", t.schema.Table, col)
	}
	ci := t.schema.ColIndex(col)
	udt, _ := t.reg.Get(t.schema.Columns[ci].UDTName)
	// Verification decodes only the indexed column, into position 0.
	only := KeepColumns(len(t.schema.Columns), ci)
	docs, err := ix.Lookup(ctx, pattern, func(doc kmeridx.DocID) (seq.NucSeq, error) {
		row, err := t.Get(u64ToRID(uint64(doc)), only...)
		if err != nil {
			return seq.NucSeq{}, err
		}
		got, ok := udt.ExtractSeq(row[0])
		if !ok {
			return seq.NucSeq{}, fmt.Errorf("db: row %d has no extractable sequence", doc)
		}
		return got, nil
	}, parallel.Workers())
	if err != nil {
		return nil, err
	}
	rids := make([]storage.RID, len(docs))
	for i, d := range docs {
		rids[i] = u64ToRID(uint64(d))
	}
	return rids, nil
}

// Vacuum rewrites the table's live rows into a fresh heap, reclaiming the
// space of deleted rows and orphaned blob chains, and rebuilds all indexes.
// RIDs change; callers holding RIDs must re-resolve them.
func (t *Table) Vacuum() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	fresh := storage.NewHeapFile(t.heap.Pool())
	type rec struct {
		buf []byte
	}
	var rows []rec
	err := t.heap.Scan(func(_ storage.RID, raw []byte) bool {
		cp := make([]byte, len(raw))
		copy(cp, raw)
		rows = append(rows, rec{buf: cp})
		return true
	})
	if err != nil {
		return err
	}
	// Reset indexes; re-inserted rows repopulate them.
	for col := range t.btrees {
		t.btrees[col] = btree.New()
	}
	kmerKs := map[string]int{}
	for col, ix := range t.kmers {
		kmerKs[col] = ix.K()
	}
	for col, k := range kmerKs {
		ix, err := kmeridx.New(k)
		if err != nil {
			return err
		}
		t.kmers[col] = ix
	}
	count := 0
	for _, r := range rows {
		rid, err := fresh.Insert(r.buf)
		if err != nil {
			return err
		}
		row, err := DecodeRow(&t.schema, t.reg, r.buf, nil)
		if err != nil {
			return err
		}
		if err := t.indexRowLocked(rid, row, true); err != nil {
			return err
		}
		count++
	}
	t.heap = fresh
	t.rows = count
	return nil
}
