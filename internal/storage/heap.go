package storage

import (
	"encoding/binary"
	"fmt"
)

// RID is a record identifier: the page and slot where a record's primary
// fragment lives.
type RID struct {
	Page PageID
	Slot int
}

// String implements fmt.Stringer.
func (r RID) String() string { return fmt.Sprintf("%d.%d", r.Page, r.Slot) }

// HeapFile stores variable-length records in slotted pages pulled through a
// buffer pool. Records exceeding a page's capacity are split: the primary
// slot holds a blob header pointing to a chain of dedicated overflow pages.
//
// A HeapFile does not own pages 0..; it allocates pages lazily from the
// shared pool and remembers them in its own page list, so multiple heap
// files can share one pager (the Unifying Database stores one heap per
// table).
type HeapFile struct {
	pool *BufferPool
	// dataPages lists this heap's slotted pages in allocation order.
	dataPages []PageID
	// freeHint maps a data page to its last known free space, to avoid
	// re-pinning full pages on insert.
	freeHint map[PageID]int
}

// NewHeapFile creates an empty heap over the pool.
func NewHeapFile(pool *BufferPool) *HeapFile {
	return &HeapFile{pool: pool, freeHint: make(map[PageID]int)}
}

// Blob record layout in the primary slot:
//
//	byte 0      1 (blob marker; inline records start with 0)
//	bytes 1..4  total length (uint32)
//	bytes 5..8  first overflow page (uint32)
//
// Inline record layout: byte 0 = 0 followed by the payload.
const (
	inlineMarker = 0
	blobMarker   = 1
	blobHdrLen   = 9
)

// Overflow page layout: bytes 0..3 next page (uint32, InvalidPage ends the
// chain), bytes 4..5 payload length (uint16), payload.
const (
	ovHeaderLen  = 6
	ovPayloadMax = PageSize - ovHeaderLen
)

// Insert stores rec and returns its RID.
func (h *HeapFile) Insert(rec []byte) (RID, error) {
	if len(rec)+1 <= MaxRecordLen {
		return h.insertPrimary(append([]byte{inlineMarker}, rec...))
	}
	// Blob path: write the payload into a chain of overflow pages.
	first, err := h.writeChain(rec)
	if err != nil {
		return RID{}, err
	}
	hdr := make([]byte, blobHdrLen)
	hdr[0] = blobMarker
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(rec)))
	binary.LittleEndian.PutUint32(hdr[5:], uint32(first))
	return h.insertPrimary(hdr)
}

func (h *HeapFile) insertPrimary(framed []byte) (RID, error) {
	// Try pages with known space, newest first (most likely to have room).
	for i := len(h.dataPages) - 1; i >= 0; i-- {
		id := h.dataPages[i]
		hint := h.freeHint[id]
		if hint >= 0 && hint < len(framed)+slotSize {
			continue
		}
		pg, err := h.pool.Pin(id)
		if err != nil {
			return RID{}, err
		}
		slot, err := pg.Insert(framed)
		if err == nil {
			h.freeHint[id] = pg.FreeSpace()
			if uerr := h.pool.Unpin(id, true); uerr != nil {
				return RID{}, uerr
			}
			return RID{Page: id, Slot: slot}, nil
		}
		h.freeHint[id] = pg.FreeSpace()
		if uerr := h.pool.Unpin(id, false); uerr != nil {
			return RID{}, uerr
		}
	}
	// Allocate a fresh page.
	id, pg, err := h.pool.Allocate()
	if err != nil {
		return RID{}, err
	}
	slot, err := pg.Insert(framed)
	if err != nil {
		h.pool.Unpin(id, false)
		return RID{}, err
	}
	h.dataPages = append(h.dataPages, id)
	h.freeHint[id] = pg.FreeSpace()
	if err := h.pool.Unpin(id, true); err != nil {
		return RID{}, err
	}
	return RID{Page: id, Slot: slot}, nil
}

func (h *HeapFile) writeChain(rec []byte) (PageID, error) {
	var first, prev PageID = InvalidPage, InvalidPage
	for off := 0; off < len(rec); off += ovPayloadMax {
		end := off + ovPayloadMax
		if end > len(rec) {
			end = len(rec)
		}
		id, pg, err := h.pool.Allocate()
		if err != nil {
			return InvalidPage, err
		}
		binary.LittleEndian.PutUint32(pg.Data[0:], uint32(InvalidPage))
		binary.LittleEndian.PutUint16(pg.Data[4:], uint16(end-off))
		copy(pg.Data[ovHeaderLen:], rec[off:end])
		if err := h.pool.Unpin(id, true); err != nil {
			return InvalidPage, err
		}
		if first == InvalidPage {
			first = id
		} else {
			// Link the previous page to this one.
			ppg, err := h.pool.Pin(prev)
			if err != nil {
				return InvalidPage, err
			}
			binary.LittleEndian.PutUint32(ppg.Data[0:], uint32(id))
			if err := h.pool.Unpin(prev, true); err != nil {
				return InvalidPage, err
			}
		}
		prev = id
	}
	return first, nil
}

// Get returns a copy of the record at rid.
func (h *HeapFile) Get(rid RID) ([]byte, error) {
	pg, err := h.pool.Pin(rid.Page)
	if err != nil {
		return nil, err
	}
	raw, err := pg.Get(rid.Slot)
	if err != nil {
		h.pool.Unpin(rid.Page, false)
		return nil, err
	}
	framed := make([]byte, len(raw))
	copy(framed, raw)
	if err := h.pool.Unpin(rid.Page, false); err != nil {
		return nil, err
	}
	return h.unframe(framed)
}

func (h *HeapFile) unframe(framed []byte) ([]byte, error) {
	if len(framed) == 0 {
		return nil, fmt.Errorf("storage: empty framed record")
	}
	switch framed[0] {
	case inlineMarker:
		return framed[1:], nil
	case blobMarker:
		if len(framed) < blobHdrLen {
			return nil, fmt.Errorf("storage: truncated blob header")
		}
		total := binary.LittleEndian.Uint32(framed[1:])
		next := PageID(binary.LittleEndian.Uint32(framed[5:]))
		out := make([]byte, 0, total)
		for next != InvalidPage {
			pg, err := h.pool.Pin(next)
			if err != nil {
				return nil, err
			}
			n := binary.LittleEndian.Uint16(pg.Data[4:])
			out = append(out, pg.Data[ovHeaderLen:ovHeaderLen+int(n)]...)
			nn := PageID(binary.LittleEndian.Uint32(pg.Data[0:]))
			if err := h.pool.Unpin(next, false); err != nil {
				return nil, err
			}
			next = nn
		}
		if uint32(len(out)) != total {
			return nil, fmt.Errorf("storage: blob chain yielded %d bytes, header says %d", len(out), total)
		}
		return out, nil
	}
	return nil, fmt.Errorf("storage: unknown record marker %d", framed[0])
}

// Delete removes the record at rid. Overflow pages of blob records are left
// orphaned (space reclamation is a compaction concern, not a correctness
// one).
func (h *HeapFile) Delete(rid RID) error {
	pg, err := h.pool.Pin(rid.Page)
	if err != nil {
		return err
	}
	err = pg.Delete(rid.Slot)
	h.freeHint[rid.Page] = -1
	if uerr := h.pool.Unpin(rid.Page, err == nil); uerr != nil && err == nil {
		err = uerr
	}
	return err
}

// Update replaces the record at rid, returning the possibly new RID (the
// record moves when the new value no longer fits in place).
func (h *HeapFile) Update(rid RID, rec []byte) (RID, error) {
	if err := h.Delete(rid); err != nil {
		return RID{}, err
	}
	return h.Insert(rec)
}

// Scan calls fn for every live record in heap order. Returning false stops
// the scan. The rec slice is only valid during the call.
func (h *HeapFile) Scan(fn func(rid RID, rec []byte) bool) error {
	return h.ScanPageRange(0, len(h.dataPages), fn)
}

// NumPages returns the number of data pages — the partitioning unit for
// parallel scans.
func (h *HeapFile) NumPages() int { return len(h.dataPages) }

// ScanPageRange scans the live records of the data pages with index in
// [lo, hi) (clamped), in heap order. It is the partition primitive behind
// parallel table scans: disjoint ranges touch disjoint slotted pages, and
// concatenating per-range results in range order reproduces a full Scan.
// The buffer pool serializes page access internally, so concurrent
// ScanPageRange calls over disjoint ranges are safe as long as no writer
// is active (the table layer's reader lock guarantees that).
func (h *HeapFile) ScanPageRange(lo, hi int, fn func(rid RID, rec []byte) bool) error {
	if lo < 0 {
		lo = 0
	}
	if hi > len(h.dataPages) {
		hi = len(h.dataPages)
	}
	if lo >= hi {
		return nil
	}
	// framedRec locates one live record's framed bytes in its page's copy.
	type framedRec struct {
		slot int
		lo   int
	}
	var frames []framedRec
	for _, id := range h.dataPages[lo:hi] {
		pg, err := h.pool.Pin(id)
		if err != nil {
			return err
		}
		// One copy per page: the live records land back to back in a
		// single buffer and are handed out as cap-limited sub-slices, so a
		// caller appending to one record cannot write into the next.
		frames = frames[:0]
		buf := make([]byte, 0, PageSize)
		pg.LiveRecords(func(slot int, raw []byte) bool {
			frames = append(frames, framedRec{slot: slot, lo: len(buf)})
			buf = append(buf, raw...)
			return true
		})
		if err := h.pool.Unpin(id, false); err != nil {
			return err
		}
		for i, fr := range frames {
			end := len(buf)
			if i+1 < len(frames) {
				end = frames[i+1].lo
			}
			rec, err := h.unframe(buf[fr.lo:end:end])
			if err != nil {
				return err
			}
			if !fn(RID{Page: id, Slot: fr.slot}, rec) {
				return nil
			}
		}
	}
	return nil
}

// Count returns the number of live records.
func (h *HeapFile) Count() (int, error) {
	n := 0
	err := h.Scan(func(RID, []byte) bool { n++; return true })
	return n, err
}

// Pool exposes the heap's buffer pool so the catalog can allocate sibling
// heaps (e.g. during vacuum) over the same pages.
func (h *HeapFile) Pool() *BufferPool { return h.pool }
