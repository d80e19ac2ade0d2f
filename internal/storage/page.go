// Package storage implements the page substrate of the Unifying Database:
// slotted pages, a Pager interface with an in-memory pager, a pinning
// buffer pool with LRU eviction, and heap files with overflow (blob) chains
// for records larger than a page — the paper's Section 4.3 requirement that
// genomic values live in "compact storage areas" moved page by page. The
// durable copy of the data is the engine's write-ahead log (internal/wal),
// not the pages.
package storage

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the fixed page size in bytes.
const PageSize = 4096

// PageID identifies a page within a file.
type PageID uint32

// InvalidPage is the nil page ID (page 0 is a valid header page, so the
// sentinel is the max value).
const InvalidPage PageID = 0xFFFFFFFF

// Page is a slotted page:
//
//	bytes 0..1   number of slots (uint16)
//	bytes 2..3   free-space start offset (uint16)
//	bytes 4..    record payloads, growing upward
//	...          free space
//	tail         slot directory growing downward: per slot
//	             offset uint16, length uint16 (offset 0xFFFF = deleted)
type Page struct {
	Data [PageSize]byte
}

const (
	pageHeaderLen = 4
	slotSize      = 4
	deletedOffset = 0xFFFF
)

// NumSlots returns the number of slot entries (including deleted ones).
func (p *Page) NumSlots() int {
	return int(binary.LittleEndian.Uint16(p.Data[0:]))
}

func (p *Page) setNumSlots(n int) {
	binary.LittleEndian.PutUint16(p.Data[0:], uint16(n))
}

func (p *Page) freeStart() int {
	fs := int(binary.LittleEndian.Uint16(p.Data[2:]))
	if fs == 0 {
		return pageHeaderLen
	}
	return fs
}

func (p *Page) setFreeStart(v int) {
	binary.LittleEndian.PutUint16(p.Data[2:], uint16(v))
}

func (p *Page) slotPos(slot int) int {
	return PageSize - (slot+1)*slotSize
}

func (p *Page) slot(slot int) (offset, length int) {
	pos := p.slotPos(slot)
	return int(binary.LittleEndian.Uint16(p.Data[pos:])),
		int(binary.LittleEndian.Uint16(p.Data[pos+2:]))
}

func (p *Page) setSlot(slot, offset, length int) {
	pos := p.slotPos(slot)
	binary.LittleEndian.PutUint16(p.Data[pos:], uint16(offset))
	binary.LittleEndian.PutUint16(p.Data[pos+2:], uint16(length))
}

// FreeSpace returns the bytes available for a new record (payload plus its
// slot entry).
func (p *Page) FreeSpace() int {
	free := PageSize - p.NumSlots()*slotSize - p.freeStart() - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// MaxRecordLen is the largest record payload a single page can hold.
const MaxRecordLen = PageSize - pageHeaderLen - slotSize

// Insert stores a record in the page, returning its slot number. It fails
// if the page lacks space. Deleted slots are reused.
func (p *Page) Insert(rec []byte) (int, error) {
	if len(rec) > MaxRecordLen {
		return 0, fmt.Errorf("storage: record of %d bytes exceeds page capacity %d", len(rec), MaxRecordLen)
	}
	if len(rec) > p.FreeSpace() {
		// A reusable deleted slot still needs payload space.
		reuse := -1
		for i := 0; i < p.NumSlots(); i++ {
			if off, _ := p.slot(i); off == deletedOffset {
				reuse = i
				break
			}
		}
		if reuse < 0 || len(rec) > PageSize-p.NumSlots()*slotSize-p.freeStart() {
			return 0, fmt.Errorf("storage: page full (%d free, need %d)", p.FreeSpace(), len(rec))
		}
		off := p.freeStart()
		copy(p.Data[off:], rec)
		p.setFreeStart(off + len(rec))
		p.setSlot(reuse, off, len(rec))
		return reuse, nil
	}
	// Reuse a deleted slot entry if any; otherwise grow the directory.
	slot := -1
	for i := 0; i < p.NumSlots(); i++ {
		if off, _ := p.slot(i); off == deletedOffset {
			slot = i
			break
		}
	}
	off := p.freeStart()
	copy(p.Data[off:], rec)
	p.setFreeStart(off + len(rec))
	if slot < 0 {
		slot = p.NumSlots()
		p.setNumSlots(slot + 1)
	}
	p.setSlot(slot, off, len(rec))
	return slot, nil
}

// Get returns the record stored in the slot. The returned slice aliases the
// page; callers that retain it must copy.
func (p *Page) Get(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.NumSlots() {
		return nil, fmt.Errorf("storage: slot %d out of range [0,%d)", slot, p.NumSlots())
	}
	off, length := p.slot(slot)
	if off == deletedOffset {
		return nil, fmt.Errorf("storage: slot %d is deleted", slot)
	}
	if off+length > PageSize {
		return nil, fmt.Errorf("storage: slot %d corrupt (off=%d len=%d)", slot, off, length)
	}
	return p.Data[off : off+length], nil
}

// Delete marks a slot deleted. The payload space is reclaimed by Compact.
func (p *Page) Delete(slot int) error {
	if slot < 0 || slot >= p.NumSlots() {
		return fmt.Errorf("storage: slot %d out of range [0,%d)", slot, p.NumSlots())
	}
	if off, _ := p.slot(slot); off == deletedOffset {
		return fmt.Errorf("storage: slot %d already deleted", slot)
	}
	p.setSlot(slot, deletedOffset, 0)
	return nil
}

// Compact rewrites live payloads contiguously, reclaiming the space of
// deleted records. Slot numbers are preserved.
func (p *Page) Compact() {
	var buf [PageSize]byte
	write := pageHeaderLen
	n := p.NumSlots()
	type live struct{ slot, off, length int }
	var lives []live
	for i := 0; i < n; i++ {
		off, length := p.slot(i)
		if off == deletedOffset {
			continue
		}
		lives = append(lives, live{i, off, length})
	}
	for _, l := range lives {
		copy(buf[write:], p.Data[l.off:l.off+l.length])
		p.setSlot(l.slot, write, l.length)
		write += l.length
	}
	copy(p.Data[pageHeaderLen:write], buf[pageHeaderLen:write])
	p.setFreeStart(write)
}

// LiveRecords calls fn for every live slot in order. If fn returns false
// iteration stops.
func (p *Page) LiveRecords(fn func(slot int, rec []byte) bool) {
	for i := 0; i < p.NumSlots(); i++ {
		off, length := p.slot(i)
		if off == deletedOffset {
			continue
		}
		if !fn(i, p.Data[off:off+length]) {
			return
		}
	}
}
