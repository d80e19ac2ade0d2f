package storage

import (
	"container/list"
	"fmt"
	"sync"
)

// BufferPool caches pages over a Pager with pin counting and LRU eviction
// of unpinned frames. Dirty frames are written back on eviction and on
// FlushAll.
type BufferPool struct {
	pager    Pager
	capacity int

	mu     sync.Mutex
	frames map[PageID]*frame
	lru    *list.List // of PageID; front = most recently used
	stats  Stats      // per-pool counters, guarded by mu
}

type frame struct {
	page    Page
	pins    int
	dirty   bool
	lruElem *list.Element
}

// Stats reports buffer-pool counters for benchmarking and tuning. Counters
// are per pool: two pools never share or corrupt each other's numbers.
type Stats struct {
	Hits, Misses, Evictions, Allocations int
}

// HitRatio returns Hits / (Hits + Misses), or 0 before any Pin.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// NewBufferPool creates a pool holding at most capacity pages.
func NewBufferPool(pager Pager, capacity int) (*BufferPool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("storage: buffer pool capacity %d < 1", capacity)
	}
	return &BufferPool{
		pager:    pager,
		capacity: capacity,
		frames:   make(map[PageID]*frame),
		lru:      list.New(),
	}, nil
}

// Stats returns a snapshot of this pool's counters.
func (bp *BufferPool) Stats() Stats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.stats
}

// ResetStats zeroes this pool's counters (for tests and benchmarks).
func (bp *BufferPool) ResetStats() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.stats = Stats{}
}

// Pin fetches the page into the pool (reading from the pager on a miss) and
// pins it. Every Pin must be matched by an Unpin.
func (bp *BufferPool) Pin(id PageID) (*Page, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if fr, ok := bp.frames[id]; ok {
		fr.pins++
		bp.lru.MoveToFront(fr.lruElem)
		bp.stats.Hits++
		return &fr.page, nil
	}
	bp.stats.Misses++
	if len(bp.frames) >= bp.capacity {
		if err := bp.evictLocked(); err != nil {
			return nil, err
		}
	}
	fr := &frame{pins: 1}
	//genalgvet:ignore lockorder miss path reads under bp.mu by design: dropping the lock would let a racing Pin double-load the frame
	if err := bp.pager.Read(id, &fr.page); err != nil {
		return nil, err
	}
	fr.lruElem = bp.lru.PushFront(id)
	bp.frames[id] = fr
	return &fr.page, nil
}

// evictLocked removes the least recently used unpinned frame, writing it
// back if dirty. It fails when every frame is pinned.
func (bp *BufferPool) evictLocked() error {
	for e := bp.lru.Back(); e != nil; e = e.Prev() {
		id := e.Value.(PageID)
		fr := bp.frames[id]
		if fr.pins > 0 {
			continue
		}
		if fr.dirty {
			if err := bp.pager.Write(id, &fr.page); err != nil {
				return fmt.Errorf("storage: evict writeback of page %d: %w", id, err)
			}
		}
		bp.lru.Remove(e)
		delete(bp.frames, id)
		bp.stats.Evictions++
		return nil
	}
	return fmt.Errorf("storage: buffer pool exhausted: all %d frames pinned", bp.capacity)
}

// Unpin releases one pin on the page, optionally marking it dirty.
func (bp *BufferPool) Unpin(id PageID, dirty bool) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr, ok := bp.frames[id]
	if !ok {
		return fmt.Errorf("storage: unpin of non-resident page %d", id)
	}
	if fr.pins == 0 {
		return fmt.Errorf("storage: unpin of unpinned page %d", id)
	}
	fr.pins--
	if dirty {
		fr.dirty = true
	}
	return nil
}

// Allocate creates a new page via the pager and pins it. The frame is
// materialized directly — pinned, dirty, and zeroed — rather than
// round-tripping through pager.Read: the pager never wrote the page's
// contents, and some pagers reject reads of never-written pages. Marking
// it dirty guarantees the zeroed image reaches the pager on eviction or
// flush, so a later Pin always succeeds.
func (bp *BufferPool) Allocate() (PageID, *Page, error) {
	id, err := bp.pager.Allocate()
	if err != nil {
		return InvalidPage, nil, err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if len(bp.frames) >= bp.capacity {
		if err := bp.evictLocked(); err != nil {
			return InvalidPage, nil, err
		}
	}
	fr := &frame{pins: 1, dirty: true}
	fr.lruElem = bp.lru.PushFront(id)
	bp.frames[id] = fr
	bp.stats.Allocations++
	return id, &fr.page, nil
}

// FlushAll writes back every dirty frame. Pins are left intact.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for id, fr := range bp.frames {
		if fr.dirty {
			//genalgvet:ignore lockorder flush walks the frame table under bp.mu by design: an unlocked walk races concurrent Unpin(dirty) markings
			if err := bp.pager.Write(id, &fr.page); err != nil {
				return fmt.Errorf("storage: flush of page %d: %w", id, err)
			}
			fr.dirty = false
		}
	}
	return nil
}

// Resident returns the number of cached frames (for tests).
func (bp *BufferPool) Resident() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.frames)
}
