package storage

import (
	"fmt"
	"sync"
	"testing"

	"genalg/internal/obs"
)

// strictPager rejects reads of pages that were never written — the
// behavior of a pager that allocates lazily (or validates checksums).
// Allocate hands out an ID without materializing any bytes.
type strictPager struct {
	mu      sync.Mutex
	pages   int
	written map[PageID]*Page
}

func newStrictPager() *strictPager {
	return &strictPager{written: map[PageID]*Page{}}
}

func (p *strictPager) Allocate() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := PageID(p.pages)
	p.pages++
	return id, nil
}

func (p *strictPager) Read(id PageID, dst *Page) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	pg, ok := p.written[id]
	if !ok {
		return fmt.Errorf("strictPager: read of never-written page %d", id)
	}
	*dst = *pg
	return nil
}

func (p *strictPager) Write(id PageID, src *Page) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(id) >= p.pages {
		return fmt.Errorf("strictPager: write of unallocated page %d", id)
	}
	cp := *src
	p.written[id] = &cp
	return nil
}

func (p *strictPager) NumPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pages
}

func (p *strictPager) Close() error { return nil }

// TestAllocateDoesNotReadPager is the regression test for the old
// Allocate, which round-tripped a freshly allocated page through
// Pin -> pager.Read even though the pager had never written it.
func TestAllocateDoesNotReadPager(t *testing.T) {
	bp, err := NewBufferPool(newStrictPager(), 2)
	if err != nil {
		t.Fatal(err)
	}
	id, pg, err := bp.Allocate()
	if err != nil {
		t.Fatalf("Allocate against a read-rejecting pager: %v", err)
	}
	pg.Data[0] = 0xAB
	if err := bp.Unpin(id, true); err != nil {
		t.Fatal(err)
	}
	// Force the frame out (the pool holds 2 frames) and re-pin: the dirty
	// writeback must have materialized the page in the pager.
	for i := 0; i < 2; i++ {
		id2, _, err := bp.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := bp.Unpin(id2, false); err != nil {
			t.Fatal(err)
		}
	}
	got, err := bp.Pin(id)
	if err != nil {
		t.Fatalf("re-pin after eviction: %v", err)
	}
	if got.Data[0] != 0xAB {
		t.Fatalf("page content lost across eviction: %x", got.Data[0])
	}
	bp.Unpin(id, false)
}

// TestAllocatedPageIsZeroed documents the Allocate contract: the fresh
// frame is zero-valued even when the pool never consults the pager.
func TestAllocatedPageIsZeroed(t *testing.T) {
	bp, _ := NewBufferPool(newStrictPager(), 4)
	id, pg, err := bp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Unpin(id, false)
	for i, b := range pg.Data {
		if b != 0 {
			t.Fatalf("byte %d of fresh page = %x, want 0", i, b)
		}
	}
}

// TestPoolStatsIndependent proves two pools keep independent counters:
// the old process-global counters let concurrent pools (or parallel tests
// resetting them) corrupt each other's numbers. Run under -race.
func TestPoolStatsIndependent(t *testing.T) {
	mkPool := func(pages int) (*BufferPool, []PageID) {
		bp, err := NewBufferPool(NewMemPager(), 8)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]PageID, pages)
		for i := range ids {
			id, _, err := bp.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = id
			if err := bp.Unpin(id, false); err != nil {
				t.Fatal(err)
			}
		}
		return bp, ids
	}
	bpA, idsA := mkPool(4)
	bpB, idsB := mkPool(4)

	const rounds = 500
	var wg sync.WaitGroup
	hammer := func(bp *BufferPool, ids []PageID) {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			id := ids[i%len(ids)]
			if _, err := bp.Pin(id); err != nil {
				t.Error(err)
				return
			}
			if err := bp.Unpin(id, false); err != nil {
				t.Error(err)
				return
			}
		}
	}
	wg.Add(4)
	go hammer(bpA, idsA)
	go hammer(bpA, idsA)
	go hammer(bpB, idsB)
	go func() {
		defer wg.Done()
		// A concurrent reset on pool B must not disturb pool A.
		for i := 0; i < 50; i++ {
			bpB.ResetStats()
		}
	}()
	wg.Wait()

	stA, stB := bpA.Stats(), bpB.Stats()
	// Pool A saw exactly 2*rounds pins, all hits (8-frame pool, 4 pages).
	if stA.Hits != 2*rounds {
		t.Errorf("pool A hits = %d, want %d (cross-pool contamination?)", stA.Hits, 2*rounds)
	}
	if stA.Misses != 0 || stA.Evictions != 0 {
		t.Errorf("pool A stats = %+v, want no misses/evictions", stA)
	}
	if stA.Allocations != 4 {
		t.Errorf("pool A allocations = %d, want 4", stA.Allocations)
	}
	// Pool B's counters were reset mid-run; whatever remains must be
	// bounded by its own traffic, never pool A's.
	if stB.Hits > rounds {
		t.Errorf("pool B hits = %d, exceeds its own %d pins", stB.Hits, rounds)
	}
}

func TestRegisterMetricsPerPool(t *testing.T) {
	reg := obs.New()
	bpA, _ := NewBufferPool(NewMemPager(), 4)
	bpB, _ := NewBufferPool(NewMemPager(), 4)
	bpA.RegisterMetrics(reg, "a")
	bpB.RegisterMetrics(reg, "b")

	id, _, _ := bpA.Allocate()
	bpA.Unpin(id, false)
	pg, err := bpA.Pin(id)
	if err != nil || pg == nil {
		t.Fatalf("re-pin page %d: %v", id, err)
	}
	bpA.Unpin(id, false)

	vals := map[string]float64{}
	for _, m := range reg.Snapshot() {
		vals[m.Name] = m.Value
	}
	if vals["storage.pool.a.hits"] != 1 {
		t.Errorf("pool a hits gauge = %g, want 1", vals["storage.pool.a.hits"])
	}
	if vals["storage.pool.b.hits"] != 0 {
		t.Errorf("pool b hits gauge = %g, want 0", vals["storage.pool.b.hits"])
	}
	if vals["storage.pool.a.hit_ratio"] != 1 {
		t.Errorf("pool a hit_ratio = %g, want 1", vals["storage.pool.a.hit_ratio"])
	}
}
