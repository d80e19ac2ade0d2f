package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPageInsertGet(t *testing.T) {
	var p Page
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	var slots []int
	for _, r := range recs {
		s, err := p.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	for i, s := range slots {
		got, err := p.Get(s)
		if err != nil || !bytes.Equal(got, recs[i]) {
			t.Errorf("Get(%d) = %q, %v", s, got, err)
		}
	}
	if p.NumSlots() != 3 {
		t.Errorf("NumSlots = %d", p.NumSlots())
	}
}

func TestPageDeleteAndReuse(t *testing.T) {
	var p Page
	s0, _ := p.Insert([]byte("first"))
	s1, _ := p.Insert([]byte("second"))
	if err := p.Delete(s0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(s0); err == nil {
		t.Error("deleted slot readable")
	}
	if err := p.Delete(s0); err == nil {
		t.Error("double delete succeeded")
	}
	// New insert reuses the deleted slot entry.
	s2, err := p.Insert([]byte("third"))
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s0 {
		t.Errorf("slot not reused: got %d, want %d", s2, s0)
	}
	if got, _ := p.Get(s1); !bytes.Equal(got, []byte("second")) {
		t.Error("surviving record corrupted")
	}
}

func TestPageFullAndCompact(t *testing.T) {
	var p Page
	rec := bytes.Repeat([]byte("x"), 400)
	var slots []int
	for {
		s, err := p.Insert(rec)
		if err != nil {
			break
		}
		slots = append(slots, s)
	}
	if len(slots) < 9 {
		t.Fatalf("only %d records fit", len(slots))
	}
	// Delete every other record; without compaction the payload space is
	// still occupied.
	for i := 0; i < len(slots); i += 2 {
		if err := p.Delete(slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	p.Compact()
	// Now there should be space again for at least len(slots)/2 records.
	n := 0
	for {
		if _, err := p.Insert(rec); err != nil {
			break
		}
		n++
	}
	if n < len(slots)/2 {
		t.Errorf("after compaction only %d inserts fit", n)
	}
	// Surviving originals are intact.
	for i := 1; i < len(slots); i += 2 {
		got, err := p.Get(slots[i])
		if err != nil || !bytes.Equal(got, rec) {
			t.Errorf("record %d corrupted after compaction: %v", slots[i], err)
		}
	}
}

func TestPageRejectsOversized(t *testing.T) {
	var p Page
	if _, err := p.Insert(make([]byte, MaxRecordLen+1)); err == nil {
		t.Error("oversized record accepted")
	}
	if _, err := p.Insert(make([]byte, MaxRecordLen)); err != nil {
		t.Errorf("max-size record rejected: %v", err)
	}
}

func TestPageGetBounds(t *testing.T) {
	var p Page
	if _, err := p.Get(-1); err == nil {
		t.Error("negative slot accepted")
	}
	if _, err := p.Get(0); err == nil {
		t.Error("unallocated slot accepted")
	}
	if err := p.Delete(5); err == nil {
		t.Error("delete of unallocated slot accepted")
	}
}

func TestPagerBounds(t *testing.T) {
	mp := NewMemPager()
	var pg Page
	if err := mp.Read(0, &pg); err == nil {
		t.Error("read of unallocated page succeeded")
	}
	if err := mp.Write(3, &pg); err == nil {
		t.Error("write of unallocated page succeeded")
	}
}

func TestBufferPoolPinUnpin(t *testing.T) {
	bp, err := NewBufferPool(NewMemPager(), 4)
	if err != nil {
		t.Fatal(err)
	}
	id, pg, err := bp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	copy(pg.Data[:], "cached")
	if err := bp.Unpin(id, true); err != nil {
		t.Fatal(err)
	}
	pg2, err := bp.Pin(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(pg2.Data[:], []byte("cached")) {
		t.Error("cached page contents wrong")
	}
	if err := bp.Unpin(id, false); err != nil {
		t.Fatal(err)
	}
	if err := bp.Unpin(id, false); err == nil {
		t.Error("over-unpin succeeded")
	}
	if err := bp.Unpin(99, false); err == nil {
		t.Error("unpin of non-resident page succeeded")
	}
}

func TestBufferPoolEvictionWritesBack(t *testing.T) {
	pager := NewMemPager()
	bp, _ := NewBufferPool(pager, 2)
	var ids []PageID
	for i := 0; i < 3; i++ {
		id, pg, err := bp.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		pg.Data[0] = byte(i + 1)
		if err := bp.Unpin(id, true); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if bp.Resident() > 2 {
		t.Errorf("resident = %d, capacity 2", bp.Resident())
	}
	// Every page's contents must survive eviction.
	for i, id := range ids {
		pg, err := bp.Pin(id)
		if err != nil {
			t.Fatal(err)
		}
		if pg.Data[0] != byte(i+1) {
			t.Errorf("page %d lost dirty data: %d", id, pg.Data[0])
		}
		bp.Unpin(id, false)
	}
}

func TestBufferPoolExhaustion(t *testing.T) {
	bp, _ := NewBufferPool(NewMemPager(), 2)
	var ids []PageID
	for i := 0; i < 2; i++ {
		//genalgvet:ignore pinunpin exhaustion test keeps every frame pinned deliberately; pins are released after the failed probe
		id, _, err := bp.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id) // keep pinned
	}
	//genalgvet:ignore pinunpin allocation is expected to fail while every frame is pinned; no page to release
	if _, _, err := bp.Allocate(); err == nil {
		t.Error("allocation with all frames pinned succeeded")
	}
	for _, id := range ids {
		bp.Unpin(id, false)
	}
	id, _, err := bp.Allocate()
	if err != nil {
		t.Errorf("allocation after unpin failed: %v", err)
	} else {
		bp.Unpin(id, false)
	}
}

func TestBufferPoolCapacityValidation(t *testing.T) {
	if _, err := NewBufferPool(NewMemPager(), 0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestHeapInsertGetSmall(t *testing.T) {
	h := newTestHeap(t, 16)
	rid, err := h.Insert([]byte("genomic record"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid)
	if err != nil || !bytes.Equal(got, []byte("genomic record")) {
		t.Errorf("Get = %q, %v", got, err)
	}
}

func newTestHeap(t testing.TB, poolSize int) *HeapFile {
	bp, err := NewBufferPool(NewMemPager(), poolSize)
	if err != nil {
		t.Fatal(err)
	}
	return NewHeapFile(bp)
}

func TestHeapBlobRecord(t *testing.T) {
	h := newTestHeap(t, 64)
	// 3 pages worth of data.
	big := make([]byte, 3*PageSize+123)
	r := rand.New(rand.NewSource(7))
	r.Read(big)
	rid, err := h.Insert(big)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Error("blob round-trip mismatch")
	}
}

func TestHeapManyRecordsAndScan(t *testing.T) {
	h := newTestHeap(t, 32)
	const n = 500
	rids := make([]RID, n)
	for i := 0; i < n; i++ {
		rec := []byte(fmt.Sprintf("record-%04d-%s", i, bytes.Repeat([]byte("p"), i%97)))
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	count, err := h.Count()
	if err != nil || count != n {
		t.Errorf("Count = %d, %v", count, err)
	}
	// Every record retrievable.
	for i, rid := range rids {
		got, err := h.Get(rid)
		if err != nil {
			t.Fatalf("Get(%v): %v", rid, err)
		}
		want := fmt.Sprintf("record-%04d-", i)
		if !bytes.HasPrefix(got, []byte(want)) {
			t.Errorf("record %d = %q", i, got[:20])
		}
	}
	// Scan visits all records exactly once.
	seen := map[RID]bool{}
	err = h.Scan(func(rid RID, rec []byte) bool {
		if seen[rid] {
			t.Errorf("rid %v visited twice", rid)
		}
		seen[rid] = true
		return true
	})
	if err != nil || len(seen) != n {
		t.Errorf("scan visited %d records, %v", len(seen), err)
	}
}

func TestHeapDeleteUpdate(t *testing.T) {
	h := newTestHeap(t, 16)
	rid, _ := h.Insert([]byte("v1"))
	rid2, err := h.Update(rid, []byte("v2-longer-value"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid2)
	if err != nil || !bytes.Equal(got, []byte("v2-longer-value")) {
		t.Errorf("after update: %q, %v", got, err)
	}
	if err := h.Delete(rid2); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid2); err == nil {
		t.Error("deleted record readable")
	}
	n, _ := h.Count()
	if n != 0 {
		t.Errorf("Count after delete = %d", n)
	}
}

func TestHeapScanEarlyStop(t *testing.T) {
	h := newTestHeap(t, 16)
	for i := 0; i < 10; i++ {
		h.Insert([]byte{byte(i)})
	}
	visits := 0
	h.Scan(func(rid RID, rec []byte) bool {
		visits++
		return visits < 4
	})
	if visits != 4 {
		t.Errorf("early stop visits = %d", visits)
	}
}

// Property: any sequence of inserted records round-trips through the heap.
func TestHeapRoundTripProperty(t *testing.T) {
	f := func(recs [][]byte) bool {
		h := newTestHeap(t, 32)
		var rids []RID
		for _, r := range recs {
			if len(r) > 2*PageSize {
				r = r[:2*PageSize]
			}
			rid, err := h.Insert(r)
			if err != nil {
				return false
			}
			rids = append(rids, rid)
		}
		for i, rid := range rids {
			got, err := h.Get(rid)
			if err != nil {
				return false
			}
			want := recs[i]
			if len(want) > 2*PageSize {
				want = want[:2*PageSize]
			}
			if !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPoolStatsCounters(t *testing.T) {
	bp, _ := NewBufferPool(NewMemPager(), 2)
	id, _, _ := bp.Allocate()
	bp.Unpin(id, false)
	pg, err := bp.Pin(id) // hit
	if err != nil || pg == nil {
		t.Fatalf("re-pin page %d: %v", id, err)
	}
	bp.Unpin(id, false)
	st := bp.Stats()
	if st.Hits != 1 || st.Allocations != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func BenchmarkHeapInsert(b *testing.B) {
	h := newTestHeap(b, 256)
	rec := bytes.Repeat([]byte("r"), 200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeapScan(b *testing.B) {
	h := newTestHeap(b, 256)
	rec := bytes.Repeat([]byte("r"), 200)
	for i := 0; i < 2000; i++ {
		h.Insert(rec)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		h.Scan(func(RID, []byte) bool { n++; return true })
	}
}

// TestScanPageRangeRecordsDoNotAlias checks the per-page record copy:
// records handed out from one page share a buffer but are cap-limited, so
// appending to record k leaves record k+1 intact, and every record's bytes
// equal what Get returns.
func TestScanPageRangeRecordsDoNotAlias(t *testing.T) {
	h := newTestHeap(t, 8)
	var rids []RID
	for i := 0; i < 40; i++ {
		rid, err := h.Insert(bytes.Repeat([]byte{byte('a' + i%26)}, 10+i))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if h.NumPages() != 1 {
		t.Fatalf("want the records on one page, got %d pages", h.NumPages())
	}
	// A deleted slot in the middle must not shift its neighbours.
	if err := h.Delete(rids[5]); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	var gotRIDs []RID
	if err := h.ScanPageRange(0, 1, func(rid RID, rec []byte) bool {
		got = append(got, rec)
		gotRIDs = append(gotRIDs, rid)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 39 {
		t.Fatalf("scanned %d records, want 39", len(got))
	}
	for k := range got {
		if k+1 < len(got) {
			next := append([]byte(nil), got[k+1]...)
			_ = append(got[k], 'X', 'Y', 'Z')
			if !bytes.Equal(got[k+1], next) {
				t.Fatalf("appending to record %d changed record %d: %q, was %q", k, k+1, got[k+1], next)
			}
		}
		want, err := h.Get(gotRIDs[k])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[k], want) {
			t.Fatalf("record %v: scan gave %q, Get gives %q", gotRIDs[k], got[k], want)
		}
	}
}
