// Package kmeridx implements the genomic index structure of the paper's
// Section 6.5: a k-mer inverted index over a corpus of nucleotide sequences
// supporting substring (contains) search and similarity seeding. The
// Unifying Database plugs it in as a user-defined index on DNA columns, the
// same way B-trees serve scalar columns.
//
// The representation follows the paper's Section 4.3 stance (compact and
// pointer-free). Each indexed document gets the next dense uint32 ordinal,
// and a posting is an 8-byte (ordinal, position) pair. Ordinals only grow,
// so appending a document's postings keeps every posting list sorted by
// (ordinal, position); candidate search intersects lists with a linear
// merge, and Remove cuts a document's run out of each of its own lists by
// binary search. Removed documents leave dead ordinals behind; when they
// outnumber the live ones, the live ordinals are renumbered in ascending
// order, which keeps every list sorted.
package kmeridx

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"genalg/internal/parallel"
	"genalg/internal/seq"
	"genalg/internal/trace"
)

// DocID identifies an indexed sequence (the database uses record IDs).
type DocID uint64

// posting records one k-mer occurrence: the document's ordinal and the
// k-mer's start in it.
type posting struct {
	ord uint32
	pos int32
}

// deadOrd marks a dropped ordinal while the index is renumbered; it is
// never handed out.
const deadOrd = math.MaxUint32

// Index is a k-mer inverted index. It is safe for concurrent use.
type Index struct {
	k  int
	mu sync.RWMutex
	// postings per k-mer, each list sorted by (ord, pos).
	postings map[seq.Kmer][]posting
	// docs maps an ordinal to its document; ords maps a live document to
	// its ordinal. An ordinal o is live exactly when ords[docs[o]] == o.
	docs []DocID
	ords map[DocID]uint32
	// maxOrds bounds len(docs): ordinals are below deadOrd.
	maxOrds int
}

// ErrPatternTooShort is returned when a query pattern is shorter than the
// index word length; callers should fall back to a scan.
type ErrPatternTooShort struct {
	PatternLen int
	K          int
}

func (e *ErrPatternTooShort) Error() string {
	return fmt.Sprintf("kmeridx: pattern of %d bases is shorter than index word length %d", e.PatternLen, e.K)
}

// New creates an index with word length k.
func New(k int) (*Index, error) {
	if k < 4 || k > seq.MaxK {
		return nil, fmt.Errorf("kmeridx: word length %d out of range [4,%d]", k, seq.MaxK)
	}
	return &Index{
		k:        k,
		postings: make(map[seq.Kmer][]posting),
		ords:     make(map[DocID]uint32),
		maxOrds:  min(deadOrd, math.MaxInt),
	}, nil
}

// K returns the word length.
func (ix *Index) K() int { return ix.k }

// Add indexes a document. Re-adding an existing DocID is an error; Remove
// first. The document's postings are appended straight onto their lists.
func (ix *Index) Add(doc DocID, s seq.NucSeq) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, exists := ix.ords[doc]; exists {
		return fmt.Errorf("kmeridx: document %d already indexed", doc)
	}
	if err := ix.roomLocked(1); err != nil {
		return err
	}
	ord := ix.assignLocked(doc)
	seq.EachKmer(s, ix.k, func(pos int, km seq.Kmer) bool {
		ix.postings[km] = append(ix.postings[km], posting{ord: ord, pos: int32(pos)})
		return true
	})
	return nil
}

// roomLocked reports an error unless n more ordinals fit below deadOrd.
// Ordinals are never reused, so a long enough life of Adds exhausts them.
func (ix *Index) roomLocked(n int) error {
	if n > ix.maxOrds-len(ix.docs) {
		return fmt.Errorf("kmeridx: ordinal space exhausted at %d documents", len(ix.docs))
	}
	return nil
}

// assignLocked gives doc the next ordinal.
func (ix *Index) assignLocked(doc DocID) uint32 {
	ord := uint32(len(ix.docs))
	ix.docs = append(ix.docs, doc)
	ix.ords[doc] = ord
	return ord
}

// Doc pairs a document with its sequence for batch indexing.
type Doc struct {
	ID  DocID
	Seq seq.NucSeq
}

// AddAll indexes a batch of documents with a sharded parallel build:
// contiguous chunks of the batch are extracted into per-worker posting maps
// with batch-relative ordinals (no locking), then merged under one write
// lock in chunk order with the batch's base ordinal added, so the index
// ends up identical to serial Adds in batch order.
// The batch is applied atomically: on any duplicate DocID (within the batch
// or against the index) nothing is inserted and the offending document is
// named. workers <= 0 selects the default bound (see package parallel).
// The build runs inside a "kmeridx.add_all" span when ctx carries a
// tracer, and the chunked extraction observes cancellation.
func (ix *Index) AddAll(ctx context.Context, docs []Doc, workers int) (err error) {
	ctx, sp := trace.Start(ctx, "kmeridx.add_all")
	sp.SetAttr("docs", len(docs))
	defer func() { sp.EndSpan(err) }()
	if len(docs) == 0 {
		return nil
	}
	// Validate batch-internal uniqueness up front, serially and cheaply.
	seen := make(map[DocID]bool, len(docs))
	for _, d := range docs {
		if seen[d.ID] {
			return fmt.Errorf("kmeridx: document %d appears twice in batch", d.ID)
		}
		seen[d.ID] = true
	}
	workers = parallel.Clamp(workers, len(docs))
	sp.SetAttr("workers", workers)
	shards := make([]map[seq.Kmer][]posting, workers)
	err = parallel.ChunkEach(ctx, len(docs), workers, func(part int, sp parallel.Span) error {
		sh := make(map[seq.Kmer][]posting)
		for i := sp.Lo; i < sp.Hi; i++ {
			seq.EachKmer(docs[i].Seq, ix.k, func(pos int, km seq.Kmer) bool {
				sh[km] = append(sh[km], posting{ord: uint32(i), pos: int32(pos)})
				return true
			})
		}
		shards[part] = sh
		return nil
	})
	if err != nil {
		return err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, d := range docs {
		if _, exists := ix.ords[d.ID]; exists {
			return fmt.Errorf("kmeridx: document %d already indexed", d.ID)
		}
	}
	if err := ix.roomLocked(len(docs)); err != nil {
		return err
	}
	base := uint32(len(ix.docs))
	for _, d := range docs {
		ix.assignLocked(d.ID)
	}
	// Shards cover contiguous chunks and every new ordinal is above the
	// existing ones; merging in chunk order keeps every list sorted.
	for _, sh := range shards {
		for km, ps := range sh {
			for i := range ps {
				ps[i].ord += base
			}
			ix.postings[km] = append(ix.postings[km], ps...)
		}
	}
	return nil
}

// Remove drops a document from the index. s must be the sequence the
// document was added with: only the posting lists of its k-mers are
// visited, and in each the document's run is found by binary search, so
// the cost is proportional to the document, not to the index. Removing a
// document that is not indexed is a no-op.
func (ix *Index) Remove(doc DocID, s seq.NucSeq) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ord, exists := ix.ords[doc]
	if !exists {
		return
	}
	delete(ix.ords, doc)
	seq.EachKmer(s, ix.k, func(_ int, km seq.Kmer) bool {
		ps := ix.postings[km]
		lo, hi := ordRun(ps, ord)
		switch {
		case lo == hi:
			// A repeated k-mer: its list is already clean.
		case hi-lo == len(ps):
			delete(ix.postings, km)
		default:
			ix.postings[km] = append(ps[:lo], ps[hi:]...)
		}
		return true
	})
	if len(ix.docs)-len(ix.ords) > len(ix.ords) {
		ix.renumberLocked()
	}
}

// ordRun returns the bounds of ord's postings in ps, which is sorted by
// (ord, pos).
func ordRun(ps []posting, ord uint32) (lo, hi int) {
	lo = sort.Search(len(ps), func(i int) bool { return ps[i].ord >= ord })
	hi = lo
	for hi < len(ps) && ps[hi].ord == ord {
		hi++
	}
	return lo, hi
}

// renumberLocked gives the live documents the ordinals 0..n-1 in their
// current order and drops every posting of a dead ordinal. The mapping
// preserves order, so every list stays sorted. It runs once dead ordinals
// outnumber live ones, so its cost is spread over at least as many
// Removes as there are live documents.
func (ix *Index) renumberLocked() {
	remap := make([]uint32, len(ix.docs))
	live := ix.docs[:0]
	for o, doc := range ix.docs {
		// Entries below o may be rewritten already; docs[o] is not yet.
		if !ix.liveLocked(uint32(o)) {
			remap[o] = deadOrd
			continue
		}
		remap[o] = uint32(len(live))
		ix.ords[doc] = uint32(len(live))
		live = append(live, doc)
	}
	ix.docs = live
	for km, ps := range ix.postings {
		kept := ps[:0]
		for _, p := range ps {
			if n := remap[p.ord]; n != deadOrd {
				kept = append(kept, posting{ord: n, pos: p.pos})
			}
		}
		if len(kept) == 0 {
			delete(ix.postings, km)
		} else {
			ix.postings[km] = kept
		}
	}
}

// liveLocked reports whether ordinal o belongs to an indexed document.
func (ix *Index) liveLocked(o uint32) bool {
	cur, ok := ix.ords[ix.docs[o]]
	return ok && cur == o
}

// Docs returns the number of indexed documents.
func (ix *Index) Docs() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.ords)
}

// Candidates returns the documents that may contain the pattern, by
// intersecting posting lists of the pattern's k-mers at consistent offsets.
// Every true match is a candidate (no false negatives); candidates may
// still need verification when pattern bases beyond whole k-mer windows
// exist — Lookup performs that verification.
func (ix *Index) Candidates(pattern string) ([]DocID, error) {
	pat, err := seq.NewNucSeq(seq.AlphaDNA, pattern)
	if err != nil {
		return nil, fmt.Errorf("kmeridx: bad pattern: %w", err)
	}
	if pat.Len() < ix.k {
		return nil, &ErrPatternTooShort{PatternLen: pat.Len(), K: ix.k}
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	// Candidate (ord, start) pairs, seeded by the first k-mer's list and
	// still sorted by (ord, start). cands aliases that list until the
	// first merge writes into a slice of its own.
	first, _ := seq.KmerAt(pat, 0, ix.k)
	cands := ix.postings[first]
	owned := false
	// Confirm each subsequent non-overlapping k-mer window (stride k), then
	// the final window anchored at the pattern end.
	last := pat.Len() - ix.k
	for off := ix.k; off < last+ix.k && len(cands) > 0; off += ix.k {
		if off > last {
			off = last
		}
		km, _ := seq.KmerAt(pat, off, ix.k)
		list := ix.postings[km]
		kept := cands[:0]
		if !owned {
			kept = make([]posting, 0, min(len(cands), len(list)))
			owned = true
		}
		cands = intersect(kept, cands, list, int32(off))
	}
	var out []DocID
	for i, c := range cands {
		if (i == 0 || cands[i-1].ord != c.ord) && ix.liveLocked(c.ord) {
			out = append(out, ix.docs[c.ord])
		}
	}
	slices.Sort(out)
	return out, nil
}

// intersect appends to dst the candidates c for which list holds
// (c.ord, c.pos+off), by one linear merge of the two sorted inputs. dst
// may share cands' backing array: it never gets ahead of the read cursor.
func intersect(dst, cands, list []posting, off int32) []posting {
	j := 0
	for _, c := range cands {
		want := c.pos + off
		for j < len(list) && (list[j].ord < c.ord || list[j].ord == c.ord && list[j].pos < want) {
			j++
		}
		if j == len(list) {
			break
		}
		if list[j].ord == c.ord && list[j].pos == want {
			dst = append(dst, c)
		}
	}
	return dst
}

// Lookup returns the documents that contain the pattern, verifying each
// candidate against the actual sequence via fetch. fetch errors abort the
// lookup. Verification fans out across at most workers goroutines
// (workers <= 0 selects the default bound), so fetch must be safe for
// concurrent use (the database's row fetch is). Results are in candidate
// (ascending DocID) order and identical for any worker count. The lookup
// runs inside a "kmeridx.lookup" span (candidate count recorded as an
// event) and verification observes cancellation.
func (ix *Index) Lookup(ctx context.Context, pattern string, fetch func(DocID) (seq.NucSeq, error), workers int) (out []DocID, err error) {
	ctx, sp := trace.Start(ctx, "kmeridx.lookup")
	sp.SetAttr("pattern", pattern)
	defer func() { sp.EndSpan(err) }()
	cands, err := ix.Candidates(pattern)
	if err != nil {
		return nil, err
	}
	sp.Eventf("%d candidates to verify", len(cands))
	pat, err := seq.NewNucSeq(seq.AlphaDNA, pattern)
	if err != nil {
		return nil, err
	}
	verdicts, err := parallel.Map(ctx, cands, workers, func(_ int, doc DocID) (bool, error) {
		s, err := fetch(doc)
		if err != nil {
			return false, fmt.Errorf("kmeridx: verifying doc %d: %w", doc, err)
		}
		return s.Contains(pat), nil
	})
	if err != nil {
		return nil, err
	}
	for i, ok := range verdicts {
		if ok {
			out = append(out, cands[i])
		}
	}
	return out, nil
}

// SeedHits returns, for similarity search, the documents sharing at least
// minSeeds distinct k-mer positions with the query, ordered by descending
// shared-seed count.
func (ix *Index) SeedHits(query seq.NucSeq, minSeeds int) []DocID {
	if minSeeds < 1 {
		minSeeds = 1
	}
	type dc struct {
		doc DocID
		n   int
	}
	var hits []dc
	counts := make(map[uint32]int)
	ix.mu.RLock()
	seq.EachKmer(query, ix.k, func(pos int, km seq.Kmer) bool {
		for _, p := range ix.postings[km] {
			counts[p.ord]++
		}
		return true
	})
	for o, n := range counts {
		if n >= minSeeds && ix.liveLocked(o) {
			hits = append(hits, dc{ix.docs[o], n})
		}
	}
	ix.mu.RUnlock()
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].n != hits[j].n {
			return hits[i].n > hits[j].n
		}
		return hits[i].doc < hits[j].doc
	})
	out := make([]DocID, len(hits))
	for i, h := range hits {
		out[i] = h.doc
	}
	return out
}

// Stats summarizes index shape for the planner's cost model.
type Stats struct {
	Docs         int
	DistinctKmer int
	Postings     int
}

// Stats returns current index statistics.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	st := Stats{Docs: len(ix.ords), DistinctKmer: len(ix.postings)}
	for _, ps := range ix.postings {
		st.Postings += len(ps)
	}
	return st
}
