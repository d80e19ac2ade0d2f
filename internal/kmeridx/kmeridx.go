// Package kmeridx implements the genomic index structure of the paper's
// Section 6.5: a k-mer inverted index over a corpus of nucleotide sequences
// supporting substring (contains) search and similarity seeding. The
// Unifying Database plugs it in as a user-defined index on DNA columns, the
// same way B-trees serve scalar columns.
package kmeridx

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"genalg/internal/parallel"
	"genalg/internal/seq"
	"genalg/internal/trace"
)

// DocID identifies an indexed sequence (the database uses record IDs).
type DocID uint64

// posting records one k-mer occurrence.
type posting struct {
	doc DocID
	pos int32
}

// Index is a k-mer inverted index. It is safe for concurrent use.
type Index struct {
	k  int
	mu sync.RWMutex
	// postings per k-mer, append-ordered (doc insertion order).
	postings map[seq.Kmer][]posting
	docLens  map[DocID]int
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
		docLens:  make(map[DocID]int),
	}, nil
}

// K returns the word length.
func (ix *Index) K() int { return ix.k }

// Add indexes a document. Re-adding an existing DocID is an error; Remove
// first. K-mer extraction runs outside the write lock so concurrent readers
// (and other writers' extractions) are not blocked by the O(len) scan.
func (ix *Index) Add(doc DocID, s seq.NucSeq) error {
	sh := extract(s, ix.k, doc)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, exists := ix.docLens[doc]; exists {
		return fmt.Errorf("kmeridx: document %d already indexed", doc)
	}
	ix.mergeLocked(sh, s.Len(), doc)
	return nil
}

// shard is the postings extracted from one or more documents, buffered
// outside the index lock.
type shard struct {
	postings map[seq.Kmer][]posting
}

// extract builds the posting map of a single document lock-free.
func extract(s seq.NucSeq, k int, doc DocID) shard {
	sh := shard{postings: make(map[seq.Kmer][]posting)}
	seq.EachKmer(s, k, func(pos int, km seq.Kmer) bool {
		sh.postings[km] = append(sh.postings[km], posting{doc: doc, pos: int32(pos)})
		return true
	})
	return sh
}

// mergeLocked appends a shard's postings under the held write lock. Within
// each k-mer the shard's postings are already in document order, so
// appending whole slices preserves the serial append order.
func (ix *Index) mergeLocked(sh shard, docLen int, doc DocID) {
	ix.docLens[doc] = docLen
	for km, ps := range sh.postings {
		ix.postings[km] = append(ix.postings[km], ps...)
	}
}

// Doc pairs a document with its sequence for batch indexing.
type Doc struct {
	ID  DocID
	Seq seq.NucSeq
}

// AddAll indexes a batch of documents with a sharded parallel build:
// contiguous chunks of the batch are extracted into per-worker posting maps
// (no locking), then merged under one write lock in chunk order, so the
// resulting posting lists are byte-identical to serial Adds in batch order.
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
	shards := make([]shard, workers)
	err = parallel.ChunkEach(ctx, len(docs), workers, func(part int, sp parallel.Span) error {
		sh := shard{postings: make(map[seq.Kmer][]posting)}
		for i := sp.Lo; i < sp.Hi; i++ {
			d := docs[i]
			seq.EachKmer(d.Seq, ix.k, func(pos int, km seq.Kmer) bool {
				sh.postings[km] = append(sh.postings[km], posting{doc: d.ID, pos: int32(pos)})
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
		if _, exists := ix.docLens[d.ID]; exists {
			return fmt.Errorf("kmeridx: document %d already indexed", d.ID)
		}
	}
	for _, d := range docs {
		ix.docLens[d.ID] = d.Seq.Len()
	}
	// Shards cover contiguous chunks; merging them in chunk order keeps
	// every posting list in batch order, matching serial Adds.
	for _, sh := range shards {
		for km, ps := range sh.postings {
			ix.postings[km] = append(ix.postings[km], ps...)
		}
	}
	return nil
}

// Remove drops a document from the index. s must be the sequence the
// document was added with: only the posting lists of its distinct k-mers
// are visited, so the cost is proportional to the document, not to the
// index. Removing a document that is not indexed is a no-op.
func (ix *Index) Remove(doc DocID, s seq.NucSeq) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, exists := ix.docLens[doc]; !exists {
		return
	}
	delete(ix.docLens, doc)
	seen := make(map[seq.Kmer]bool, s.Len())
	seq.EachKmer(s, ix.k, func(_ int, km seq.Kmer) bool {
		if seen[km] {
			return true // a repeated k-mer: its list is already clean
		}
		seen[km] = true
		ps := ix.postings[km]
		kept := ps[:0]
		for _, p := range ps {
			if p.doc != doc {
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			delete(ix.postings, km)
		} else {
			ix.postings[km] = kept
		}
		return true
	})
}

// Docs returns the number of indexed documents.
func (ix *Index) Docs() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docLens)
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

	// Seed with the first k-mer's postings: candidate (doc, start) pairs.
	first, _ := seq.KmerAt(pat, 0, ix.k)
	type cand struct {
		doc   DocID
		start int32
	}
	var cands []cand
	for _, p := range ix.postings[first] {
		cands = append(cands, cand{doc: p.doc, start: p.pos})
	}
	if len(cands) == 0 {
		return nil, nil
	}
	// Confirm each subsequent non-overlapping k-mer window (stride k), plus
	// the final window anchored at the pattern end.
	checkOffsets := make([]int, 0, pat.Len()/ix.k+1)
	for off := ix.k; off+ix.k <= pat.Len(); off += ix.k {
		checkOffsets = append(checkOffsets, off)
	}
	if last := pat.Len() - ix.k; last > 0 && (len(checkOffsets) == 0 || checkOffsets[len(checkOffsets)-1] != last) {
		checkOffsets = append(checkOffsets, last)
	}
	for _, off := range checkOffsets {
		km, _ := seq.KmerAt(pat, off, ix.k)
		want := make(map[cand]bool, len(cands))
		for _, c := range cands {
			want[cand{doc: c.doc, start: c.start + int32(off)}] = true
		}
		var kept []cand
		for _, p := range ix.postings[km] {
			if want[cand{doc: p.doc, start: p.pos}] {
				kept = append(kept, cand{doc: p.doc, start: p.pos - int32(off)})
			}
		}
		cands = kept
		if len(cands) == 0 {
			return nil, nil
		}
	}
	seen := make(map[DocID]bool)
	var out []DocID
	for _, c := range cands {
		if !seen[c.doc] {
			seen[c.doc] = true
			out = append(out, c.doc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
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
	counts := make(map[DocID]int)
	ix.mu.RLock()
	seq.EachKmer(query, ix.k, func(pos int, km seq.Kmer) bool {
		for _, p := range ix.postings[km] {
			counts[p.doc]++
		}
		return true
	})
	ix.mu.RUnlock()
	type dc struct {
		doc DocID
		n   int
	}
	var hits []dc
	for doc, n := range counts {
		if n >= minSeeds {
			hits = append(hits, dc{doc, n})
		}
	}
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
	st := Stats{Docs: len(ix.docLens), DistinctKmer: len(ix.postings)}
	for _, ps := range ix.postings {
		st.Postings += len(ps)
	}
	return st
}
