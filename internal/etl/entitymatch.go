package etl

import (
	"crypto/sha256"
	"sort"

	"genalg/internal/align"
	"genalg/internal/gdt"
	"genalg/internal/kmeridx"
	"genalg/internal/seq"
)

// This file addresses the paper's Section 5.2 "Data integration" challenge:
// "How do we automatically detect relationships among similar entities,
// which are represented differently ...? This problem is commonly referred
// to as the semantic heterogeneity problem." Matching by accession (the
// Integrate fast path) misses entities that different repositories deposit
// under different identifiers. MatchEntities clusters wrapped entries by
// content — exact sequence identity first, then near-identity via k-mer
// seeding verified by alignment — so Integrate can merge them.

// MatchOptions tunes content-based entity matching.
type MatchOptions struct {
	// K is the k-mer word length for near-match seeding (default 11).
	K int
	// MinSeeds is the number of shared k-mers required to consider a
	// candidate pair (default 10).
	MinSeeds int
	// MinIdentity is the alignment identity needed to merge near-identical
	// sequences (default 0.95).
	MinIdentity float64
	// ExactOnly disables the near-match pass.
	ExactOnly bool
}

func (o *MatchOptions) fill() {
	if o.K == 0 {
		o.K = 11
	}
	if o.MinSeeds == 0 {
		o.MinSeeds = 10
	}
	if o.MinIdentity == 0 {
		o.MinIdentity = 0.95
	}
}

// MatchStats reports what the matcher found.
type MatchStats struct {
	// ExactMerges counts identity groups unified by exact sequence equality.
	ExactMerges int
	// NearMerges counts groups unified by verified near-identity.
	NearMerges int
	// Clusters is the number of output entity clusters.
	Clusters int
}

// entrySeq extracts the comparable sequence of an entry.
func entrySeq(e Entry) (seq.NucSeq, bool) {
	switch v := e.Value.(type) {
	case gdt.DNA:
		return v.Seq, true
	case gdt.Gene:
		return v.Seq, true
	}
	return seq.NucSeq{}, false
}

// MatchEntities clusters entries that denote the same physical entity even
// under different accessions. The returned entries are rewritten so that
// every member of a cluster shares the cluster's canonical ID (the
// lexicographically smallest member ID); Integrate then merges them with
// its usual reconciliation. The mapping from original to canonical IDs is
// returned for cross-reference bookkeeping.
func MatchEntities(entries []Entry, opts MatchOptions) ([]Entry, map[string]string, MatchStats) {
	opts.fill()
	stats := MatchStats{}

	// Union-find over entry IDs.
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(a, b string) bool {
		ra, rb := find(a), find(b)
		if ra == rb {
			return false
		}
		// Canonical = lexicographically smaller root.
		if rb < ra {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		return true
	}
	for _, e := range entries {
		find(e.ID)
	}

	// Pass 1: exact content matching by sequence hash. Same-ID entries are
	// trivially together already; hashing merges cross-accession twins.
	byHash := map[[32]byte][]string{}
	seqOf := map[string]seq.NucSeq{}
	for _, e := range entries {
		s, ok := entrySeq(e)
		if !ok {
			continue
		}
		if _, seen := seqOf[e.ID]; !seen {
			seqOf[e.ID] = s
		}
		h := sha256.Sum256([]byte(s.String()))
		byHash[h] = append(byHash[h], e.ID)
	}
	for _, ids := range byHash {
		for i := 1; i < len(ids); i++ {
			if union(ids[0], ids[i]) {
				stats.ExactMerges++
			}
		}
	}

	// Pass 2: near-identity. Index one representative per current cluster,
	// seed candidates by shared k-mers, verify by local alignment identity.
	if !opts.ExactOnly {
		reps := map[string]string{} // cluster root -> representative ID
		var order []string
		for id := range seqOf {
			root := find(id)
			if _, ok := reps[root]; !ok {
				reps[root] = id
				order = append(order, id)
			}
		}
		sort.Strings(order)
		ix, err := kmeridx.New(opts.K)
		if err == nil {
			docIDs := make(map[kmeridx.DocID]string, len(order))
			for i, id := range order {
				doc := kmeridx.DocID(i)
				docIDs[doc] = id
				_ = ix.Add(doc, seqOf[id])
			}
			for i, id := range order {
				hits := ix.SeedHits(seqOf[id], opts.MinSeeds)
				for _, hit := range hits {
					other := docIDs[hit]
					if other == id || int(hit) < i {
						continue // handled when the smaller index was the query
					}
					if find(id) == find(other) {
						continue
					}
					if nearIdentical(seqOf[id], seqOf[other], opts.MinIdentity) {
						if union(id, other) {
							stats.NearMerges++
						}
					}
				}
			}
		}
	}

	// Rewrite IDs to cluster canonical form.
	xref := map[string]string{}
	out := make([]Entry, len(entries))
	for i, e := range entries {
		canon := find(e.ID)
		if canon != e.ID {
			xref[e.ID] = canon
		}
		rewritten := e
		rewritten.ID = canon
		rewritten.Value = rewriteValueID(e.Value, canon)
		out[i] = rewritten
	}
	roots := map[string]bool{}
	for id := range parent {
		roots[find(id)] = true
	}
	stats.Clusters = len(roots)
	return out, xref, stats
}

// nearIdentical verifies a candidate pair by local alignment: the aligned
// region must cover most of the shorter sequence at the given identity.
func nearIdentical(a, b seq.NucSeq, minIdentity float64) bool {
	r, err := align.Local(a, b, align.DefaultScoring)
	if err != nil || len(r.Trace) == 0 {
		return false
	}
	shorter := a.Len()
	if b.Len() < shorter {
		shorter = b.Len()
	}
	coverage := float64(r.AEnd-r.AStart) / float64(shorter)
	return coverage >= 0.9 && r.Identity() >= minIdentity
}

// rewriteValueID stamps the canonical ID into the GDT value so warehouse
// rows stay self-describing.
func rewriteValueID(v gdt.Value, id string) gdt.Value {
	switch x := v.(type) {
	case gdt.DNA:
		x.ID = id
		return x
	case gdt.Gene:
		x.ID = id
		// The wrapper derives placeholder symbols from accessions; merged
		// twins must agree on them or identical sequences would register
		// as conflicts.
		x.Symbol = id
		return x
	}
	return v
}
