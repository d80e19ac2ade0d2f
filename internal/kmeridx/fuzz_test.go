package kmeridx

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"genalg/internal/seq"
)

// program reads a fuzz input as a stream of small numbers; past the end
// it reads zeros.
type program struct {
	b []byte
	i int
}

func (p *program) done() bool { return p.i >= len(p.b) }

func (p *program) next() int {
	if p.done() {
		return 0
	}
	p.i++
	return int(p.b[p.i-1])
}

// dna reads a length and a seed and returns that many random bases.
func (p *program) dna() seq.NucSeq {
	n, r := p.next()%40, rand.New(rand.NewSource(int64(p.next())))
	bases := make([]seq.Base, n)
	for i := range bases {
		bases[i] = seq.Base(r.Intn(4))
	}
	return seq.FromBases(seq.AlphaDNA, bases)
}

// FuzzIndexAgainstScan runs random Add, AddAll and Remove sequences over
// short DNA, with repeated DocIDs and removes of absent documents, and
// after every step checks the index against a brute-force model: the
// live documents and their sequences. The input picks k = 4, a dense
// directory, or k = 9, a map.
func FuzzIndexAgainstScan(f *testing.F) {
	// Ops: 0/1 Add(id, dna), 2 Remove(id), 3 AddAll(n, workers, n*(id, dna)).
	seeds := [][]byte{
		{0, 1, 30, 7, 0, 2, 25, 8, 2, 1, 0, 0, 0, 1, 30, 7},
		{3, 3, 2, 1, 20, 1, 2, 20, 2, 1, 20, 3, 3, 1, 0, 4, 5, 6},
	}
	// Churn: eight documents in, six out (a renumbering), three more in.
	churn := []byte{3, 3, 1, 1, 39, 1, 2, 39, 2, 3, 39, 3, 4, 39, 4, 3, 3, 1, 5, 39, 5, 6, 39, 6, 7, 39, 7, 8, 39, 8}
	for _, id := range []byte{1, 3, 5, 7, 2, 8} {
		churn = append(churn, 2, id, 0, 0)
	}
	churn = append(churn, 0, 9, 33, 9, 1, 1, 33, 10, 0, 3, 12, 3)
	seeds = append(seeds, churn)
	for _, sparse := range []bool{false, true} {
		for _, b := range seeds {
			f.Add(sparse, b)
		}
	}
	f.Fuzz(func(t *testing.T, sparse bool, b []byte) {
		k := 4
		if sparse {
			k = 9
		}
		ix, err := New(k)
		if err != nil {
			t.Fatal(err)
		}
		model := map[DocID]seq.NucSeq{}
		p := &program{b: b}
		// Patterns come from their own source, so the program's bytes are
		// all operations.
		pats := rand.New(rand.NewSource(int64(len(b))))
		for step := 0; !p.done() && step < 48; step++ {
			switch op := p.next() % 4; op {
			case 0, 1:
				id, s := DocID(p.next()%12), p.dna()
				_, dup := model[id]
				if err := ix.Add(id, s); (err != nil) != dup {
					t.Fatalf("step %d: Add(%d) = %v with doc live=%v", step, id, err, dup)
				}
				if !dup {
					model[id] = s
				}
			case 2:
				id, s := DocID(p.next()%12), p.dna()
				if live, ok := model[id]; ok {
					s = live
				}
				ix.Remove(id, s)
				delete(model, id)
			case 3:
				n, workers := 1+p.next()%4, 1+p.next()%3
				batch := make([]Doc, n)
				bad := false
				seen := map[DocID]bool{}
				for i := range batch {
					batch[i] = Doc{ID: DocID(p.next() % 12), Seq: p.dna()}
					_, live := model[batch[i].ID]
					bad = bad || live || seen[batch[i].ID]
					seen[batch[i].ID] = true
				}
				if err := ix.AddAll(context.Background(), batch, workers); (err != nil) != bad {
					t.Fatalf("step %d: AddAll = %v, want failure=%v", step, err, bad)
				}
				if !bad {
					for _, d := range batch {
						model[d.ID] = d.Seq
					}
				}
			}
			checkAgainstScan(t, ix, model, pats)
		}
	})
}

// checkAgainstScan compares the index with the model: its shape, and the
// answers of Candidates and SeedHits for a pattern cut from each live
// document plus one random pattern.
func checkAgainstScan(t *testing.T, ix *Index, model map[DocID]seq.NucSeq, r *rand.Rand) {
	t.Helper()
	k := ix.K()
	if got := ix.Docs(); got != len(model) {
		t.Fatalf("Docs = %d, model has %d", got, len(model))
	}
	// Shape: ordinal tables agree, lists sorted by (ord, pos) and hold
	// exactly the model's k-mer occurrences, dead ordinals bounded.
	for doc, o := range ix.ords {
		if int(o) >= len(ix.docs) || ix.docs[o] != doc {
			t.Fatalf("ords[%d] = %d does not map back", doc, o)
		}
	}
	if len(ix.docs) > 2*len(ix.ords) {
		t.Fatalf("%d ordinals for %d live documents", len(ix.docs), len(ix.ords))
	}
	ix.dir.each(func(km seq.Kmer, ps []posting) {
		for i := 1; i < len(ps); i++ {
			if a, b := ps[i-1], ps[i]; a.ord > b.ord || a.ord == b.ord && a.pos >= b.pos {
				t.Fatalf("list %s unsorted at %d: %v", seq.KmerString(km, k), i, ps)
			}
		}
	})
	want := map[seq.Kmer][]docPos{}
	for doc, s := range model {
		seq.EachKmer(s, k, func(pos int, km seq.Kmer) bool {
			want[km] = append(want[km], docPos{doc, int32(pos)})
			return true
		})
	}
	got := byDoc(ix)
	for _, m := range []map[seq.Kmer][]docPos{want, got} {
		for _, ps := range m {
			sort.Slice(ps, func(i, j int) bool {
				return ps[i].doc < ps[j].doc || ps[i].doc == ps[j].doc && ps[i].pos < ps[j].pos
			})
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("postings %v, model %v", got, want)
	}

	// Answers.
	var pats []seq.NucSeq
	ids := make([]DocID, 0, len(model))
	for doc := range model {
		ids = append(ids, doc)
	}
	slices.Sort(ids)
	for _, doc := range ids {
		if n := model[doc].Len(); n > 0 {
			lo := r.Intn(n)
			pats = append(pats, model[doc].Slice(lo, min(n, lo+1+r.Intn(3*k))))
		}
	}
	pats = append(pats, randDNA(r.Int63(), r.Intn(3*k)))
	for _, pat := range pats {
		var scan []DocID
		for doc, s := range model {
			if s.Contains(pat) {
				scan = append(scan, doc)
			}
		}
		slices.Sort(scan)
		cands, err := ix.Candidates(pat.String())
		if pat.Len() < k {
			var short *ErrPatternTooShort
			if !errors.As(err, &short) {
				t.Fatalf("Candidates(%s) = %v, want ErrPatternTooShort", pat, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Candidates(%s): %v", pat, err)
		}
		// The windows Candidates intersects cover every base of the
		// pattern at consistent offsets, so its sorted answer is exact.
		if !slices.Equal(cands, scan) {
			t.Fatalf("Candidates(%s) = %v, scan finds %v", pat, cands, scan)
		}
		for _, minSeeds := range []int{1, 3} {
			if got, want := ix.SeedHits(pat, minSeeds), scanSeedHits(model, pat, k, minSeeds); !slices.Equal(got, want) {
				t.Fatalf("SeedHits(%s, %d) = %v, scan gives %v", pat, minSeeds, got, want)
			}
		}
	}
}

// scanSeedHits is SeedHits by brute force: for each query position, every
// occurrence of its k-mer in a document is one seed for that document.
func scanSeedHits(model map[DocID]seq.NucSeq, query seq.NucSeq, k, minSeeds int) []DocID {
	type dc struct {
		doc DocID
		n   int
	}
	var hits []dc
	for doc, s := range model {
		n := 0
		seq.EachKmer(query, k, func(_ int, q seq.Kmer) bool {
			seq.EachKmer(s, k, func(_ int, km seq.Kmer) bool {
				if km == q {
					n++
				}
				return true
			})
			return true
		})
		if n >= minSeeds {
			hits = append(hits, dc{doc, n})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		return hits[i].n > hits[j].n || hits[i].n == hits[j].n && hits[i].doc < hits[j].doc
	})
	out := make([]DocID, len(hits))
	for i, h := range hits {
		out[i] = h.doc
	}
	return out
}
