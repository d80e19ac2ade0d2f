package align

import (
	"context"
	"fmt"
	"sort"

	"genalg/internal/parallel"
	"genalg/internal/seq"
)

// Hit is one seed-and-extend match of a query against a subject sequence.
type Hit struct {
	SubjectID string
	Score     int
	// Query and subject spans of the extended high-scoring pair.
	QStart, QEnd int
	SStart, SEnd int
}

// Database is an in-memory collection of subject sequences indexed by k-mer
// for seeded similarity search — the role BLAST plays for the paper's
// mediator wrappers and the resembles operator.
type Database struct {
	k        int
	subjects []subject
	// index maps a k-mer to packed (subject, position) postings.
	index map[seq.Kmer][]posting
}

type subject struct {
	id string
	s  seq.NucSeq
}

type posting struct {
	subj int
	pos  int
}

// NewDatabase creates a seeded search database with word length k
// (typically 8-12 for DNA).
func NewDatabase(k int) (*Database, error) {
	if k < 4 || k > seq.MaxK {
		return nil, fmt.Errorf("align: word length %d out of range [4,%d]", k, seq.MaxK)
	}
	return &Database{k: k, index: make(map[seq.Kmer][]posting)}, nil
}

// Add indexes a subject sequence under the given identifier.
func (db *Database) Add(id string, s seq.NucSeq) {
	idx := len(db.subjects)
	db.subjects = append(db.subjects, subject{id: id, s: s})
	seq.EachKmer(s, db.k, func(pos int, km seq.Kmer) bool {
		db.index[km] = append(db.index[km], posting{subj: idx, pos: pos})
		return true
	})
}

// Len returns the number of subjects.
func (db *Database) Len() int { return len(db.subjects) }

// SearchOptions tunes the seed-and-extend search.
type SearchOptions struct {
	Scoring Scoring
	// XDrop stops an extension when the running score falls this far below
	// the best score seen (default 8).
	XDrop int
	// MinScore filters hits below this score (default 0: keep all).
	MinScore int
	// MaxHits caps the number of returned hits (default 0: unlimited).
	MaxHits int
}

func (o *SearchOptions) fill() {
	if o.Scoring == (Scoring{}) {
		o.Scoring = DefaultScoring
	}
	if o.XDrop == 0 {
		o.XDrop = 8
	}
}

// diagKey identifies a (subject, diagonal) seed group; the search keeps one
// best hit per group.
type diagKey struct {
	subj int
	diag int
}

// sortHits orders hits by descending score, then subject, then query start —
// the canonical output order of Search and its parallel variants.
func sortHits(hits []Hit) {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		if hits[i].SubjectID != hits[j].SubjectID {
			return hits[i].SubjectID < hits[j].SubjectID
		}
		return hits[i].QStart < hits[j].QStart
	})
}

// Search finds high-scoring local matches of query against the database by
// seeding on shared k-mers and extending each seed in both directions with
// an x-drop cutoff. Hits are returned sorted by descending score, one best
// hit per (subject, diagonal) pair. Candidate seed extensions fan out
// across at most workers goroutines (workers <= 0 selects the default
// bound; see package parallel) by sharding the subject space. Hits are
// byte-identical to the serial search for any worker count, because each
// (subject, diagonal) group is owned by exactly one worker and the merged
// hit set is sorted with the same comparator. The fan-out honours ctx, so
// a cancelled search stops instead of scanning every subject.
func (db *Database) Search(ctx context.Context, query seq.NucSeq, opts SearchOptions, workers int) []Hit {
	return db.searchSharded(ctx, query, opts, parallel.Clamp(workers, len(db.subjects)))
}

// extend grows an exact k-mer seed at (qpos, spos) into a gapless
// high-scoring pair using x-drop extension in both directions.
func (db *Database) extend(query seq.NucSeq, subj, qpos, spos int, opts SearchOptions) Hit {
	s := db.subjects[subj].s
	sc := opts.Scoring
	// Seed is an exact match of length k.
	score := db.k * sc.Match
	qs, qe := qpos, qpos+db.k
	ss, se := spos, spos+db.k

	// Extend right.
	bestScore, run := score, score
	bqe, bse := qe, se
	for qe < query.Len() && se < s.Len() {
		if query.At(qe) == s.At(se) {
			run += sc.Match
		} else {
			run += sc.Mismatch
		}
		qe++
		se++
		if run > bestScore {
			bestScore, bqe, bse = run, qe, se
		}
		if run < bestScore-opts.XDrop {
			break
		}
	}
	qe, se, score = bqe, bse, bestScore

	// Extend left.
	run = score
	bqs, bss := qs, ss
	for qs > 0 && ss > 0 {
		if query.At(qs-1) == s.At(ss-1) {
			run += sc.Match
		} else {
			run += sc.Mismatch
		}
		qs--
		ss--
		if run > score {
			score, bqs, bss = run, qs, ss
		}
		if run < score-opts.XDrop {
			break
		}
	}
	qs, ss = bqs, bss

	return Hit{
		SubjectID: db.subjects[subj].id,
		Score:     score,
		QStart:    qs, QEnd: qe,
		SStart: ss, SEnd: se,
	}
}

// Resembles reports whether a and b share a local alignment whose score is
// at least minScore under the default scoring. It is the implementation
// behind the algebra's resembles operator.
func Resembles(a, b seq.NucSeq, minScore int) (bool, error) {
	r, err := Local(a, b, DefaultScoring)
	if err != nil {
		return false, err
	}
	return r.Score >= minScore, nil
}
