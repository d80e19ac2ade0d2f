package align

import (
	"context"

	"genalg/internal/parallel"
	"genalg/internal/seq"
	"genalg/internal/trace"
)

// Job is one alignment task in a batch: align A against B.
type Job struct {
	A, B seq.NucSeq
}

// GlobalAll computes Needleman-Wunsch alignments for every job on at most
// workers goroutines (workers <= 0 selects the default bound). Results are
// in job order and identical to calling Global per job serially; the
// lowest-index error is returned on failure. The batch runs inside an
// "align.global_all" trace span when ctx carries a tracer.
func GlobalAll(ctx context.Context, jobs []Job, sc Scoring, workers int) (out []Result, err error) {
	ctx, sp := trace.Start(ctx, "align.global_all")
	sp.SetAttr("jobs", len(jobs))
	sp.SetAttr("workers", parallel.Clamp(workers, len(jobs)))
	defer func() { sp.EndSpan(err) }()
	out, err = parallel.Map(ctx, jobs, workers, func(_ int, j Job) (Result, error) {
		return Global(j.A, j.B, sc)
	})
	return out, err
}

// LocalAll computes Smith-Waterman alignments for every job on at most
// workers goroutines, with the same ordering and error guarantees as
// GlobalAll (span "align.local_all").
func LocalAll(ctx context.Context, jobs []Job, sc Scoring, workers int) (out []Result, err error) {
	ctx, sp := trace.Start(ctx, "align.local_all")
	sp.SetAttr("jobs", len(jobs))
	sp.SetAttr("workers", parallel.Clamp(workers, len(jobs)))
	defer func() { sp.EndSpan(err) }()
	out, err = parallel.Map(ctx, jobs, workers, func(_ int, j Job) (Result, error) {
		return Local(j.A, j.B, sc)
	})
	return out, err
}

// ResemblesAll scores query against every candidate concurrently and
// reports, per candidate, whether the best local alignment reaches
// minScore — the batch form of the algebra's resembles operator, used to
// verify similarity candidates fan-out style (span "align.resembles_all").
func ResemblesAll(ctx context.Context, query seq.NucSeq, candidates []seq.NucSeq, minScore, workers int) (out []bool, err error) {
	ctx, sp := trace.Start(ctx, "align.resembles_all")
	sp.SetAttr("candidates", len(candidates))
	sp.SetAttr("min_score", minScore)
	defer func() { sp.EndSpan(err) }()
	out, err = parallel.Map(ctx, candidates, workers, func(_ int, c seq.NucSeq) (bool, error) {
		return Resembles(query, c, minScore)
	})
	return out, err
}

// SearchAll runs the seed-and-extend search for every query on at most
// workers goroutines, returning per-query hit lists in query order. Each
// query's hits are identical to a serial Search call. The batch runs
// inside an "align.search_all" span with query/hit counts.
func (db *Database) SearchAll(ctx context.Context, queries []seq.NucSeq, opts SearchOptions, workers int) [][]Hit {
	ctx, sp := trace.Start(ctx, "align.search_all")
	sp.SetAttr("queries", len(queries))
	out, _ := parallel.Map(ctx, queries, workers, func(_ int, q seq.NucSeq) ([]Hit, error) {
		return db.searchSharded(ctx, q, opts, 1), nil
	})
	hits := 0
	for _, hs := range out {
		hits += len(hs)
	}
	sp.SetAttr("hits", hits)
	sp.EndOK()
	return out
}

// searchSharded runs the seed scan restricted to subjects of each shard on
// its own worker, then merges. shards == 1 is the serial path.
func (db *Database) searchSharded(ctx context.Context, query seq.NucSeq, opts SearchOptions, shards int) []Hit {
	opts.fill()
	if shards < 1 {
		shards = 1
	}
	perShard := make([]map[diagKey]Hit, shards)
	_ = parallel.ForEach(ctx, shards, shards, func(shard int) error {
		best := make(map[diagKey]Hit)
		seq.EachKmer(query, db.k, func(qpos int, km seq.Kmer) bool {
			for _, p := range db.index[km] {
				if shards > 1 && p.subj%shards != shard {
					continue
				}
				key := diagKey{subj: p.subj, diag: qpos - p.pos}
				if prev, ok := best[key]; ok {
					// Skip seeds falling inside an already-extended hit on the
					// same diagonal — the extension would rediscover it.
					if qpos >= prev.QStart && qpos < prev.QEnd {
						continue
					}
				}
				h := db.extend(query, p.subj, qpos, p.pos, opts)
				if h.Score < opts.MinScore {
					continue
				}
				if prev, ok := best[key]; !ok || h.Score > prev.Score {
					best[key] = h
				}
			}
			return true
		})
		perShard[shard] = best
		return nil
	})
	n := 0
	for _, m := range perShard {
		n += len(m)
	}
	hits := make([]Hit, 0, n)
	for _, m := range perShard {
		for _, h := range m {
			hits = append(hits, h)
		}
	}
	sortHits(hits)
	if opts.MaxHits > 0 && len(hits) > opts.MaxHits {
		hits = hits[:opts.MaxHits]
	}
	return hits
}
