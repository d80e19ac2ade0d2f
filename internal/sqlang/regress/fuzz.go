package regress

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"genalg/internal/db"
)

// FuzzOptions configures one differential fuzzing run.
type FuzzOptions struct {
	// Seed fixes the statement stream. Same seed + same fixture = same
	// statements, byte for byte.
	Seed int64
	// N caps the number of generated statements (0 = no cap).
	N int
	// Duration caps wall-clock time (0 = no cap). When both N and
	// Duration are zero, Fuzz runs a default of 1000 statements.
	Duration time.Duration
	// MaxDivergences stops the run after this many divergences have been
	// found, shrunk, and reported (default 1).
	MaxDivergences int
	// Out, when non-empty, is the directory where corpus-ready
	// reproducer .sql files are written.
	Out string
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// FoundDivergence is one divergence after shrinking.
type FoundDivergence struct {
	Divergence
	// Template names the generator template that produced the statement.
	Template string
	// Minimal is the shrunk statement that still diverges.
	Minimal string
	// File is the reproducer path ("" when FuzzOptions.Out was empty).
	File string
}

// FuzzResult summarizes a fuzzing run.
type FuzzResult struct {
	Statements int
	ExecErrors int
	// PlanCacheHits counts statements the non-reference runners executed
	// on a cached plan (see RunDifferential).
	PlanCacheHits int64
	Divergences   []FoundDivergence
	Elapsed       time.Duration
	// Weights is the final adaptive template-weight table.
	Weights map[string]float64
}

// NewFuzzEnv builds the standard fuzzing environment: a fresh database
// loaded with the standard fixture, and the full differential runner
// matrix with statistics analyzed on every engine.
func NewFuzzEnv() (*db.DB, []Runner, error) {
	d, err := NewDB()
	if err != nil {
		return nil, nil, err
	}
	runners := Runners(d)
	for _, sql := range FixtureSQL() {
		if _, err := runners[0].Eng.Exec(sql); err != nil {
			d.Close()
			return nil, nil, fmt.Errorf("fixture: %q: %w", sql, err)
		}
	}
	if err := AnalyzeAll(d, runners); err != nil {
		d.Close()
		return nil, nil, err
	}
	return d, runners, nil
}

// Fuzz generates random statements against d and differentially checks
// every runner against runners[0]. Each divergence is shrunk to a
// minimal still-diverging statement and — when opts.Out is set —
// written out as a corpus-ready reproducer (it carries the
// `-- fixture: standard` directive, so dropping the file into the
// corpus directory and running `sqlregress update` turns the bug into
// a permanent regression baseline).
func Fuzz(d *db.DB, runners []Runner, opts FuzzOptions) (*FuzzResult, error) {
	if opts.MaxDivergences <= 0 {
		opts.MaxDivergences = 1
	}
	if opts.N == 0 && opts.Duration == 0 {
		opts.N = 1000
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	gen, err := NewGenerator(d, opts.Seed)
	if err != nil {
		return nil, err
	}
	res := &FuzzResult{}
	hits0 := PlanCacheHits(runners)
	start := time.Now()
	for i := 0; ; i++ {
		if opts.N > 0 && i >= opts.N {
			break
		}
		if opts.Duration > 0 && time.Since(start) >= opts.Duration {
			break
		}
		sql := gen.Next()
		div, out := RunDifferential(runners, sql)
		res.Statements++
		if out.Err {
			res.ExecErrors++
		}
		gen.Feedback(out)
		if i > 0 && i%2000 == 0 {
			logf("fuzz: %d statements, %d errors, %d divergences (%.0f stmt/s)",
				res.Statements, res.ExecErrors, len(res.Divergences),
				float64(res.Statements)/time.Since(start).Seconds())
		}
		if div == nil {
			continue
		}
		logf("fuzz: statement %d diverged (%s vs %s), shrinking", i, div.Ref, div.Other)
		fd := FoundDivergence{Divergence: *div, Template: gen.LastTemplate()}
		fd.Minimal = ShrinkSQL(sql, func(cand string) bool {
			d2, _ := RunDifferential(runners, cand)
			return d2 != nil
		})
		// The shrunk statement's divergence detail is more useful than the
		// original's; re-derive it.
		if d2, _ := RunDifferential(runners, fd.Minimal); d2 != nil {
			fd.Ref, fd.Other = d2.Ref, d2.Other
			fd.RefOut, fd.OtherOut = d2.RefOut, d2.OtherOut
		}
		if opts.Out != "" {
			path, err := writeReproducer(opts.Out, opts.Seed, i, sql, fd)
			if err != nil {
				return res, err
			}
			fd.File = path
			logf("fuzz: reproducer written to %s", path)
		}
		res.Divergences = append(res.Divergences, fd)
		if len(res.Divergences) >= opts.MaxDivergences {
			break
		}
	}
	res.Elapsed = time.Since(start)
	res.PlanCacheHits = PlanCacheHits(runners) - hits0
	res.Weights = gen.Weights()
	return res, nil
}

// writeReproducer emits a corpus-ready .sql file for a shrunk
// divergence.
func writeReproducer(dir string, seed int64, stmtIdx int, original string, fd FoundDivergence) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("repro_seed%d_stmt%d.sql", seed, stmtIdx)
	path := filepath.Join(dir, name)
	body := fmt.Sprintf(`-- sqlregress fuzz reproducer (seed %d, statement %d, template %s)
-- diverged: %s vs %s
-- original: %s
-- fixture: standard
%s;
`, seed, stmtIdx, fd.Template, fd.Ref, fd.Other, original, fd.Minimal)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
