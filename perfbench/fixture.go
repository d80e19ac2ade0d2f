package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Fixture sizes. The heap they produce (~530 pages) fits the daemon's
// default 4096-page pool; point_lookup shrinks the pool below it.
const (
	numFrags   = 10000
	numReads   = 40000
	numGroups  = 50
	kmerK      = 8
	patternLen = kmerK + 8
	// numPatterns distinct fragment substrings feed genomic_search.
	numPatterns       = 1200
	fragRowsPerInsert = 64
	readRowsPerInsert = 256
)

var sources = []string{"genbank", "embl", "ddbj", "pdb"}

// Frag is one row of the frags table as perfbench generated it.
type Frag struct {
	ID      string
	Src     string
	Quality string // decimal literal, exactly as sent
	Len     int
	Seq     string
	GC      float64 // G+C fraction, computed as the engine's gccontent does
}

// Read is one row of the reads table; Frag indexes Fixture.Frags.
type Read struct {
	RID   int
	Frag  int
	Score string
	Grp   int
}

// Fixture is the seeded dataset every workload queries: DNA fragments
// under a B-tree (id) and a k-mer index (fragment), reads referencing
// them, and groups the reads belong to. Generation is a pure function of
// the seed, so perfbench can verify every answer without asking the
// daemon.
type Fixture struct {
	Seed     int64
	Frags    []Frag
	Reads    []Read
	Labels   []string // group label by grp
	Patterns []string // distinct fragment substrings of length patternLen
	// PatternSource is the fragment each pattern was cut from.
	PatternSource []int

	byID map[string]int
	hits map[string][]int // pattern -> every fragment containing it
}

// NewFixture generates the fixture for seed.
func NewFixture(seed int64) *Fixture {
	r := rand.New(rand.NewSource(seed))
	fx := &Fixture{Seed: seed, byID: make(map[string]int, numFrags)}
	letters := "ACGT"
	var sb strings.Builder
	for i := 0; i < numFrags; i++ {
		n := 80 + r.Intn(9)*20
		sb.Reset()
		gc := 0
		for j := 0; j < n; j++ {
			c := letters[r.Intn(4)]
			if c == 'G' || c == 'C' {
				gc++
			}
			sb.WriteByte(c)
		}
		f := Frag{
			ID:      fmt.Sprintf("F%05d", i),
			Src:     sources[i%len(sources)],
			Quality: strconv.FormatFloat(r.Float64(), 'f', 3, 64),
			Len:     n,
			Seq:     sb.String(),
			GC:      float64(gc) / float64(n),
		}
		fx.byID[f.ID] = i
		fx.Frags = append(fx.Frags, f)
	}
	for i := 0; i < numReads; i++ {
		fx.Reads = append(fx.Reads, Read{
			RID:   i,
			Frag:  r.Intn(numFrags),
			Score: strconv.FormatFloat(r.Float64()*10, 'f', 3, 64),
			Grp:   r.Intn(numGroups),
		})
	}
	for g := 0; g < numGroups; g++ {
		fx.Labels = append(fx.Labels, fmt.Sprintf("G%02d", g))
	}
	seen := make(map[string]bool, numPatterns)
	for len(fx.Patterns) < numPatterns {
		i := r.Intn(numFrags)
		s := fx.Frags[i].Seq
		start := r.Intn(len(s) - patternLen + 1)
		p := s[start : start+patternLen]
		if seen[p] {
			continue
		}
		seen[p] = true
		fx.Patterns = append(fx.Patterns, p)
		fx.PatternSource = append(fx.PatternSource, i)
	}
	fx.indexPatterns()
	return fx
}

// SetupStatements is the DDL, data and ANALYZE that build the fixture,
// in order. The ingest table starts empty; only the ingest workload
// writes to it.
func (fx *Fixture) SetupStatements() []string {
	var out []string
	out = append(out,
		`CREATE TABLE frags (id string NOT NULL, src string, quality float, flen int, fragment dna)`,
		`CREATE INDEX ON frags (id)`,
		fmt.Sprintf(`CREATE GENOMIC INDEX ON frags (fragment) USING %d`, kmerK),
		`CREATE TABLE reads (rid int NOT NULL, frag_id string, score float, grp int)`,
		`CREATE INDEX ON reads (frag_id)`,
		`CREATE TABLE grps (grp int NOT NULL, label string, weight float)`,
		`CREATE INDEX ON grps (grp)`,
		`CREATE TABLE ingest (id string NOT NULL, batch string, quality float, flen int, fragment dna)`,
		`CREATE INDEX ON ingest (id)`,
		fmt.Sprintf(`CREATE GENOMIC INDEX ON ingest (fragment) USING %d`, kmerK),
	)
	var rows []string
	flush := func(table string) {
		if len(rows) > 0 {
			out = append(out, "INSERT INTO "+table+" VALUES "+strings.Join(rows, ", "))
			rows = rows[:0]
		}
	}
	for _, f := range fx.Frags {
		rows = append(rows, fmt.Sprintf(`('%s', '%s', %s, %d, dna('%s', '%s'))`, f.ID, f.Src, f.Quality, f.Len, f.ID, f.Seq))
		if len(rows) == fragRowsPerInsert {
			flush("frags")
		}
	}
	flush("frags")
	for _, rd := range fx.Reads {
		rows = append(rows, fmt.Sprintf(`(%d, '%s', %s, %d)`, rd.RID, fx.Frags[rd.Frag].ID, rd.Score, rd.Grp))
		if len(rows) == readRowsPerInsert {
			flush("reads")
		}
	}
	flush("reads")
	r := rand.New(rand.NewSource(fx.Seed ^ 0x67727073))
	for g, label := range fx.Labels {
		rows = append(rows, fmt.Sprintf(`(%d, '%s', %s)`, g, label, strconv.FormatFloat(0.5+r.Float64(), 'f', 2, 64)))
	}
	flush("grps")
	return append(out, `ANALYZE frags`, `ANALYZE reads`, `ANALYZE grps`)
}

// UserBytes is the row data a user handed the fixture: the bytes of
// every value as generated (strings and sequences by length, numbers at
// eight bytes). It is the denominator of space_amp.
func (fx *Fixture) UserBytes() int64 {
	var n int64
	for _, f := range fx.Frags {
		n += fragUserBytes(f.ID, f.Src, len(f.Seq))
	}
	for _, rd := range fx.Reads {
		n += 8 + int64(len(fx.Frags[rd.Frag].ID)) + 8 + 8
	}
	for _, l := range fx.Labels {
		n += 8 + int64(len(l)) + 8
	}
	return n
}

// fragUserBytes counts one fragment-shaped row: id, a string column,
// quality, length, and the sequence named by id.
func fragUserBytes(id, str string, seqLen int) int64 {
	return int64(len(id)+len(str)) + 8 + 8 + int64(len(id)+seqLen)
}

// indexPatterns records, for every pattern, each fragment containing it,
// by sliding a window over every sequence once.
func (fx *Fixture) indexPatterns() {
	fx.hits = make(map[string][]int, len(fx.Patterns))
	for _, p := range fx.Patterns {
		fx.hits[p] = nil
	}
	for i, f := range fx.Frags {
		for j := 0; j+patternLen <= len(f.Seq); j++ {
			w := f.Seq[j : j+patternLen]
			if hs, ok := fx.hits[w]; ok && (len(hs) == 0 || hs[len(hs)-1] != i) {
				fx.hits[w] = append(hs, i)
			}
		}
	}
}

// Hits returns every fragment index whose sequence contains pattern, one
// of fx.Patterns, in ascending order.
func (fx *Fixture) Hits(pattern string) []int { return fx.hits[pattern] }

// GroupCounts is the analytic_scan answer: per group label, how many
// reads point at a fragment whose G+C fraction exceeds threshold.
func (fx *Fixture) GroupCounts(threshold float64) map[string]int {
	out := make(map[string]int)
	for _, rd := range fx.Reads {
		if fx.Frags[rd.Frag].GC > threshold {
			out[fx.Labels[rd.Grp]]++
		}
	}
	return out
}

// sortedKeys returns m's keys in order, for stable diagnostics.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
