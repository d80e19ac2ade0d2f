package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Workload is one closed-loop traffic shape: Conns connections, each
// running its own seeded stream of a single statement shape.
type Workload struct {
	Name string
	// Conns is the number of concurrent connections (the host has 2 CPUs).
	Conns int
	// PoolPages is the daemon's -pool-pages.
	PoolPages int
	// WarmOps is how many operations each connection runs, untimed, as
	// the last step of set-up.
	WarmOps int
}

// ingestRows is the rows per ingest INSERT. An ingest run kills its last
// daemon once ingestKillAfter batches have been sent to it (warm-up
// included), so the log replayed on restart, and the memory the rows
// take, are the same from run to run whatever the throughput.
const (
	ingestRows      = 16
	ingestKillAfter = 2000
)

// analyticGrid is the number of analytic_scan thresholds.
const analyticGrid = 60

// Daemon settings shared by every workload and both sides of a
// comparison. The log only grows on an insert-only workload, and the
// daemon compacts it after every commit once it passes checkpointBytes,
// so the threshold sits far above what a run writes (~2.4 MiB of fixture
// plus a few MiB of ingest); the traced run measures checkpoints
// explicitly instead.
const (
	groupWindow     = 500 * time.Microsecond
	checkpointBytes = 256 << 20
	defaultPool     = 4096
)

// Every workload drives the daemon over one connection: with the client
// and the daemon on a 2-CPU host, a second connection puts more runnable
// threads on it than it has CPUs, and the figures then measure the
// scheduler more than the daemon (its throughput varied twice as much).
var workloads = []Workload{
	// A quarter of the ~530-page heap: uniform keys miss the pool.
	{Name: "point_lookup", Conns: 1, PoolPages: 128, WarmOps: 2000},
	{Name: "genomic_search", Conns: 1, PoolPages: defaultPool, WarmOps: 300},
	{Name: "analytic_scan", Conns: 1, PoolPages: defaultPool, WarmOps: 4},
	{Name: "ingest", Conns: 1, PoolPages: defaultPool, WarmOps: 100},
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Op is one generated statement with the check its answer must pass.
type Op struct {
	SQL string
	// Key is the point-lookup id or the genomic_search pattern.
	Key string
	// Verify checks the decoded answer; a non-nil error counts the
	// operation as failed.
	Verify func(rows [][]any, affected int) error
	// Batch is the ingest batch this operation inserts, or nil.
	Batch *BatchState
}

// Stream is one connection's deterministic statement sequence.
type Stream struct {
	w    string
	fx   *Fixture
	rng  *rand.Rand
	conn int
	perm []int // analytic_scan thresholds left in this pass
	// Ingest bookkeeping, for the durability check after a crash.
	Batches []*BatchState
	// AckedUserBytes is the user data of every acknowledged batch; the
	// connection's goroutine adds to it while perfbench samples it.
	AckedUserBytes atomic.Int64
}

// BatchState tracks one ingest batch: whether its INSERT was sent and
// whether the daemon acknowledged it.
type BatchState struct {
	Name             string
	Rows             []IngestRow
	UserBytes        int64
	Attempted, Acked bool
}

// IngestRow is one generated fragment of an ingest batch.
type IngestRow struct {
	ID, Quality string
	Len         int
	Seq         string
}

// NewStream returns connection conn's stream for workload w. Streams of
// different connections are independent; the same (fixture, seed, conn)
// always yields the same statements.
func NewStream(w string, fx *Fixture, seed int64, conn int) *Stream {
	mix := seed*1_000_003 + int64(conn)*7919 + 0x73747265
	return &Stream{w: w, fx: fx, rng: rand.New(rand.NewSource(mix)), conn: conn}
}

// Next returns the stream's next operation.
func (s *Stream) Next() Op {
	switch s.w {
	case "point_lookup":
		return pointLookupOp(s.fx, s.rng.Intn(numFrags))
	case "genomic_search":
		return genomicOp(s.fx, s.rng.Intn(len(s.fx.Patterns)))
	case "analytic_scan":
		// Thresholds step through a grid over the bulk of the G+C
		// distribution in a seeded order, a fresh permutation per pass, so
		// selectivity varies from op to op while every run of a few dozen
		// operations sees the same spread of it.
		if len(s.perm) == 0 {
			s.perm = s.rng.Perm(analyticGrid)
		}
		k := s.perm[0]
		s.perm = s.perm[1:]
		return analyticOp(s.fx, strconv.FormatFloat(0.4401+0.002*float64(k), 'f', 4, 64))
	case "ingest":
		return s.ingestOp()
	}
	panic("perfbench: unknown workload " + s.w)
}

func pointLookupOp(fx *Fixture, i int) Op {
	f := fx.Frags[i]
	return Op{
		SQL: fmt.Sprintf(`SELECT id, src, quality, flen FROM frags WHERE id = '%s'`, f.ID),
		Key: f.ID,
		Verify: func(rows [][]any, _ int) error {
			return verifyPoint(f, rows)
		},
	}
}

func verifyPoint(f Frag, rows [][]any) error {
	if len(rows) != 1 {
		return fmt.Errorf("point %s: %d rows, want 1", f.ID, len(rows))
	}
	row := rows[0]
	if len(row) != 4 {
		return fmt.Errorf("point %s: %d columns, want 4", f.ID, len(row))
	}
	q, _ := strconv.ParseFloat(f.Quality, 64)
	if row[0] != f.ID || row[1] != f.Src || !numEq(row[2], q) || !numEq(row[3], float64(f.Len)) {
		return fmt.Errorf("point %s: got %v", f.ID, row)
	}
	return nil
}

func genomicOp(fx *Fixture, p int) Op {
	pat := fx.Patterns[p]
	want := fx.Hits(pat)
	src := fx.Frags[fx.PatternSource[p]].ID
	return Op{
		SQL: fmt.Sprintf(`SELECT id FROM frags WHERE contains(fragment, '%s')`, pat),
		Key: pat,
		Verify: func(rows [][]any, _ int) error {
			return verifyGenomic(fx, pat, src, want, rows)
		},
	}
}

func verifyGenomic(fx *Fixture, pat, src string, want []int, rows [][]any) error {
	got := make([]string, 0, len(rows))
	for _, row := range rows {
		if len(row) != 1 {
			return fmt.Errorf("search %s: row %v", pat, row)
		}
		id, _ := row[0].(string)
		got = append(got, id)
	}
	sort.Strings(got)
	sawSrc := false
	for _, id := range got {
		i, ok := fx.byID[id]
		if !ok || !strings.Contains(fx.Frags[i].Seq, pat) {
			return fmt.Errorf("search %s: returned %q, which does not contain it", pat, id)
		}
		sawSrc = sawSrc || id == src
	}
	if !sawSrc {
		return fmt.Errorf("search %s: source fragment %s missing", pat, src)
	}
	if len(got) != len(want) {
		return fmt.Errorf("search %s: %d rows, want %d", pat, len(got), len(want))
	}
	for k, i := range want {
		if got[k] != fx.Frags[i].ID {
			return fmt.Errorf("search %s: row %d is %s, want %s", pat, k, got[k], fx.Frags[i].ID)
		}
	}
	return nil
}

func analyticOp(fx *Fixture, th string) Op {
	x, _ := strconv.ParseFloat(th, 64)
	want := fx.GroupCounts(x)
	return Op{
		SQL: `SELECT grps.label, COUNT(*) FROM frags JOIN reads ON frags.id = reads.frag_id ` +
			`JOIN grps ON reads.grp = grps.grp WHERE gccontent(frags.fragment) > ` + th + ` GROUP BY grps.label`,
		Verify: func(rows [][]any, _ int) error {
			return verifyGroups(th, want, rows)
		},
	}
}

func verifyGroups(th string, want map[string]int, rows [][]any) error {
	if len(rows) != len(want) {
		return fmt.Errorf("analytic > %s: %d groups, want %d", th, len(rows), len(want))
	}
	for _, row := range rows {
		if len(row) != 2 {
			return fmt.Errorf("analytic > %s: row %v", th, row)
		}
		label, _ := row[0].(string)
		n, ok := want[label]
		if !ok || !numEq(row[1], float64(n)) {
			return fmt.Errorf("analytic > %s: group %q count %v, want %d", th, label, row[1], n)
		}
	}
	return nil
}

// ingestOp inserts a batch of new fragments into the indexed ingest
// table.
func (s *Stream) ingestOp() Op {
	b := &BatchState{Name: fmt.Sprintf("c%d-%06d", s.conn, len(s.Batches))}
	s.Batches = append(s.Batches, b)
	var sb strings.Builder
	sb.WriteString("INSERT INTO ingest VALUES ")
	letters := "ACGT"
	seq := make([]byte, 80+8*20)
	for j := 0; j < ingestRows; j++ {
		n := 80 + s.rng.Intn(9)*20
		for k := 0; k < n; k++ {
			seq[k] = letters[s.rng.Intn(4)]
		}
		r := IngestRow{
			ID:      fmt.Sprintf("%s-%02d", b.Name, j),
			Quality: strconv.FormatFloat(s.rng.Float64(), 'f', 3, 64),
			Len:     n,
			Seq:     string(seq[:n]),
		}
		if j > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, `('%s', '%s', %s, %d, dna('%s', '%s'))`, r.ID, b.Name, r.Quality, n, r.ID, r.Seq)
		b.Rows = append(b.Rows, r)
		b.UserBytes += fragUserBytes(r.ID, b.Name, n)
	}
	return Op{SQL: sb.String(), Batch: b, Verify: func(_ [][]any, affected int) error {
		if affected != ingestRows {
			return fmt.Errorf("insert %s: affected %d rows, want %d", b.Name, affected, ingestRows)
		}
		return nil
	}}
}

// checkDurability compares the batches a restarted daemon holds (rows
// per batch) against what the connections sent: acknowledged ⊆ recovered
// ⊆ attempted, and every recovered batch is whole.
func checkDurability(streams []*Stream, recovered map[string]int) error {
	known := make(map[string]*BatchState)
	for _, s := range streams {
		for _, b := range s.Batches {
			known[b.Name] = b
		}
	}
	for _, name := range sortedKeys(recovered) {
		if b, ok := known[name]; !ok || !b.Attempted {
			return fmt.Errorf("durability: recovered batch %s was never attempted", name)
		}
		if recovered[name] != ingestRows {
			return fmt.Errorf("durability: batch %s recovered %d rows, want %d", name, recovered[name], ingestRows)
		}
	}
	for _, name := range sortedKeys(known) {
		if known[name].Acked && recovered[name] == 0 {
			return fmt.Errorf("durability: acknowledged batch %s lost", name)
		}
	}
	return nil
}

// numEq compares a decoded JSON number (int64 or float64) with want.
func numEq(v any, want float64) bool {
	switch x := v.(type) {
	case int64:
		return float64(x) == want
	case float64:
		return x == want
	}
	return false
}
