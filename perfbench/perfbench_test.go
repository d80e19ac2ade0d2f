package main

import (
	"encoding/json"
	"net"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"genalg/internal/wire"
)

func TestFixtureIsAFunctionOfTheSeed(t *testing.T) {
	a, b := NewFixture(7), NewFixture(7)
	if !reflect.DeepEqual(a.SetupStatements(), b.SetupStatements()) {
		t.Fatal("same seed, different fixture statements")
	}
	if !reflect.DeepEqual(a.Patterns, b.Patterns) || !reflect.DeepEqual(a.hits, b.hits) {
		t.Fatal("same seed, different patterns")
	}
	if reflect.DeepEqual(a.SetupStatements(), NewFixture(8).SetupStatements()) {
		t.Fatal("different seeds, same fixture statements")
	}
	if len(a.Patterns) < 1000 {
		t.Fatalf("%d patterns, want at least 1000", len(a.Patterns))
	}
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	fx := NewFixture(7)
	for _, w := range workloads {
		first := func(seed int64, conn int) []string {
			s := NewStream(w.Name, fx, seed, conn)
			var out []string
			for i := 0; i < 50; i++ {
				out = append(out, s.Next().SQL)
			}
			return out
		}
		if !reflect.DeepEqual(first(7, 0), first(7, 0)) {
			t.Errorf("%s: same seed, different statements", w.Name)
		}
		if reflect.DeepEqual(first(7, 0), first(7, 1)) {
			t.Errorf("%s: two connections run the same statements", w.Name)
		}
		if reflect.DeepEqual(first(7, 0), first(8, 0)) {
			t.Errorf("%s: different seeds, same statements", w.Name)
		}
	}
}

func TestPatternHitsMatchBruteForce(t *testing.T) {
	fx := NewFixture(3)
	for p, pat := range fx.Patterns[:50] {
		var want []int
		for i, f := range fx.Frags {
			if strings.Contains(f.Seq, pat) {
				want = append(want, i)
			}
		}
		if !reflect.DeepEqual(fx.Hits(pat), want) {
			t.Fatalf("pattern %d %s: hits %v, want %v", p, pat, fx.Hits(pat), want)
		}
	}
}

// pointRows is the answer a correct daemon returns for a lookup of f.
func pointRows(f Frag) [][]any {
	q, _ := strconv.ParseFloat(f.Quality, 64)
	return [][]any{{f.ID, f.Src, q, int64(f.Len)}}
}

func TestVerifiersRejectWrongAnswers(t *testing.T) {
	fx := NewFixture(5)

	f := fx.Frags[42]
	point := pointLookupOp(fx, 42)
	if err := point.Verify(pointRows(f), 0); err != nil {
		t.Fatalf("point: correct answer rejected: %v", err)
	}
	if point.Verify(nil, 0) == nil {
		t.Error("point: dropped row accepted")
	}
	if point.Verify(append(pointRows(f), pointRows(f)...), 0) == nil {
		t.Error("point: duplicated row accepted")
	}
	wrong := pointRows(f)
	wrong[0][3] = int64(f.Len + 20)
	if point.Verify(wrong, 0) == nil {
		t.Error("point: wrong flen accepted")
	}

	p := 0
	for len(fx.Hits(fx.Patterns[p])) < 2 && p < len(fx.Patterns)-1 {
		p++
	}
	search := genomicOp(fx, p)
	var rows [][]any
	for _, i := range fx.Hits(fx.Patterns[p]) {
		rows = append(rows, []any{fx.Frags[i].ID})
	}
	if err := search.Verify(rows, 0); err != nil {
		t.Fatalf("search: correct answer rejected: %v", err)
	}
	if len(rows) > 1 && search.Verify(rows[1:], 0) == nil {
		t.Error("search: dropped row accepted")
	}
	if search.Verify(append(rows, []any{"F99999"}), 0) == nil {
		t.Error("search: extra row accepted")
	}

	scan := analyticOp(fx, "0.5000")
	want := fx.GroupCounts(0.5)
	var groups [][]any
	for _, label := range sortedKeys(want) {
		groups = append(groups, []any{label, int64(want[label])})
	}
	if err := scan.Verify(groups, 0); err != nil {
		t.Fatalf("analytic: correct answer rejected: %v", err)
	}
	if scan.Verify(groups[1:], 0) == nil {
		t.Error("analytic: dropped group accepted")
	}
	groups[0][1] = groups[0][1].(int64) + 1
	if scan.Verify(groups, 0) == nil {
		t.Error("analytic: wrong count accepted")
	}

	ins := NewStream("ingest", fx, 5, 0).Next()
	if err := ins.Verify(nil, ingestRows); err != nil {
		t.Fatalf("ingest: correct answer rejected: %v", err)
	}
	if ins.Verify(nil, ingestRows-1) == nil {
		t.Error("ingest: short insert accepted")
	}
}

// serveThenBreak answers the wire hello and then `answers` point
// lookups correctly from fx, and hangs up on the next request: a daemon
// dying mid-phase.
func serveThenBreak(t *testing.T, fx *Fixture, answers int) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for n := -1; n < answers; n++ {
			req, err := wire.ReadRequest(conn)
			if err != nil {
				return
			}
			resp := wire.Response{ID: req.ID}
			if req.Op == wire.OpExec {
				i := strings.Index(req.SQL, "id = '")
				resp.Rows = pointRows(fx.Frags[fx.byID[req.SQL[i+6:i+12]]])
			}
			if err := wire.WriteMessage(conn, resp); err != nil {
				return
			}
		}
		_, _ = wire.ReadRequest(conn)
	}()
	return ln.Addr().String()
}

func TestBrokenConnectionIsAFailedOperation(t *testing.T) {
	fx := NewFixture(5)
	c, err := wire.Dial(serveThenBreak(t, fx, 3), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := &session{target: make(chan struct{})}
	var tl tally
	recs := s.connLoop(c, NewStream("point_lookup", fx, 5, 0), &tl, func(n int) bool { return n >= 100 })
	if len(recs) != 4 || !recs[0].ok || !recs[2].ok || recs[3].ok {
		t.Fatalf("records %+v, want three verified operations and then one failed", recs)
	}
	if tl.attempted != 4 || tl.failed != 1 {
		t.Errorf("tally %d attempted, %d failed; want 4 and 1", tl.attempted, tl.failed)
	}
}

func TestDurabilityCheck(t *testing.T) {
	fx := NewFixture(5)
	s := NewStream("ingest", fx, 5, 0)
	for i := 0; i < 4; i++ {
		s.Next()
	}
	// Batches 0 and 1 acknowledged, 2 sent but not acknowledged, 3 never sent.
	for i, b := range s.Batches {
		b.Attempted = i < 3
		b.Acked = i < 2
	}
	name := func(i int) string { return s.Batches[i].Name }
	streams := []*Stream{s}
	for _, got := range []map[string]int{
		{name(0): ingestRows, name(1): ingestRows},
		{name(0): ingestRows, name(1): ingestRows, name(2): ingestRows},
	} {
		if err := checkDurability(streams, got); err != nil {
			t.Errorf("valid recovery %v rejected: %v", got, err)
		}
	}
	for _, got := range []map[string]int{
		{name(0): ingestRows}, // acknowledged batch lost
		{name(0): ingestRows, name(1): ingestRows, name(3): ingestRows},     // never attempted
		{name(0): ingestRows, name(1): ingestRows - 1},                      // torn batch
		{name(0): ingestRows, name(1): ingestRows, "c9-000000": ingestRows}, // unknown batch
	} {
		if checkDurability(streams, got) == nil {
			t.Errorf("invalid recovery %v accepted", got)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile is the subset of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNamesAndBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []string
	for name := range units {
		e2e = append(e2e, name)
	}
	layer = ledgerMetricNames()
	check := func(kind string, emitted []string, listed []struct{ Name, Unit, Better string }) {
		var names []string
		for _, m := range listed {
			names = append(names, m.Name)
			if m.Unit != unitOf(m.Name) {
				t.Errorf("%s %s: BENCHMARK.json unit %q, emitted %q", kind, m.Name, m.Unit, unitOf(m.Name))
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better %q", kind, m.Name, m.Better)
			}
		}
		for _, n := range emitted {
			if !metricName.MatchString(n) {
				t.Errorf("%s metric name %q has characters outside [A-Za-z0-9_.-]", kind, n)
			}
		}
		sort.Strings(names)
		sort.Strings(emitted)
		if !reflect.DeepEqual(names, emitted) {
			t.Errorf("%s metrics: BENCHMARK.json lists %v, the benchmark emits %v", kind, names, emitted)
		}
	}
	check("end-to-end", e2e, bf.EndToEnd)
	check("per-layer", layer, bf.PerLayer)
	var ws []string
	for _, w := range bf.Workloads {
		ws = append(ws, w.Name)
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown", w.Name)
		}
	}
	if len(ws) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the benchmark has %d workloads", ws, len(workloads))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median %v, want 3", q)
	}
	if q := quantile(xs, 0.95); q < 4.799 || q > 4.801 {
		t.Errorf("p95 %v, want 4.8", q)
	}
}

func TestSummaryTakesMedianOverWindows(t *testing.T) {
	// Five one-second windows of windowMinOps operations; the host slows
	// two of them down threefold.
	ph := &phase{}
	for i, slow := range []bool{false, true, false, true, false} {
		f := 1.0
		if slow {
			f = 3
		}
		w := window{secs: 1, cpu: f * windowMinOps / 1000, full: true}
		for j := 0; j < windowMinOps; j++ {
			w.lat = append(w.lat, f*(1+float64(j%10)/100+float64(i)/1000))
		}
		ph.windows = append(ph.windows, w)
		ph.lat = append(ph.lat, w.lat...)
		ph.ok += len(w.lat)
	}
	// An unfinished window is ignored.
	ph.windows = append(ph.windows, window{secs: 0.1, cpu: 10, lat: []float64{99}})
	m := ph.summary()
	if m["ok_ratio"] != 1 {
		t.Errorf("ok_ratio %v, want 1", m["ok_ratio"])
	}
	if m["p50_ms"] > 1.1 || m["p95_ms"] > 1.2 {
		t.Errorf("p50 %v p95 %v: slowed windows leaked into the figures", m["p50_ms"], m["p95_ms"])
	}
	if m["ops_per_s"] != windowMinOps {
		t.Errorf("ops_per_s %v, want %v", m["ops_per_s"], windowMinOps)
	}
	if c := m["cpu_ms_per_op"]; c < 0.999 || c > 1.001 {
		t.Errorf("cpu_ms_per_op %v, want 1", c)
	}
}
