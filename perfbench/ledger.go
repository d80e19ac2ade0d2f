package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"genalg/internal/adapter"
	"genalg/internal/db"
	"genalg/internal/gdt"
	"genalg/internal/genalgd"
	"genalg/internal/genops"
	"genalg/internal/kmeridx"
	"genalg/internal/obs"
	"genalg/internal/seq"
	"genalg/internal/sqlang"
	"genalg/internal/storage"
	"genalg/internal/trace"
	"genalg/internal/wal"
	"genalg/internal/wire"
)

// ledgerTimings are the per-layer timings, each reported as its p50 over
// the traced run together with a ".n" sample count. A layer the workload
// does not reach reports 0 with n = 0.
var ledgerTimings = []string{
	"wire.roundtrip_us", "genalgd.exec_us", "sqlang.parse_us", "sqlang.exec_us",
	"db.index_lookup_us", "db.get_us", "db.genomic_lookup_us", "adapter.udf_us",
	"sqlang.access_us", "sqlang.filter_us", "sqlang.join_us", "sqlang.aggregate_us",
	"db.apply_dml_us", "wal.checkpoint_ms",
}

// ledgerValues are the per-layer counts and ratios.
var ledgerValues = []string{
	"storage.hit_ratio", "storage.evictions_per_op",
	"ledger.allocs_per_op", "ledger.alloc_bytes_per_op",
	"ledger.residual_us", "ledger.trace_overhead_us",
	"kmeridx.candidates_per_hit", "sqlang.rows_examined_per_row", "parallel.cpu_per_wall",
	"wal.txns_per_fsync", "wal.bytes_per_user_byte", "wal.checkpoints",
	"wal.decode_s", "db.replay_s",
}

// ledgerMetricNames lists every per-layer metric the traced run emits.
func ledgerMetricNames() []string {
	var out []string
	for _, t := range ledgerTimings {
		out = append(out, t, t+".n")
	}
	return append(out, ledgerValues...)
}

// Shares of -seconds spent in each phase of the traced run.
const (
	ledgerDaemonShare   = 0.4 // untraced daemon phase, for the client p50
	ledgerUntracedShare = 0.2 // untraced in-process phase, the overhead baseline
	ledgerTracedShare   = 0.3 // traced in-process phase
	ledgerMaxTraced     = 6000
	udfCallsPerRequest  = 1000 // gccontent calls timed per analytic request
	ledgerCheckpoints   = 3
	ledgerRecoveries    = 3
)

// inproc is the engine stack of one process: a durable DB with the same
// options as the daemon, the SQL engine, and a genalgd server on
// loopback with a wire client.
type inproc struct {
	dir       string
	d         *db.DB
	eng       *sqlang.Engine
	engReg    *obs.Registry
	execHist  *obs.Histogram
	srv       *genalgd.Server
	client    *wire.Client
	serveDone chan error
}

func durableOptions(poolPages int) db.DurableOptions {
	return db.DurableOptions{
		PoolPages:       poolPages,
		Install:         func(d *db.DB) error { return adapter.Install(d, genops.NewKernel()) },
		GroupWindow:     groupWindow,
		CheckpointBytes: checkpointBytes,
	}
}

func (e *runEnv) openInproc() (*inproc, error) {
	ip := &inproc{dir: filepath.Join(e.dir, "inproc"), engReg: obs.New(), serveDone: make(chan error, 1)}
	d, _, err := db.OpenDurable(ip.dir, durableOptions(e.w.PoolPages))
	if err != nil {
		return nil, err
	}
	ip.d = d
	ip.eng = sqlang.NewEngine(d)
	ip.eng.Obs = ip.engReg
	for _, stmt := range e.setup {
		if _, err := ip.eng.Exec(stmt); err != nil {
			d.Close()
			return nil, fmt.Errorf("fixture statement %.60q: %w", stmt, err)
		}
	}
	srvReg := obs.New()
	ip.execHist = srvReg.Histogram("genalgd.op.exec.seconds")
	ip.srv, err = genalgd.New(genalgd.Config{Engine: ip.eng, Registry: srvReg})
	if err != nil {
		d.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	go func() { ip.serveDone <- ip.srv.Serve(ln) }()
	ip.client, err = wire.Dial(ln.Addr().String(), 10*time.Second)
	if err != nil {
		ip.close()
		return nil, err
	}
	return ip, nil
}

func (ip *inproc) close() {
	if ip.client != nil {
		_ = ip.client.Close()
	}
	_ = ip.srv.Close()
	<-ip.serveDone
	_ = ip.d.Close()
}

// ledgerRun holds the traced run's working state.
type ledgerRun struct {
	e  *runEnv
	ip *inproc
	// Workload-specific probes.
	kix       *kmeridx.Index // standalone k-mer index over the fixture
	udf       db.ExternalFunc
	udfArgs   []any // gccontent arguments for analytic requests
	cands     int64
	hits      int64
	udfPerUs  []float64 // adapter.udf_us samples (per call)
	rowsOut   int64
	userBytes int64 // ingest user data written in-process
}

// runLedger is the traced run. It measures the client-observed p50 on
// the daemon (untraced), then runs the same statement stream through an
// in-process stack twice — untraced for the overhead baseline, then
// traced — timing each layer's public entry point in its own span.
// Requests rotate over the rungs (wire, sqlang, db), so every rung sees
// fresh keys and a write is applied exactly once.
func (e *runEnv) runLedger(workDir string) (map[string]float64, error) {
	m := make(map[string]float64)
	for _, n := range ledgerMetricNames() {
		m[n] = 0
	}

	e.withObs = true
	// Two writers, so that group commit has commits to share an fsync
	// with; the untraced ingest run keeps to one connection.
	if e.w.Name == "ingest" {
		e.w.Conns = 2
	}
	s, _, err := e.setUp(0)
	if err != nil {
		return nil, err
	}
	defer s.kill()
	c0, err := s.d.counters()
	if err != nil {
		return nil, err
	}
	ph, err := e.timed(s, time.Duration(e.seconds*ledgerDaemonShare/windowsPerSegment*float64(time.Second)), false)
	if err != nil {
		return nil, err
	}
	c1, err := s.d.counters()
	if err != nil {
		return nil, err
	}
	s.kill()
	// Group commit is measured on the daemon, where the two writers can
	// share an fsync; the in-process run has one stream.
	if fs := c1["wal.fsyncs"] - c0["wal.fsyncs"]; fs > 0 {
		m["wal.txns_per_fsync"] = float64(c1["wal.appends"]-c0["wal.appends"]) / float64(fs)
	}
	// A plain median, like the in-process p50 it is compared with.
	clientP50 := median(ph.lat) * 1000
	m["parallel.cpu_per_wall"] = ph.cpuSecs() / ph.wall

	ip, err := e.openInproc()
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			ip.close()
		}
	}()
	lr := &ledgerRun{e: e, ip: ip}
	if err := lr.prepare(); err != nil {
		return nil, err
	}
	st := NewStream(e.w.Name, e.fx, e.seed, 100)
	for i := 0; i < e.w.WarmOps; i++ {
		lr.roundtrip(context.Background(), st.Next())
	}

	// Untraced: wire round trips only. Allocations are counted over the
	// whole stack, client and server, less those made generating the
	// statements, which happens in chunks outside the timed calls.
	var plain []float64
	var allocs, allocBytes uint64
	var ms0, ms1 runtime.MemStats
	end := time.Now().Add(time.Duration(e.seconds * ledgerUntracedShare * float64(time.Second)))
	for time.Now().Before(end) {
		ops := make([]Op, 64)
		for i := range ops {
			ops[i] = st.Next()
		}
		runtime.ReadMemStats(&ms0)
		for _, op := range ops {
			t0 := time.Now()
			lr.roundtrip(context.Background(), op)
			plain = append(plain, float64(time.Since(t0))/float64(time.Microsecond))
		}
		runtime.ReadMemStats(&ms1)
		allocs += ms1.Mallocs - ms0.Mallocs
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	}
	m["ledger.allocs_per_op"] = float64(allocs) / float64(len(plain))
	m["ledger.alloc_bytes_per_op"] = float64(allocBytes) / float64(len(plain))

	// Traced.
	tr := trace.New(trace.Sampling{Mode: trace.SampleAlways}, ledgerMaxTraced+ledgerCheckpoints)
	ctx := trace.WithTracer(context.Background(), tr)
	lr.rowsOut = 0
	pool0 := ip.d.PoolStats()
	rows0 := ip.engReg.Counter("sqlang.batch.rows").Value()
	// The in-process log reports to obs.Default: db.DurableOptions
	// passes it no registry.
	ckpts0 := obs.Default.Counter("wal.checkpoints").Value()
	end = time.Now().Add(time.Duration(e.seconds * ledgerTracedShare * float64(time.Second)))
	n := 0
	for ; n < ledgerMaxTraced && time.Now().Before(end); n++ {
		rctx, root := trace.Start(ctx, "bench.request")
		lr.request(rctx, st.Next(), n%3)
		root.EndOK()
	}
	pool1 := ip.d.PoolStats()
	m["storage.hit_ratio"] = hitRatio(pool0, pool1)
	m["storage.evictions_per_op"] = float64(pool1.Evictions-pool0.Evictions) / float64(n)
	if lr.rowsOut > 0 {
		m["sqlang.rows_examined_per_row"] = float64(ip.engReg.Counter("sqlang.batch.rows").Value()-rows0) / float64(lr.rowsOut)
	}
	if lr.hits > 0 {
		m["kmeridx.candidates_per_hit"] = float64(lr.cands) / float64(lr.hits)
	}
	m["wal.bytes_per_user_byte"] = float64(walSize(ip.dir)) / float64(e.fx.UserBytes()+lr.userBytes)
	if e.w.Name == "ingest" {
		for i := 0; i < ledgerCheckpoints; i++ {
			rctx, root := trace.Start(ctx, "bench.checkpoint")
			_, sp := trace.Start(rctx, "wal.checkpoint")
			err := ip.d.CheckpointWAL()
			sp.EndSpan(err)
			root.EndOK()
			lr.e.t.add(err)
		}
	}
	m["wal.checkpoints"] = float64(obs.Default.Counter("wal.checkpoints").Value() - ckpts0)

	// Per-span statistics: total and self time by layer.
	stats := spanStats(tr)
	for _, name := range ledgerTimings {
		key := strings.TrimSuffix(strings.TrimSuffix(name, "_us"), "_ms")
		xs := stats.total[key]
		if name == "adapter.udf_us" {
			xs = lr.udfPerUs
		}
		if len(xs) == 0 {
			continue
		}
		v := quantile(xs, 0.5)
		if strings.HasSuffix(name, "_ms") {
			v /= 1000
		}
		m[name] = v
		m[name+".n"] = float64(len(xs))
	}
	// The residual is what the daemon's round trip costs beyond the
	// in-process one, both untraced: the cross-process share no rung
	// explains.
	plainP50 := quantile(plain, 0.5)
	m["ledger.residual_us"] = clientP50 - plainP50
	m["ledger.trace_overhead_us"] = m["wire.roundtrip_us"] - plainP50

	// Recovery of the in-process log: decode alone, then a full open.
	closed = true
	ip.close()
	decode, replay, err := measureRecovery(ip.dir, e.w.PoolPages)
	if err != nil {
		return nil, err
	}
	m["wal.decode_s"], m["db.replay_s"] = decode, replay

	base := filepath.Join(workDir, fmt.Sprintf("%s-seed%d", e.w.Name, e.seed))
	if err := writeSpans(tr, base+".spans.jsonl"); err != nil {
		return nil, err
	}
	table := ledgerTable(e.w.Name, m, stats, clientP50)
	fmt.Print(table)
	if err := os.WriteFile(base+".ledger.txt", []byte(table), 0o644); err != nil {
		return nil, err
	}
	return m, nil
}

func hitRatio(a, b storage.Stats) float64 {
	h, miss := b.Hits-a.Hits, b.Misses-a.Misses
	if h+miss == 0 {
		return 0
	}
	return float64(h) / float64(h+miss)
}

// prepare builds the workload's standalone probes.
func (lr *ledgerRun) prepare() error {
	switch lr.e.w.Name {
	case "genomic_search":
		ix, err := kmeridx.New(kmerK)
		if err != nil {
			return err
		}
		for i, f := range lr.e.fx.Frags {
			ns, err := seq.NewNucSeq(seq.AlphaDNA, f.Seq)
			if err != nil {
				return err
			}
			if err := ix.Add(kmeridx.DocID(i), ns); err != nil {
				return err
			}
		}
		lr.kix = ix
		return lr.useUDF("contains")
	case "analytic_scan":
		for _, f := range lr.e.fx.Frags[:udfCallsPerRequest] {
			v, err := gdt.NewDNA(f.ID, f.Seq)
			if err != nil {
				return err
			}
			lr.udfArgs = append(lr.udfArgs, v)
		}
		return lr.useUDF("gccontent")
	}
	return nil
}

func (lr *ledgerRun) useUDF(name string) error {
	f, ok := lr.ip.d.Funcs.Get(name)
	if !ok {
		return fmt.Errorf("external function %s is not registered", name)
	}
	lr.udf = f
	return nil
}

// check counts one verified operation.
func (lr *ledgerRun) check(op Op, rows [][]any, affected int, err error) {
	if err == nil {
		err = op.Verify(rows, affected)
	}
	lr.e.t.add(err)
	if err == nil && op.Batch != nil {
		lr.userBytes += op.Batch.UserBytes
	}
}

// roundtrip runs op through the wire client; when ctx is traced, the
// daemon's own execution time (its genalgd.op.exec.seconds histogram)
// becomes the child span genalgd.exec.
func (lr *ledgerRun) roundtrip(ctx context.Context, op Op) {
	_, sp := trace.Start(ctx, "wire.roundtrip")
	before := lr.ip.execHist.Sum()
	res, err := lr.ip.client.Exec(op.SQL)
	if err == nil {
		sp.AddTiming("genalgd.exec", time.Duration((lr.ip.execHist.Sum()-before)*float64(time.Second)))
	}
	sp.EndSpan(err)
	if err != nil {
		lr.check(op, nil, 0, err)
		return
	}
	lr.rowsOut += int64(len(res.Rows))
	lr.check(op, res.Rows, res.Affected, nil)
}

// request runs one traced request at the given rung: 0 the wire client,
// 1 the SQL engine, 2 the workload's db-layer calls. Parsing is timed on
// every request; it has no side effects.
func (lr *ledgerRun) request(ctx context.Context, op Op, rung int) {
	_, sp := trace.Start(ctx, "sqlang.parse")
	stmt, err := sqlang.Parse(op.SQL)
	sp.EndSpan(err)
	if err != nil {
		lr.check(op, nil, 0, err)
		return
	}
	if rung == 2 && lr.e.w.Name != "analytic_scan" {
		lr.dbRung(ctx, op)
		return
	}
	if rung == 2 {
		lr.udfProbe(ctx)
		rung = 1
	}
	if rung == 0 {
		lr.roundtrip(ctx, op)
		return
	}
	sctx, sp := trace.Start(ctx, "sqlang.exec")
	res, err := lr.ip.eng.ExecStmtSQLCtx(sctx, stmt, op.SQL)
	sp.EndSpan(err)
	if err != nil {
		lr.check(op, nil, 0, err)
		return
	}
	rows := make([][]any, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = r
	}
	lr.rowsOut += int64(len(rows))
	lr.check(op, rows, res.Affected, nil)
}

// dbRung answers op with the db layer's own entry points.
func (lr *ledgerRun) dbRung(ctx context.Context, op Op) {
	d := lr.ip.d
	switch lr.e.w.Name {
	case "point_lookup":
		tbl, _ := d.Table("frags")
		_, sp := trace.Start(ctx, "db.index_lookup")
		rids, err := tbl.IndexLookup("id", op.Key)
		sp.EndSpan(err)
		var rows [][]any
		for _, rid := range rids {
			if err != nil {
				break
			}
			_, sp := trace.Start(ctx, "db.get")
			var row db.Row
			row, err = tbl.Get(rid)
			sp.EndSpan(err)
			rows = append(rows, []any{row[0], row[1], row[2], row[3]})
		}
		lr.check(op, rows, 0, err)
	case "genomic_search":
		pat := op.Key
		tbl, _ := d.Table("frags")
		_, sp := trace.Start(ctx, "db.genomic_lookup")
		rids, err := tbl.GenomicLookup("fragment", pat)
		sp.EndSpan(err)
		var rows [][]any
		var args [][]any
		for _, rid := range rids {
			if err != nil {
				break
			}
			var row db.Row
			row, err = tbl.Get(rid)
			if err == nil {
				rows = append(rows, []any{row[0]})
				args = append(args, []any{row[4], pat})
			}
		}
		if err == nil && len(args) > 0 {
			_, sp := trace.Start(ctx, "adapter.udf")
			t0 := time.Now()
			for _, a := range args {
				if _, err = lr.udf.Fn(a); err != nil {
					break
				}
			}
			lr.udfPerUs = append(lr.udfPerUs, float64(time.Since(t0))/float64(time.Microsecond)/float64(len(args)))
			sp.EndSpan(err)
		}
		if cands, cerr := lr.kix.Candidates(pat); cerr == nil {
			lr.cands += int64(len(cands))
			lr.hits += int64(len(rids))
		}
		lr.check(op, rows, 0, err)
	case "ingest":
		muts := make([]db.Mutation, 0, len(op.Batch.Rows))
		var err error
		for _, r := range op.Batch.Rows {
			var dna gdt.DNA
			if dna, err = gdt.NewDNA(r.ID, r.Seq); err != nil {
				break
			}
			q, _ := strconv.ParseFloat(r.Quality, 64)
			muts = append(muts, db.Mutation{Kind: db.MutInsert, Row: db.Row{r.ID, op.Batch.Name, q, int64(r.Len), dna}})
		}
		if err == nil {
			_, sp := trace.Start(ctx, "db.apply_dml")
			err = d.ApplyDML("ingest", muts)
			sp.EndSpan(err)
		}
		lr.check(op, nil, len(muts), err)
	}
}

// udfProbe times the registered gccontent function over a fixed set of
// fragments: the per-row work of analytic_scan's filter.
func (lr *ledgerRun) udfProbe(ctx context.Context) {
	_, sp := trace.Start(ctx, "adapter.udf")
	t0 := time.Now()
	var err error
	for _, v := range lr.udfArgs {
		if _, err = lr.udf.Fn([]any{v}); err != nil {
			break
		}
	}
	lr.udfPerUs = append(lr.udfPerUs, float64(time.Since(t0))/float64(time.Microsecond)/float64(len(lr.udfArgs)))
	sp.EndSpan(err)
	lr.e.t.add(err)
}

// measureRecovery times wal.Decode over the log, and a full
// db.OpenDurable of the directory, each the median of ledgerRecoveries
// tries; replay is the open minus the decode.
func measureRecovery(dir string, poolPages int) (decodeS, replayS float64, err error) {
	var decodes, opens []float64
	for i := 0; i < ledgerRecoveries; i++ {
		data, err := os.ReadFile(filepath.Join(dir, db.WalName))
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		wal.Decode(data)
		decodes = append(decodes, time.Since(t0).Seconds())
		t0 = time.Now()
		d, _, err := db.OpenDurable(dir, durableOptions(poolPages))
		if err != nil {
			return 0, 0, err
		}
		opens = append(opens, time.Since(t0).Seconds())
		if err := d.Close(); err != nil {
			return 0, 0, err
		}
	}
	decodeS = median(decodes)
	return decodeS, median(opens) - decodeS, nil
}

// spanTimes holds span durations by layer name, in microseconds.
type spanTimes struct {
	total map[string][]float64
	self  map[string][]float64
}

// layerName maps a span name to its layer: the engine's operator spans
// ("access: ...", "join: ...") become sqlang.access, sqlang.join, ...
func layerName(span string) string {
	if i := strings.Index(span, ":"); i >= 0 {
		span = span[:i]
	}
	switch span {
	case "access", "filter", "join", "aggregate", "sort":
		return "sqlang." + span
	}
	return span
}

// spanStats computes each span's total and self time (its duration minus
// the part its children cover) across every kept trace.
func spanStats(tr *trace.Tracer) spanTimes {
	st := spanTimes{total: map[string][]float64{}, self: map[string][]float64{}}
	for _, t := range tr.Traces() {
		spans := t.Spans()
		child := make(map[trace.SpanID]time.Duration)
		for _, sp := range spans {
			if sp.ParentID != 0 {
				child[sp.ParentID] += sp.End.Sub(sp.Start)
			}
		}
		for _, sp := range spans {
			name := layerName(sp.Name)
			d := sp.End.Sub(sp.Start)
			st.total[name] = append(st.total[name], float64(d)/float64(time.Microsecond))
			st.self[name] = append(st.self[name], float64(d-child[sp.ID])/float64(time.Microsecond))
		}
	}
	return st
}

func writeSpans(tr *trace.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rung is one layer's self time on the ladder from the client down.
type rung struct {
	layer  string
	selfUs float64
}

// ladder splits the in-process round trip into each layer's self p50:
// the wire client less the daemon's execution, genalgd less parsing and
// the engine, the engine less its db-layer calls, and those calls. The
// rungs sum to the round trip.
func ladder(m map[string]float64) []rung {
	dbCalls := m["db.index_lookup_us"] + m["db.get_us"] + m["db.genomic_lookup_us"] + m["db.apply_dml_us"]
	sql := m["sqlang.parse_us"] + m["sqlang.exec_us"]
	return []rung{
		{"wire", m["wire.roundtrip_us"] - m["genalgd.exec_us"]},
		{"genalgd", m["genalgd.exec_us"] - sql},
		{"sqlang", sql - dbCalls},
		{"db", dbCalls},
	}
}

// ledgerTable renders the per-layer table: every span's p50 total and
// self time with its sample count, then the ladder from the in-process
// round trip down to the db layer, and the residual no rung explains.
func ledgerTable(workload string, m map[string]float64, st spanTimes, clientP50 float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ledger %s: per-span p50 (us)\n", workload)
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "span\ttotal_p50\tself_p50\tn\t")
	for _, name := range sortedKeys(st.total) {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%d\t\n", name, quantile(st.total[name], 0.5), quantile(st.self[name], 0.5), len(st.total[name]))
	}
	_ = tw.Flush()
	b.WriteString("ladder (self p50, us):")
	sum := 0.0
	for _, r := range ladder(m) {
		fmt.Fprintf(&b, " %s %.2f |", r.layer, r.selfUs)
		sum += r.selfUs
	}
	fmt.Fprintf(&b, " sum %.2f\n", sum)
	fmt.Fprintf(&b, "client p50 %.2f us (daemon, untraced); residual over the untraced in-process round trip %.2f us; tracing overhead %.2f us\n",
		clientP50, m["ledger.residual_us"], m["ledger.trace_overhead_us"])
	return b.String()
}
