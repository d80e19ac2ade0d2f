package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"genalg/internal/wire"
)

// setupsPerRun is how many daemons one run sets up; setup_s is the
// median of their set-up times. The timed phase is split evenly across
// them, windowsPerSegment windows each, so one run samples the host at
// many moments some seconds apart rather than one. restartsPerRun is
// how many kill-and-restart cycles time recovery_s (their median).
const (
	setupsPerRun      = 4
	windowsPerSegment = 6
	restartsPerRun    = 7
)

// opRecord is one timed operation as a connection saw it.
type opRecord struct {
	start, end time.Time
	ok         bool
}

// tally counts operations attempted and failed anywhere in a run,
// including set-up, recovery checks and untimed operations.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	firstErr          error
}

func (t *tally) add(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// execOp runs op on c and verifies the answer. transport reports a
// connection failure (the daemon died), which is not a wrong answer.
func execOp(c *wire.Client, op Op) (err error, transport bool) {
	res, err := c.Exec(op.SQL)
	if err != nil {
		return err, wire.IsTransport(err)
	}
	if err := op.Verify(res.Rows, res.Affected); err != nil {
		return err, false
	}
	return nil, false
}

// session is a daemon set up with the fixture, its connections, and the
// streams those connections run.
type session struct {
	d       *daemon
	clients []*wire.Client
	streams []*Stream
	// sent counts ingest batches sent; target is closed when it reaches
	// ingestKillAfter.
	sent   atomic.Int64
	target chan struct{}
}

// run runs every stream on its own connection concurrently until stop
// says so, and returns the operations they completed, merged.
func (s *session) run(t *tally, stop func(n int) bool) []opRecord {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		all []opRecord
	)
	for i := range s.clients {
		wg.Add(1)
		go func(c *wire.Client, st *Stream) {
			defer wg.Done()
			recs := s.connLoop(c, st, t, stop)
			mu.Lock()
			all = append(all, recs...)
			mu.Unlock()
		}(s.clients[i], s.streams[i])
	}
	wg.Wait()
	return all
}

// connLoop runs st on c until stop says so, recording every operation.
// A broken connection after stop turned true is the benchmark's own kill
// landing mid-statement, not a failure; before that it is a failed
// operation, the last one the connection records.
func (s *session) connLoop(c *wire.Client, st *Stream, t *tally, stop func(n int) bool) []opRecord {
	var recs []opRecord
	for n := 0; !stop(n); n++ {
		op := st.Next()
		if op.Batch != nil {
			op.Batch.Attempted = true
			if s.sent.Add(1) == ingestKillAfter {
				close(s.target)
			}
		}
		start := time.Now()
		err, transport := execOp(c, op)
		end := time.Now()
		if transport && stop(n) {
			return recs
		}
		t.add(err)
		recs = append(recs, opRecord{start: start, end: end, ok: err == nil})
		if transport {
			return recs
		}
		if op.Batch != nil && err == nil {
			op.Batch.Acked = true
			st.AckedUserBytes.Add(op.Batch.UserBytes)
		}
	}
	return recs
}

func (s *session) closeClients() {
	for _, c := range s.clients {
		_ = c.Close()
	}
	s.clients = nil
}

// kill closes the connections and kills the daemon.
func (s *session) kill() {
	s.d.Kill()
	s.closeClients()
}

// runEnv is what one benchmark invocation works with.
type runEnv struct {
	w       Workload
	seed    int64
	seconds float64
	bin     string // the genalgd binary
	dir     string // this run's scratch directory
	fx      *Fixture
	setup   []string
	t       tally
	// withObs starts daemons with their observability server, so the
	// traced run can read the daemon's own counters.
	withObs bool
}

// setUp starts a daemon on a fresh data directory, loads the fixture,
// analyzes it, and warms every connection up with its stream. The
// returned duration is the set-up time.
func (e *runEnv) setUp(k int) (*session, time.Duration, error) {
	dataDir := filepath.Join(e.dir, fmt.Sprintf("data%d", k))
	logPath := filepath.Join(e.dir, "genalgd.log")
	t0 := time.Now()
	d, err := startDaemon(e.bin, dataDir, logPath, e.w.PoolPages, e.withObs)
	if err != nil {
		return nil, 0, err
	}
	s := &session{d: d, target: make(chan struct{})}
	fail := func(err error) (*session, time.Duration, error) {
		s.kill()
		return nil, 0, err
	}
	for i := 0; i < e.w.Conns; i++ {
		c, err := d.Dial()
		if err != nil {
			return fail(err)
		}
		s.clients = append(s.clients, c)
		s.streams = append(s.streams, NewStream(e.w.Name, e.fx, e.seed, i))
	}
	for _, stmt := range e.setup {
		if _, err := s.clients[0].Exec(stmt); err != nil {
			return fail(fmt.Errorf("fixture statement %.60q: %w", stmt, err))
		}
	}
	s.run(&e.t, func(n int) bool { return n >= e.w.WarmOps })
	return s, time.Since(t0), nil
}

// e2eResult is what the untraced run measured.
type e2eResult struct {
	metrics map[string]float64
	samples int // latency samples behind p50_ms and p95_ms
	notes   []string
}

// runE2E is the untraced run. It sets a daemon up setupsPerRun times;
// each runs one segment of the timed phase, and the last one, after its
// segment, is killed and restarted restartsPerRun times.
func (e *runEnv) runE2E() (*e2eResult, error) {
	seg := e.seconds / setupsPerRun
	win := time.Duration(seg / windowsPerSegment * float64(time.Second))
	var setups []float64
	all := &phase{}
	var s *session
	var last *phase
	for k := 0; k < setupsPerRun; k++ {
		sess, d, err := e.setUp(k)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		final := k == setupsPerRun-1
		ph, err := e.timed(sess, win, final)
		if err != nil {
			sess.kill()
			return nil, err
		}
		all.merge(ph)
		if !final {
			sess.kill()
			_ = os.RemoveAll(sess.d.DataDir)
			continue
		}
		s, last = sess, ph
	}
	defer s.kill()
	res := &e2eResult{metrics: all.summary(), samples: len(all.lat)}
	res.metrics["setup_s"] = median(setups)
	res.metrics["rss_mb"] = last.rssMB
	res.metrics["space_amp"] = float64(last.wal) / float64(last.userBytes)
	recovery, err := e.recover(s, last.killed)
	if err != nil {
		return nil, err
	}
	res.metrics["recovery_s"] = recovery
	res.notes = append(res.notes,
		fmt.Sprintf("wal: %d bytes at the end of the last segment", last.wal),
		fmt.Sprintf("timed phase: %.3fs in %d segments; ops per window %v",
			all.wall, setupsPerRun, all.windowOps()),
		fmt.Sprintf("set-up times (s): %.3f", setups))
	return res, nil
}

// phase is what one timed closed-loop phase measured.
type phase struct {
	lat     []float64 // latency of every operation completed in time, ms
	ok      int       // of those, how many passed verification
	wall    float64   // length of the phase, s
	windows []window  // the phase cut into CPU-sampling windows
	rssMB   float64   // daemon peak RSS at the end (ingest: at the kill)
	wal     int64     // log size at the end (ingest: at the kill)
	// userBytes is the user row data the daemon holds at the end.
	userBytes int64
	killed    time.Time // when ingest's daemon was killed mid-load
}

// merge adds another segment's operations, time and windows to ph.
func (ph *phase) merge(o *phase) {
	ph.lat = append(ph.lat, o.lat...)
	ph.ok += o.ok
	ph.wall += o.wall
	ph.windows = append(ph.windows, o.windows...)
}

// window is one CPU-sampling interval of the timed phase.
type window struct {
	lat  []float64
	secs float64
	cpu  float64 // daemon CPU time in the window, s
	full bool    // false for a last window cut short by the kill
}

// windowMinOps is the fewest operations a window needs for its own
// p95. Ingest's windows hold about 100 operations, fewer while the host
// is slow, and have to clear it; analytic_scan's hold two or three.
const windowMinOps = 50

// summary reports throughput, latency, CPU per operation and the share
// of correct answers over the full windows. When each of them holds
// windowMinOps operations, every figure is the median of the per-window
// figures, so a burst of outside load moves a few windows, not the
// figure; otherwise the windows are pooled.
func (ph *phase) summary() map[string]float64 {
	m := map[string]float64{"ok_ratio": float64(ph.ok) / float64(len(ph.lat))}
	var ws []window
	for _, w := range ph.windows {
		if w.full {
			ws = append(ws, w)
		}
	}
	perWindow := len(ws) >= 4
	for _, w := range ws {
		perWindow = perWindow && len(w.lat) >= windowMinOps
	}
	if !perWindow {
		var lat []float64
		var secs, cpu float64
		for _, w := range ws {
			lat = append(lat, w.lat...)
			secs += w.secs
			cpu += w.cpu
		}
		n := float64(len(lat))
		m["ops_per_s"] = n / secs
		m["p50_ms"] = quantile(lat, 0.50)
		m["p95_ms"] = quantile(lat, 0.95)
		m["cpu_ms_per_op"] = cpu * 1000 / n
		return m
	}
	var ops, p50, p95, cpu []float64
	for _, w := range ws {
		n := float64(len(w.lat))
		ops = append(ops, n/w.secs)
		p50 = append(p50, quantile(w.lat, 0.50))
		p95 = append(p95, quantile(w.lat, 0.95))
		cpu = append(cpu, w.cpu*1000/n)
	}
	m["ops_per_s"] = median(ops)
	m["p50_ms"] = median(p50)
	m["p95_ms"] = median(p95)
	m["cpu_ms_per_op"] = median(cpu)
	return m
}

func (ph *phase) windowOps() []int {
	var out []int
	for _, w := range ph.windows {
		out = append(out, len(w.lat))
	}
	return out
}

// cpuSecs is the daemon's total CPU time over the phase.
func (ph *phase) cpuSecs() float64 {
	c := 0.0
	for _, w := range ph.windows {
		c += w.cpu
	}
	return c
}

// timed runs every connection's stream for windowsPerSegment windows of
// win, sampling the daemon's CPU time at each window's end. With crash
// set, ingest instead writes on until ingestKillAfter batches have been
// sent and SIGKILLs the daemon mid-statement; its timed phase ends at the
// kill if that comes first.
func (e *runEnv) timed(s *session, win time.Duration, crash bool) (*phase, error) {
	pid := s.d.Pid()
	cpu0, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}
	crash = crash && e.w.Name == "ingest"
	stop := make(chan struct{})
	var recs []opRecord
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		recs = s.run(&e.t, func(int) bool {
			select {
			case <-stop:
				return true
			default:
				return false
			}
		})
	}()
	var target chan struct{} // nil: never ready
	if crash {
		target = s.target
	}
	marks := []time.Time{start}
	cpus := []float64{cpu0}
	ph := &phase{userBytes: e.fx.UserBytes()}
	var cpuErr error
	for end := false; !end; {
		timer := time.NewTimer(time.Until(marks[len(marks)-1].Add(win)))
		select {
		case <-timer.C:
		case <-target:
			timer.Stop()
			end = true
		}
		now := time.Now()
		c, err := cpuSeconds(pid)
		if err != nil && cpuErr == nil {
			cpuErr = err
		}
		w := window{secs: now.Sub(marks[len(marks)-1]).Seconds(), cpu: c - cpus[len(cpus)-1]}
		w.full = w.secs >= 0.999*win.Seconds()
		ph.windows = append(ph.windows, w)
		marks, cpus = append(marks, now), append(cpus, c)
		end = end || len(ph.windows) == windowsPerSegment
	}
	end := marks[len(marks)-1]
	if crash {
		// Untimed tail: write on until the kill point.
		select {
		case <-s.target:
		case <-time.After(60 * time.Second):
		}
	}
	rss, rssErr := peakRSSMB(pid)
	ph.wal = walSize(s.d.DataDir)
	for _, st := range s.streams {
		ph.userBytes += st.AckedUserBytes.Load()
	}
	close(stop)
	if crash {
		ph.killed = time.Now()
		s.d.Kill()
	}
	<-done
	if cpuErr != nil {
		return nil, cpuErr
	}
	if rssErr != nil {
		return nil, rssErr
	}
	ph.rssMB = rss
	ph.wall = end.Sub(start).Seconds()
	for _, r := range recs {
		if r.end.After(end) {
			continue
		}
		ms := float64(r.end.Sub(r.start)) / float64(time.Millisecond)
		ph.lat = append(ph.lat, ms)
		if r.ok {
			ph.ok++
		}
		w := sort.Search(len(marks), func(i int) bool { return marks[i].After(r.end) }) - 1
		if w >= 0 && w < len(ph.windows) {
			ph.windows[w].lat = append(ph.windows[w].lat, ms)
		}
	}
	if len(ph.lat) == 0 {
		return nil, fmt.Errorf("no operation completed in the %.3fs timed phase", ph.wall)
	}
	return ph, nil
}

// recover restarts the daemon on its data directory after SIGKILL
// restartsPerRun times and returns the median time from the kill to the
// first verified answer. For ingest the first kill lands mid-load (killed
// is its time) and every restart checks durability.
func (e *runEnv) recover(s *session, killed time.Time) (float64, error) {
	var tries []float64
	logPath := filepath.Join(e.dir, "genalgd.log")
	for k := 0; k < restartsPerRun; k++ {
		if killed.IsZero() {
			killed = time.Now()
			s.d.Kill()
		}
		s.closeClients()
		d, err := startDaemon(e.bin, s.d.DataDir, logPath, e.w.PoolPages, false)
		if err != nil {
			return 0, err
		}
		s.d = d
		c, err := d.Dial()
		if err != nil {
			return 0, err
		}
		s.clients = []*wire.Client{c}
		if err := e.verifyRecovered(c, s.streams); err != nil {
			e.t.add(err)
			return 0, err
		}
		e.t.add(nil)
		tries = append(tries, time.Since(killed).Seconds())
		killed = time.Time{}
	}
	return median(tries), nil
}

// verifyRecovered is the first query on a restarted daemon.
func (e *runEnv) verifyRecovered(c *wire.Client, streams []*Stream) error {
	if e.w.Name == "ingest" {
		res, err := c.Exec(`SELECT batch, COUNT(*) FROM ingest GROUP BY batch`)
		if err != nil {
			return err
		}
		got := make(map[string]int, len(res.Rows))
		for _, row := range res.Rows {
			name, _ := row[0].(string)
			n, _ := row[1].(int64)
			got[name] = int(n)
		}
		return checkDurability(streams, got)
	}
	err, _ := execOp(c, pointLookupOp(e.fx, int((e.seed%numFrags+numFrags)%numFrags)))
	return err
}
