// Package genalgd implements the genalg network daemon: a TCP server
// speaking the wire protocol (length-prefixed JSON frames) that runs
// every session against one shared sqlang.Engine.
//
// Session model: one TCP connection is one session. Sessions hold
// server-side prepared statements, are bounded by an idle timeout and a
// connection limit, and share the engine safely (see the Engine
// concurrency contract; DML statements serialize in the db layer, so a
// kill -9 between two sessions' statements can never interleave their
// WAL frames).
//
// Drain protocol (SIGTERM): the listener closes so no new sessions start,
// sessions finish the statement currently executing and its response is
// flushed, and any subsequent request is refused with a draining error.
// When the last in-flight statement completes (or the drain deadline
// expires) all connections close.
package genalgd

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"genalg/internal/obs"
	"genalg/internal/sqlang"
	"genalg/internal/wire"
)

// Banner identifies the server in the hello response.
const Banner = "genalgd/1"

// Config wires a server to its engine and bounds.
type Config struct {
	// Engine executes every session's statements. Required. The engine's
	// configuration fields must not be written after the server starts.
	Engine *sqlang.Engine
	// MaxConns bounds concurrent sessions; 0 selects 64. Connections over
	// the limit are greeted with an error response and closed.
	MaxConns int
	// IdleTimeout closes sessions with no request activity; 0 selects 5m.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write; 0 selects 10s. A client
	// that stops reading mid-response would otherwise pin the session
	// goroutine (and, during drain, the whole shutdown) forever.
	WriteTimeout time.Duration
	// Registry receives the daemon's metrics; nil selects obs.Default.
	Registry *obs.Registry
}

// Server is a running daemon. Create with New, start with Serve, stop
// with Drain (graceful) or Close (immediate).
type Server struct {
	cfg Config

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}

	draining atomic.Bool
	// inflight counts request executions including the write of the
	// response: drain waits for it to reach zero, so every acknowledged
	// statement's ack reaches the wire before connections close. Guarded
	// by mu; beginWork refuses atomically with the draining flag, so no
	// request can start after Drain begins waiting.
	inflight  int
	drainDone chan struct{}
	handlers  sync.WaitGroup

	sessions   *obs.Counter
	active     *obs.Gauge
	frames     *obs.Counter
	statements *obs.Counter
	errs       *obs.Counter
	rejected   *obs.Counter
	drainHist  *obs.Histogram

	// Per-op service-time histograms (execution + response rendering, not
	// the wire write), so server-side percentiles can be compared against
	// client-observed latency in load reports.
	opExec    *obs.Histogram
	opPrepare *obs.Histogram
	opPing    *obs.Histogram
}

// New builds a server around cfg.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("genalgd: config needs an engine")
	}
	if cfg.MaxConns == 0 {
		cfg.MaxConns = 64
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default
	}
	return &Server{
		cfg:        cfg,
		conns:      make(map[net.Conn]struct{}),
		sessions:   reg.Counter("genalgd.sessions"),
		active:     reg.Gauge("genalgd.sessions.active"),
		frames:     reg.Counter("genalgd.frames"),
		statements: reg.Counter("genalgd.statements"),
		errs:       reg.Counter("genalgd.errors"),
		rejected:   reg.Counter("genalgd.sessions.rejected"),
		drainHist:  reg.Histogram("genalgd.drain.seconds"),
		opExec:     reg.Histogram("genalgd.op.exec.seconds"),
		opPrepare:  reg.Histogram("genalgd.op.prepare.seconds"),
		opPing:     reg.Histogram("genalgd.op.ping.seconds"),
	}, nil
}

// Serve accepts sessions on ln until Close or Drain. It returns nil on
// orderly shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if !s.admit(conn) {
			continue
		}
		s.handlers.Add(1)
		go func() {
			defer s.handlers.Done()
			s.handle(conn)
		}()
	}
}

// admit registers conn against the connection limit; over-limit
// connections get an error response (to their hello) and are closed.
func (s *Server) admit(conn net.Conn) bool {
	s.mu.Lock()
	if s.draining.Load() {
		// Drain set the flag under mu before snapshotting s.conns, so a
		// connection admitted here would never be closed by Drain; refuse
		// it instead.
		s.mu.Unlock()
		conn.Close()
		return false
	}
	if len(s.conns) >= s.cfg.MaxConns {
		s.mu.Unlock()
		s.rejected.Inc()
		go func() {
			// Answer the client's hello so the rejection reason reaches
			// it instead of a bare connection reset.
			_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
			var id uint64
			if req, err := wire.ReadRequest(conn); err == nil {
				id = req.ID
			}
			_ = wire.WriteMessage(conn, &wire.Response{
				ID:    id,
				Error: fmt.Sprintf("genalgd: connection limit (%d) reached", s.cfg.MaxConns),
			})
			conn.Close()
		}()
		return false
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	s.sessions.Inc()
	s.active.Add(1)
	return true
}

func (s *Server) drop(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.active.Add(-1)
	conn.Close()
}

// session is the per-connection state: the prepared statements' SQL, by
// id. Executing one runs its text through the engine's plan cache, like
// exec.
type session struct {
	nextStmt uint64
	prepared map[uint64]string
}

func (s *Server) handle(conn net.Conn) {
	defer s.drop(conn)
	wc := wire.NewConn(conn)
	sess := &session{prepared: make(map[uint64]string)}
	for {
		if err := wc.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)); err != nil {
			return
		}
		req, err := wire.ReadRequest(wc)
		if err != nil {
			// EOF, idle timeout, or drain closing the socket under us.
			return
		}
		s.frames.Inc()
		// Every write below answers this request; arm the write deadline
		// once so a client that stops reading cannot pin the session.
		if err := wc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)); err != nil {
			return
		}
		// The inflight window spans execution AND the response write:
		// once a statement runs, its acknowledgement is part of the work
		// drain waits for. beginWork refuses atomically with the
		// draining flag.
		if !s.beginWork() {
			_ = wire.WriteMessage(wc, &wire.Response{
				ID: req.ID, Error: "genalgd: server is draining", Draining: true,
			})
			return
		}
		start := time.Now()
		resp, quit := s.dispatch(sess, req)
		s.observeOp(req.Op, time.Since(start).Seconds())
		err = wire.WriteMessage(wc, resp)
		s.endWork()
		if err != nil || quit {
			return
		}
	}
}

// beginWork admits one request execution, or refuses it when the server
// is draining.
func (s *Server) beginWork() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.inflight++
	return true
}

func (s *Server) endWork() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	if s.inflight == 0 && s.drainDone != nil {
		close(s.drainDone)
		s.drainDone = nil
	}
}

// observeOp records one request's service time into the per-op histogram.
// Statement execution (direct and prepared) shares one series; prepare
// covers parse+cache; ping covers the liveness no-ops (hello included).
// Session-control ops (quit, close_stmt, unknown) are not timed.
func (s *Server) observeOp(op string, seconds float64) {
	switch op {
	case wire.OpExec, wire.OpExecPrepared:
		s.opExec.Observe(seconds)
	case wire.OpPrepare:
		s.opPrepare.Observe(seconds)
	case wire.OpPing, wire.OpHello:
		s.opPing.Observe(seconds)
	}
}

// dispatch executes one request. The second return closes the session
// after the response is written.
func (s *Server) dispatch(sess *session, req *wire.Request) (*wire.Response, bool) {
	switch req.Op {
	case wire.OpHello:
		return &wire.Response{ID: req.ID, Server: Banner}, false
	case wire.OpPing:
		return &wire.Response{ID: req.ID}, false
	case wire.OpQuit:
		return &wire.Response{ID: req.ID}, true
	case wire.OpExec:
		s.statements.Inc()
		res, err := s.cfg.Engine.Exec(req.SQL)
		if err != nil {
			s.errs.Inc()
			return &wire.Response{ID: req.ID, Error: err.Error()}, false
		}
		return renderResult(req.ID, res), false
	case wire.OpPrepare:
		if _, err := sqlang.Parse(req.SQL); err != nil {
			s.errs.Inc()
			return &wire.Response{ID: req.ID, Error: err.Error()}, false
		}
		sess.nextStmt++
		sess.prepared[sess.nextStmt] = req.SQL
		return &wire.Response{ID: req.ID, Stmt: sess.nextStmt}, false
	case wire.OpExecPrepared:
		sql, ok := sess.prepared[req.Stmt]
		if !ok {
			s.errs.Inc()
			return &wire.Response{ID: req.ID, Error: fmt.Sprintf("genalgd: unknown prepared statement %d", req.Stmt)}, false
		}
		s.statements.Inc()
		res, err := s.cfg.Engine.Exec(sql)
		if err != nil {
			s.errs.Inc()
			return &wire.Response{ID: req.ID, Error: err.Error()}, false
		}
		return renderResult(req.ID, res), false
	case wire.OpCloseStmt:
		if _, ok := sess.prepared[req.Stmt]; !ok {
			return &wire.Response{ID: req.ID, Error: fmt.Sprintf("genalgd: unknown prepared statement %d", req.Stmt)}, false
		}
		delete(sess.prepared, req.Stmt)
		return &wire.Response{ID: req.ID}, false
	}
	s.errs.Inc()
	return &wire.Response{ID: req.ID, Error: fmt.Sprintf("genalgd: unknown op %q", req.Op)}, false
}

// renderResult converts an engine result to its wire form. Scalar values
// pass through; bytes and opaque genomic values cross as rendered strings
// (the wire is a presentation boundary). The plan is not sent: EXPLAIN
// returns it as its result row.
func renderResult(id uint64, res *sqlang.Result) *wire.Response {
	out := &wire.Response{ID: id, Cols: res.Cols, Affected: res.Affected}
	if len(res.Rows) > 0 {
		out.Rows = make([][]any, len(res.Rows))
		for i, row := range res.Rows {
			vals := make([]any, len(row))
			for j, v := range row {
				vals[j] = renderValue(v)
			}
			out.Rows[i] = vals
		}
	}
	return out
}

func renderValue(v any) any {
	switch x := v.(type) {
	case nil, int64, float64, bool, string:
		return x
	case []byte:
		return string(x)
	default:
		// Opaque UDT values (DNA, genes, ...) stringify via their own
		// String methods through %v.
		return strings.TrimSpace(fmt.Sprintf("%v", x))
	}
}

// Draining reports whether the server has begun shutting down; mounted as
// a /readyz probe so load balancers stop routing to a draining daemon.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully shuts the server down: stop accepting, let in-flight
// statements finish and flush their acknowledgements, refuse any further
// requests, then close all connections. ctx bounds the wait; on expiry
// remaining connections are closed anyway and ctx's error is returned.
func (s *Server) Drain(ctx context.Context) error {
	start := time.Now()
	defer func() { s.drainHist.Observe(time.Since(start).Seconds()) }()
	s.mu.Lock()
	s.draining.Store(true)
	ln := s.ln
	done := make(chan struct{})
	if s.inflight == 0 {
		close(done)
	} else {
		s.drainDone = done
	}
	s.mu.Unlock()
	// The draining flag is visible before the listener closes, so the
	// accept loop reads the close as orderly shutdown; admit refuses any
	// connection that races in between.
	if ln != nil {
		ln.Close()
	}

	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	// In-flight work is acknowledged (or the deadline expired): close
	// every session, which unblocks handlers waiting in ReadRequest.
	// Snapshot under mu, close outside it (lockorder).
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	s.mu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
	s.handlers.Wait()
	return err
}

// Close shuts the server down immediately: no grace for in-flight work.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Drain(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}
