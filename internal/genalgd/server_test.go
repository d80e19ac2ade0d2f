package genalgd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"genalg/internal/db"
	"genalg/internal/obs"
	"genalg/internal/sqlang"
	"genalg/internal/wire"
)

// startServer boots a daemon on a loopback port over a fresh in-memory
// engine and returns its address plus the server handle.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Engine == nil {
		d, err := db.OpenMemory(512)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Engine = sqlang.NewEngine(d)
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.New()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-serveDone; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func dial(t *testing.T, addr string) *wire.Client {
	t.Helper()
	c, err := wire.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSessionLifecycle(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)
	defer c.Close()
	if c.Banner != Banner {
		t.Fatalf("banner = %q, want %q", c.Banner, Banner)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("CREATE TABLE kv (k int NOT NULL, v string)"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("INSERT INTO kv (k, v) VALUES (1, 'one'), (2, 'two')")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 {
		t.Fatalf("affected = %d, want 2", res.Affected)
	}
	res, err = c.Exec("SELECT k, v FROM kv ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != int64(1) || res.Rows[1][1] != "two" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Statement errors arrive as errors, not dropped connections.
	if _, err := c.Exec("SELECT broken FROM nowhere"); err == nil {
		t.Fatal("bad statement did not error")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("session dead after statement error: %v", err)
	}
}

func TestPreparedStatements(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)
	defer c.Close()
	mustExec(t, c, "CREATE TABLE n (x int)")
	stmt, err := c.Prepare("INSERT INTO n (x) VALUES (7)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := c.ExecPrepared(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Affected != 1 {
			t.Fatalf("affected = %d", res.Affected)
		}
	}
	res := mustExec(t, c, "SELECT x FROM n")
	if len(res.Rows) != 3 {
		t.Fatalf("prepared inserts = %d rows", len(res.Rows))
	}
	if err := c.CloseStmt(stmt); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecPrepared(stmt); err == nil {
		t.Fatal("closed statement still executable")
	}
	if _, err := c.Prepare("THIS IS NOT SQL"); err == nil {
		t.Fatal("prepare of garbage succeeded")
	}

	// Prepared statements are per-session: another connection can't see
	// this session's handles.
	c2 := dial(t, addr)
	defer c2.Close()
	stmt2, err := c2.Prepare("SELECT x FROM n")
	if err != nil {
		t.Fatal(err)
	}
	if stmt2 != 1 {
		t.Fatalf("fresh session's first handle = %d, want 1", stmt2)
	}
}

func mustExec(t *testing.T, c *wire.Client, sql string) *wire.Result {
	t.Helper()
	res, err := c.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

func TestConnectionLimit(t *testing.T) {
	_, addr := startServer(t, Config{MaxConns: 2})
	c1 := dial(t, addr)
	defer c1.Close()
	c2 := dial(t, addr)
	defer c2.Close()
	if _, err := wire.Dial(addr, 2*time.Second); err == nil {
		t.Fatal("third connection admitted past MaxConns=2")
	} else if !strings.Contains(err.Error(), "connection limit") {
		t.Fatalf("limit rejection error: %v", err)
	}
	// Closing one frees a slot.
	c1.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		c3, err := wire.Dial(addr, 2*time.Second)
		if err == nil {
			c3.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestIdleTimeout(t *testing.T) {
	_, addr := startServer(t, Config{IdleTimeout: 100 * time.Millisecond})
	c := dial(t, addr)
	defer c.Close()
	time.Sleep(300 * time.Millisecond)
	if err := c.Ping(); err == nil {
		t.Fatal("session survived past the idle timeout")
	}
}

func TestDrainFinishesInFlightAndRefusesNew(t *testing.T) {
	d, err := db.OpenMemory(512)
	if err != nil {
		t.Fatal(err)
	}
	eng := sqlang.NewEngine(d)
	// A slow external function lets a statement straddle the drain.
	release := make(chan struct{})
	var once sync.Once
	err = d.Funcs.Register(db.ExternalFunc{
		Name: "stall",
		Fn: func(args []any) (any, error) {
			once.Do(func() { <-release })
			return true, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, Config{Engine: eng})
	c := dial(t, addr)
	defer c.Close()
	mustExec(t, c, "CREATE TABLE r (x int)")
	mustExec(t, c, "INSERT INTO r (x) VALUES (1)")

	inFlight := make(chan error, 1)
	go func() {
		_, err := c.Exec("SELECT x FROM r WHERE stall()")
		inFlight <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the statement reach stall()

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	time.Sleep(50 * time.Millisecond)

	// New sessions are refused while draining.
	if _, err := wire.Dial(addr, 500*time.Millisecond); err == nil {
		t.Fatal("new session admitted during drain")
	}
	select {
	case err := <-inFlight:
		t.Fatalf("in-flight statement aborted by drain: %v", err)
	default:
	}

	close(release)
	if err := <-inFlight; err != nil {
		t.Fatalf("in-flight statement failed during drain: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !srv.Draining() {
		t.Fatal("Draining() false after Drain")
	}
}

func TestDrainRefusesQueuedStatement(t *testing.T) {
	srv, addr := startServer(t, Config{})
	c := dial(t, addr)
	defer c.Close()
	mustExec(t, c, "CREATE TABLE q (x int)")

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	_, err := c.Exec("INSERT INTO q (x) VALUES (1)")
	if err == nil {
		t.Fatal("statement accepted after drain")
	}
	var dr *wire.ErrDraining
	if !errors.As(err, &dr) {
		// The drain may already have closed the socket, which is also a
		// refusal — but if we got a response, it must carry the marker.
		t.Logf("post-drain statement refused with transport error: %v", err)
	}
}

func TestConcurrentSessionsOverWire(t *testing.T) {
	_, addr := startServer(t, Config{MaxConns: 32})
	setup := dial(t, addr)
	mustExec(t, setup, "CREATE TABLE burst (id int NOT NULL)")
	setup.Close()

	const sessions = 8
	const perSess = 20
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c, err := wire.Dial(addr, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < perSess; i++ {
				id := s*perSess + i
				if _, err := c.Exec(fmt.Sprintf("INSERT INTO burst (id) VALUES (%d)", id)); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	check := dial(t, addr)
	defer check.Close()
	res := mustExec(t, check, "SELECT id FROM burst")
	if len(res.Rows) != sessions*perSess {
		t.Fatalf("lost writes over the wire: %d rows, want %d", len(res.Rows), sessions*perSess)
	}
}

func TestPerOpLatencyHistograms(t *testing.T) {
	reg := obs.New()
	_, addr := startServer(t, Config{Registry: reg})
	c := dial(t, addr)
	defer c.Close()

	if _, err := c.Exec("CREATE TABLE ops (n int NOT NULL)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO ops (n) VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	stmt, err := c.Prepare("SELECT n FROM ops")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecPrepared(stmt); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	// exec: CREATE + INSERT + exec_prepared; prepare: 1; ping: hello + ping.
	if got := reg.Histogram("genalgd.op.exec.seconds").Count(); got != 3 {
		t.Errorf("exec histogram count = %d, want 3", got)
	}
	if got := reg.Histogram("genalgd.op.prepare.seconds").Count(); got != 1 {
		t.Errorf("prepare histogram count = %d, want 1", got)
	}
	if got := reg.Histogram("genalgd.op.ping.seconds").Count(); got != 2 {
		t.Errorf("ping histogram count = %d, want 2", got)
	}
	if sum := reg.Histogram("genalgd.op.exec.seconds").Sum(); sum <= 0 {
		t.Errorf("exec histogram sum = %v, want > 0", sum)
	}
}

// TestPipelinedRequestsAnsweredInOrder sends two requests in one TCP
// write: the server reads both from its buffer and answers each, in
// order.
func TestPipelinedRequestsAnsweredInOrder(t *testing.T) {
	_, addr := startServer(t, Config{})
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var batch bytes.Buffer
	for _, req := range []*wire.Request{{ID: 1, Op: wire.OpHello}, {ID: 2, Op: wire.OpPing}, {ID: 3, Op: wire.OpExec, SQL: "NOT SQL"}} {
		if err := wire.WriteMessage(&batch, req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(batch.Bytes()); err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 3; id++ {
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("response %d: %v", id, err)
		}
		var resp wire.Response
		if err := json.Unmarshal(payload, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ID != id {
			t.Fatalf("response %d carries id %d", id, resp.ID)
		}
		if wantErr := id == 3; (resp.Error != "") != wantErr {
			t.Fatalf("response %d: error %q", id, resp.Error)
		}
	}
}

// TestPreparedSelectUsesPlanCache: executing a prepared SELECT runs its
// text through the engine's plan cache, as exec does.
func TestPreparedSelectUsesPlanCache(t *testing.T) {
	d, err := db.OpenMemory(512)
	if err != nil {
		t.Fatal(err)
	}
	eng := sqlang.NewEngine(d)
	eng.Obs = obs.New()
	_, addr := startServer(t, Config{Engine: eng})
	c := dial(t, addr)
	defer c.Close()
	mustExec(t, c, "CREATE TABLE n (x int)")
	mustExec(t, c, "INSERT INTO n (x) VALUES (1), (2), (3)")
	stmt, err := c.Prepare("SELECT x FROM n WHERE x > 1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := c.ExecPrepared(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 2 {
			t.Fatalf("execution %d: %d rows, want 2", i, len(res.Rows))
		}
	}
	if hits := eng.Obs.Counter("sqlang.plan_cache.hits").Value(); hits != 2 {
		t.Fatalf("plan cache hits = %d, want 2", hits)
	}
}
