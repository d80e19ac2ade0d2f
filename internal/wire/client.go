package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"
)

// Client is a thin genalgd session: one TCP connection, strictly
// alternating request/response. Safe for concurrent use; requests are
// serialized on the connection.
//
// Deadlines: SetTimeout bounds every subsequent round trip. Because the
// protocol is strictly alternating, a transport failure (timeout
// included) leaves an unconsumed response in flight, so the connection
// cannot be reused: the client marks itself broken and every later call
// fails with a *BrokenError wrapping the original cause. Callers redial.
type Client struct {
	mu      sync.Mutex
	conn    *Conn
	nextID  uint64
	timeout time.Duration
	broken  error
	// Banner is the server identification returned by hello.
	Banner string
}

// Result is the decoded outcome of a statement. An EXPLAIN statement's
// plan is its one row.
type Result struct {
	Cols     []string
	Rows     [][]any
	Affected int
}

// ErrDraining reports the server refusing new statements during shutdown.
type ErrDraining struct{ msg string }

func (e *ErrDraining) Error() string { return e.msg }

// BrokenError reports a client whose connection is no longer usable: an
// earlier round trip failed at the transport level (timeout, reset, EOF),
// leaving the request/response alternation out of step. Cause is the
// failure that broke it.
type BrokenError struct{ Cause error }

func (e *BrokenError) Error() string { return fmt.Sprintf("wire: connection broken: %v", e.Cause) }

// Unwrap exposes the breaking failure to errors.Is/As.
func (e *BrokenError) Unwrap() error { return e.Cause }

// IsTimeout reports whether err is (or was caused by) a request deadline
// expiring — the per-request timeout set with SetTimeout, or a dial
// timeout.
func IsTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// IsTransport reports whether err is a connection-level failure (dial
// refusal, timeout, reset, EOF, or a previously broken client) rather
// than a statement error the server answered with. Load drivers use this
// split to tell an unreachable daemon from a rejected statement.
func IsTransport(err error) bool {
	if err == nil {
		return false
	}
	var be *BrokenError
	var ne net.Error
	var oe *net.OpError
	return errors.As(err, &be) || errors.As(err, &ne) || errors.As(err, &oe) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed)
}

// Dial connects to a genalgd server and performs the hello exchange.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	// The hello exchange is bounded by the dial timeout too — an accepted
	// connection whose greeting never arrives should not hang the caller.
	c := &Client{conn: NewConn(conn), timeout: timeout}
	resp, err := c.roundTrip(&Request{Op: OpHello})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: hello: %w", err)
	}
	c.Banner = resp.Server
	c.SetTimeout(0)
	return c, nil
}

// Exec runs one SQL statement on the server.
func (c *Client) Exec(sql string) (*Result, error) {
	resp, err := c.roundTrip(&Request{Op: OpExec, SQL: sql})
	if err != nil {
		return nil, err
	}
	return result(resp), nil
}

// Prepare parses sql server-side, returning a statement handle.
func (c *Client) Prepare(sql string) (uint64, error) {
	resp, err := c.roundTrip(&Request{Op: OpPrepare, SQL: sql})
	if err != nil {
		return 0, err
	}
	return resp.Stmt, nil
}

// ExecPrepared runs a prepared statement by handle.
func (c *Client) ExecPrepared(stmt uint64) (*Result, error) {
	resp, err := c.roundTrip(&Request{Op: OpExecPrepared, Stmt: stmt})
	if err != nil {
		return nil, err
	}
	return result(resp), nil
}

// CloseStmt drops a prepared statement.
func (c *Client) CloseStmt(stmt uint64) error {
	_, err := c.roundTrip(&Request{Op: OpCloseStmt, Stmt: stmt})
	return err
}

// Ping round-trips a no-op.
func (c *Client) Ping() error {
	_, err := c.roundTrip(&Request{Op: OpPing})
	return err
}

// SetTimeout bounds each subsequent round trip (write + read) by d; zero
// restores blocking reads. A round trip that exceeds the deadline fails
// with a timeout error (IsTimeout) and breaks the client — the stalled
// response could still arrive and desynchronise the frame stream, so the
// connection must be redialed.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// Broken returns the transport failure that poisoned this client, or nil
// while it is still usable.
func (c *Client) Broken() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// Close sends quit (when the connection is still healthy) and closes it.
// The goodbye exchange is bounded by a short deadline of its own — a
// wedged server must not hang Close.
func (c *Client) Close() error {
	if c.Broken() == nil {
		c.mu.Lock()
		if c.timeout <= 0 || c.timeout > time.Second {
			c.timeout = time.Second
		}
		c.mu.Unlock()
		_, _ = c.roundTrip(&Request{Op: OpQuit})
	}
	return c.conn.Close()
}

func result(resp *Response) *Result {
	return &Result{Cols: resp.Cols, Rows: resp.Rows, Affected: resp.Affected}
}

func (c *Client) roundTrip(req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken != nil {
		return nil, &BrokenError{Cause: c.broken}
	}
	var deadline time.Time
	if c.timeout > 0 {
		deadline = time.Now().Add(c.timeout)
	}
	//genalgvet:ignore lockorder c.mu is the request serializer: the strictly alternating protocol requires the deadline set, write, and read to happen as one critical section per round trip
	if err := c.conn.SetDeadline(deadline); err != nil {
		c.broken = err
		return nil, err
	}
	c.nextID++
	req.ID = c.nextID
	//genalgvet:ignore lockorder c.mu is the request serializer, held across the round trip by design: one in-flight request per client, bounded by the deadline armed above
	if err := WriteMessage(c.conn, req); err != nil {
		c.broken = err
		return nil, err
	}
	//genalgvet:ignore lockorder c.mu is the request serializer: the read half of the round trip runs under the same deadline-bounded critical section
	payload, err := ReadFrame(c.conn)
	if err != nil {
		// The response (if any) is now unrecoverable: a late frame would
		// answer this request while the next call expects its own.
		c.broken = err
		return nil, err
	}
	resp, err := decodeResponse(payload)
	if err != nil {
		return nil, err
	}
	// Server errors surface before the ID sanity check: rejections sent
	// before any request was read (connection limit) carry ID 0.
	if resp.Error != "" {
		if resp.Draining {
			return nil, &ErrDraining{msg: resp.Error}
		}
		return nil, fmt.Errorf("%s", resp.Error)
	}
	if resp.ID != req.ID {
		return nil, fmt.Errorf("wire: response id %d for request %d", resp.ID, req.ID)
	}
	return resp, nil
}

// decodeResponse unmarshals with json.Number so int64 row values survive
// the trip (plain Unmarshal would flatten them to float64), then rewrites
// numbers to int64 where exact.
func decodeResponse(payload []byte) (*Response, error) {
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.UseNumber()
	var resp Response
	if err := dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("wire: bad response frame: %w", err)
	}
	for _, row := range resp.Rows {
		for i, v := range row {
			if num, ok := v.(json.Number); ok {
				row[i] = numberValue(num)
			}
		}
	}
	return &resp, nil
}

func numberValue(num json.Number) any {
	s := num.String()
	if !strings.ContainsAny(s, ".eE") {
		if iv, err := num.Int64(); err == nil {
			return iv
		}
	}
	if fv, err := num.Float64(); err == nil {
		return fv
	}
	return s
}
