// Package wire defines genalgd's client/server protocol: length-prefixed
// JSON frames over a TCP stream.
//
// A frame is a 4-byte big-endian payload length followed by that many
// bytes of JSON, sent with one Write. Requests and responses alternate
// strictly — one request per frame, one response frame per request, in
// order — so the protocol needs no correlation machinery beyond an echo'd
// request ID (kept as a sanity check and for log lines). A peer may send
// its next request before the previous answer arrives; answers keep
// request order.
//
// Operations:
//
//	hello          open a session; the response carries the server banner
//	exec           run one SQL statement, returning columns/rows/affected
//	prepare        parse a statement and cache it server-side; returns an id
//	exec_prepared  run a previously prepared statement by id
//	close_stmt     drop a prepared statement
//	ping           round-trip no-op (liveness, idle-keepalive)
//	quit           orderly session close; the server responds, then hangs up
//
// Values cross the wire in JSON's vocabulary: ints and floats as numbers
// (the client decodes with json.Number so int64 survives), strings and
// bools natively, NULL as null, and bytes/opaque genomic values as their
// rendered string form (the wire is a presentation boundary, not a
// storage format).
//
// A response carries no query plan. To see one, send the statement
// prefixed with EXPLAIN (or EXPLAIN ANALYZE): the plan text arrives as
// that statement's single result row, in its "plan" column.
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
)

// MaxFrame bounds a frame payload; a peer announcing more is broken (or
// hostile) and the connection is dropped rather than buffered.
const MaxFrame = 16 << 20

// preallocFrame is the largest frame ReadFrame allocates in full on the
// header's word. A larger frame's buffer grows as its bytes arrive, so a
// peer announcing MaxFrame and then stalling pins only what it has sent.
const preallocFrame = 64 << 10

// Protocol op codes.
const (
	OpHello        = "hello"
	OpExec         = "exec"
	OpPrepare      = "prepare"
	OpExecPrepared = "exec_prepared"
	OpCloseStmt    = "close_stmt"
	OpPing         = "ping"
	OpQuit         = "quit"
)

// Request is one client frame.
type Request struct {
	ID  uint64 `json:"id"`
	Op  string `json:"op"`
	SQL string `json:"sql,omitempty"`
	// Stmt addresses a prepared statement (exec_prepared, close_stmt).
	Stmt uint64 `json:"stmt,omitempty"`
}

// Response is one server frame.
type Response struct {
	ID    uint64 `json:"id"`
	Error string `json:"error,omitempty"`
	// Draining marks an error as the server refusing new work during
	// shutdown (retryable elsewhere), as opposed to a statement failure.
	Draining bool `json:"draining,omitempty"`
	// Server is the banner returned by hello.
	Server string `json:"server,omitempty"`
	// Stmt is the prepared-statement id returned by prepare.
	Stmt     uint64   `json:"stmt,omitempty"`
	Cols     []string `json:"cols,omitempty"`
	Rows     [][]any  `json:"rows,omitempty"`
	Affected int      `json:"affected,omitempty"`
}

// Conn is a net.Conn whose reads go through a buffer, so a request
// costs one read syscall (and pipelined requests fewer). Writes, deadlines
// and Close are the underlying connection's. Not safe for concurrent use.
type Conn struct {
	net.Conn
	br *bufio.Reader
}

// NewConn wraps c with a read buffer.
func NewConn(c net.Conn) *Conn {
	return &Conn{Conn: c, br: bufio.NewReader(c)}
}

// Read reads through the connection's buffer.
func (c *Conn) Read(p []byte) (int, error) { return c.br.Read(p) }

// WriteFrame writes one length-prefixed payload with a single Write.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload))
	}
	frame := make([]byte, 4, 4+len(payload))
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	_, err := w.Write(append(frame, payload...))
	return err
}

// ReadFrame reads one length-prefixed payload.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: peer announced %d-byte frame (limit %d)", n, MaxFrame)
	}
	if n > preallocFrame {
		payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
		if err == nil && len(payload) < int(n) {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		return payload, nil
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// WriteMessage JSON-encodes v as one frame and writes it with a single
// Write.
func WriteMessage(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return WriteFrame(w, payload)
}

// ReadRequest reads and decodes one request frame.
func ReadRequest(r io.Reader) (*Request, error) {
	payload, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	var req Request
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, fmt.Errorf("wire: bad request frame: %w", err)
	}
	return &req, nil
}
