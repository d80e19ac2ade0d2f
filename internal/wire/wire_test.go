package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("{}"), []byte(`{"op":"exec","sql":"SELECT 1"}`), {}}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame round-trip: got %q want %q", got, want)
		}
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("oversized frame announcement accepted")
	}
}

func TestReadFrameTornPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadFrame(bytes.NewReader(torn)); err == nil {
		t.Fatal("torn frame read as complete")
	} else if err != io.ErrUnexpectedEOF {
		// io.ReadFull reports the tear; any error is acceptable but it
		// must not be nil. Document the usual one.
		t.Logf("torn frame error: %v", err)
	}
}

// TestReadFrameStalledHugeHeader announces a MaxFrame payload and then
// ends the stream: ReadFrame must report the tear without having
// allocated the announced 16 MiB.
func TestReadFrameStalledHugeHeader(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("allocated %d bytes for a frame that never arrived", alloc)
	}
}

// stallServer accepts connections, answers the hello, then reads requests
// and never responds — the wedged-daemon shape the client deadline exists
// for. Returns the listen address.
func stallServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				req, err := ReadRequest(conn)
				if err != nil || req.Op != OpHello {
					return
				}
				if err := WriteMessage(conn, &Response{ID: req.ID, Server: "stall/1"}); err != nil {
					return
				}
				for {
					if _, err := ReadRequest(conn); err != nil {
						return
					}
					// Swallow the request; the response never comes.
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func TestClientTimeoutBreaksConnection(t *testing.T) {
	addr := stallServer(t)
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.SetTimeout(50 * time.Millisecond)
	start := time.Now()
	_, err = c.Exec("SELECT 1")
	if err == nil {
		t.Fatal("Exec against a stalled server succeeded")
	}
	if !IsTimeout(err) {
		t.Fatalf("stalled Exec error %v is not a timeout", err)
	}
	if !IsTransport(err) {
		t.Fatalf("timeout error %v not classified as transport", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, want ~50ms", elapsed)
	}

	// The alternation is out of step: the client must refuse reuse.
	if c.Broken() == nil {
		t.Fatal("client not marked broken after timeout")
	}
	_, err = c.Exec("SELECT 1")
	var be *BrokenError
	if !errors.As(err, &be) {
		t.Fatalf("Exec on broken client = %v, want *BrokenError", err)
	}
	if !IsTimeout(err) {
		t.Fatalf("broken error %v should unwrap to the original timeout", err)
	}

	// A fresh dial to the same server works (the hello still answers).
	c2, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatalf("redial after timeout: %v", err)
	}
	c2.Close()
}

func TestClientTimeoutClearsForFastResponses(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			req, err := ReadRequest(conn)
			if err != nil {
				return
			}
			if err := WriteMessage(conn, &Response{ID: req.ID, Server: "fast/1"}); err != nil {
				return
			}
		}
	}()
	c, err := Dial(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(250 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if err := c.Ping(); err != nil {
			t.Fatalf("ping %d under timeout: %v", i, err)
		}
	}
	c.SetTimeout(0)
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after clearing timeout: %v", err)
	}
}

func TestNumberValue(t *testing.T) {
	cases := []struct {
		in   string
		want any
	}{
		{"42", int64(42)},
		{"-9007199254740993", int64(-9007199254740993)}, // beyond float53
		{"3.25", 3.25},
		{"1e3", float64(1000)},
	}
	for _, c := range cases {
		resp, err := decodeResponse([]byte(`{"id":1,"rows":[[` + c.in + `]]}`))
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Rows[0][0]; got != c.want {
			t.Fatalf("numberValue(%s) = %v (%T), want %v (%T)", c.in, got, got, c.want, c.want)
		}
	}
}

// BenchmarkReadFrame reads a 20 KB frame, about perfbench's largest
// request (a fixture INSERT of 64 fragment rows): two allocations, the
// 4-byte header and the payload.
func BenchmarkReadFrame(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, bytes.Repeat([]byte("x"), 20<<10)); err != nil {
		b.Fatal(err)
	}
	frame := buf.Bytes()
	r := bytes.NewReader(frame)
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		if _, err := ReadFrame(r); err != nil {
			b.Fatal(err)
		}
	}
}

// countingWriter records each Write call.
type countingWriter struct {
	writes [][]byte
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

// discardConn is a net.Conn whose writes are counted and dropped.
type discardConn struct {
	net.Conn
	writes int
}

func (c *discardConn) Write(p []byte) (int, error) {
	c.writes++
	return len(p), nil
}

// pointResponse is a point lookup's answer, the daemon's commonest frame.
var pointResponse = &Response{ID: 7, Cols: []string{"id", "src", "quality", "flen"},
	Rows: [][]any{{"F000042", "embl", 0.97, int64(812)}}}

func TestOneWritePerFrame(t *testing.T) {
	want, err := json.Marshal(pointResponse)
	if err != nil {
		t.Fatal(err)
	}
	var w countingWriter
	if err := WriteMessage(&w, pointResponse); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&w, want); err != nil {
		t.Fatal(err)
	}
	if len(w.writes) != 2 {
		t.Fatalf("two frames took %d writes, want 2", len(w.writes))
	}
	for i, frame := range w.writes {
		got, err := ReadFrame(bytes.NewReader(frame))
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("write %d = %q (%v), want one whole frame of %s", i, frame, err, want)
		}
	}
	dc := &discardConn{}
	c := NewConn(dc)
	for i := 0; i < 3; i++ {
		if err := WriteMessage(c, pointResponse); err != nil {
			t.Fatal(err)
		}
	}
	if dc.writes != 3 {
		t.Fatalf("three frames through a Conn took %d writes, want 3", dc.writes)
	}
}

// TestConnLargeThenSmallFrames writes a large frame and then small ones
// through one Conn: each must arrive exactly as json.Marshal encodes it.
func TestConnLargeThenSmallFrames(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	rows := make([][]any, 40000)
	for i := range rows {
		rows[i] = []any{fmt.Sprintf("F%06d", i), float64(i) / 7, int64(i)}
	}
	msgs := []any{&Response{ID: 1, Rows: rows}, pointResponse, &Response{ID: 3, Error: "e"}}
	errc := make(chan error, 1)
	go func() {
		c := NewConn(a)
		for _, m := range msgs {
			if err := WriteMessage(c, m); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i, m := range msgs {
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(b)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %d bytes differ from json.Marshal's %d", i, len(got), len(want))
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// BenchmarkWriteMessage encodes and writes a point lookup's response.
func BenchmarkWriteMessage(b *testing.B) {
	var w discardConn
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteMessage(&w, pointResponse); err != nil {
			b.Fatal(err)
		}
	}
}
