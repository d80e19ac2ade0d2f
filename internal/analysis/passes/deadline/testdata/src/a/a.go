// Package a holds deadline fixtures: unarmed conn reads/writes, arming
// via SetDeadline/SetReadDeadline/SetWriteDeadline, wire helpers handed
// a raw conn, unbounded dials, and timeout-less HTTP servers.
package a

import (
	"net"
	"net/http"
	"time"

	"wire"
)

// Unarmed read: a silent peer pins the goroutine.
func rawRead(conn net.Conn, buf []byte) (int, error) {
	return conn.Read(buf) // want `read on conn without a read deadline`
}

// Armed read: clean.
func armedRead(conn net.Conn, buf []byte) (int, error) {
	if err := conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		return 0, err
	}
	return conn.Read(buf)
}

// SetDeadline arms both directions: clean.
func armedBoth(conn net.Conn, buf []byte) error {
	if err := conn.SetDeadline(time.Now().Add(time.Second)); err != nil {
		return err
	}
	if _, err := conn.Read(buf); err != nil {
		return err
	}
	_, err := conn.Write(buf)
	return err
}

// A read deadline does not bound writes.
func readArmedWrite(conn net.Conn, buf []byte) error {
	if err := conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		return err
	}
	_, err := conn.Write(buf) // want `write on conn without a write deadline`
	return err
}

// The wire helpers inherit the conn's deadlines — so the conn must be
// armed before handing it over.
func wireLoop(conn net.Conn) error {
	for {
		if err := conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
			return err
		}
		req, err := wire.ReadRequest(conn)
		if err != nil {
			return err
		}
		if err := wire.WriteMessage(conn, req); err != nil { // want `wire write to conn without a write deadline`
			return err
		}
	}
}

func wireArmed(conn net.Conn, v any) error {
	if err := conn.SetDeadline(time.Now().Add(time.Second)); err != nil {
		return err
	}
	if _, err := wire.ReadFrame(conn); err != nil {
		return err
	}
	return wire.WriteMessage(conn, v)
}

func wireColdRead(conn net.Conn) ([]byte, error) {
	return wire.ReadFrame(conn) // want `wire read from conn without a read deadline`
}

// A framed wire.Conn is checked like the conn it wraps.
func wireFramed(conn net.Conn) error {
	wc := wire.NewConn(conn)
	if err := wc.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		return err
	}
	req, err := wire.ReadRequest(wc)
	if err != nil {
		return err
	}
	return wire.WriteMessage(wc, req) // want `wire write to wc without a write deadline`
}

// Unbounded dial.
func dial(addr string) (net.Conn, error) {
	return net.Dial("tcp", addr) // want `net\.Dial blocks without bound`
}

// Bounded dial: clean.
func dialBounded(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 2*time.Second)
}

// Timeout-less HTTP servers are slowloris-vulnerable.
func serveBare(mux *http.ServeMux) *http.Server {
	return &http.Server{Handler: mux} // want `http\.Server without ReadTimeout or ReadHeaderTimeout`
}

func serveBounded(mux *http.ServeMux) *http.Server {
	return &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
}

func serveShortcut(addr string, mux *http.ServeMux) error {
	return http.ListenAndServe(addr, mux) // want `http\.ListenAndServe serves with no timeouts`
}
