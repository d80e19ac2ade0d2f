// Package wire stubs the protocol layer for deadline fixtures.
package wire

import (
	"io"
	"net"
)

type Request struct{ ID uint64 }

// Conn stubs the framed connection: a net.Conn with buffered reads.
type Conn struct{ net.Conn }

func NewConn(c net.Conn) *Conn { return &Conn{c} }

func ReadRequest(r io.Reader) (*Request, error) { return nil, nil }
func ReadFrame(r io.Reader) ([]byte, error)     { return nil, nil }
func WriteMessage(w io.Writer, v any) error     { return nil }
func WriteFrame(w io.Writer, b []byte) error    { return nil }
