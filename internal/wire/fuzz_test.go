package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadFrame checks the frame codec: a written frame reads back
// unchanged, any truncation of it is an error, and a header announcing
// an arbitrary length is honoured exactly or refused.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte(`{"op":"ping"}`), uint32(3), []byte("abc"))
	f.Add([]byte{}, uint32(MaxFrame+1), []byte{})
	f.Add([]byte("x"), uint32(preallocFrame+1), []byte("short"))
	f.Fuzz(func(t *testing.T, payload []byte, announce uint32, rest []byte) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			t.Fatal(err)
		}
		frame := buf.Bytes()
		got, err := ReadFrame(bytes.NewReader(frame))
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("round trip of %d bytes = %d bytes, %v", len(payload), len(got), err)
		}
		cut := int(announce % uint32(len(frame)))
		if _, err := ReadFrame(bytes.NewReader(frame[:cut])); err == nil {
			t.Fatalf("frame truncated to %d of %d bytes read as complete", cut, len(frame))
		}

		in := binary.BigEndian.AppendUint32(nil, announce)
		got, err = ReadFrame(bytes.NewReader(append(in, rest...)))
		switch {
		case announce > MaxFrame || int(announce) > len(rest):
			if err == nil {
				t.Fatalf("announced %d bytes with %d sent: read %d bytes", announce, len(rest), len(got))
			}
		case err != nil || !bytes.Equal(got, rest[:announce]):
			t.Fatalf("announced %d bytes: got %d bytes, %v", announce, len(got), err)
		}
	})
}

// FuzzDecodeRequest feeds ReadRequest arbitrary bytes, raw and framed: it
// may refuse them, but must not panic or return neither a request nor an
// error.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"id":1,"op":"exec","sql":"SELECT 1"}`))
	f.Add([]byte(`{"id":-1,"op":7,"stmt":"x"}`))
	f.Add([]byte(`[{"id":1}]`))
	f.Add([]byte{0, 0, 0, 2, '{', '}'})
	f.Fuzz(func(t *testing.T, data []byte) {
		var framed bytes.Buffer
		if err := WriteFrame(&framed, data); err != nil {
			t.Fatal(err)
		}
		for _, in := range [][]byte{data, framed.Bytes()} {
			if req, err := ReadRequest(bytes.NewReader(in)); err == nil && req == nil {
				t.Fatal("ReadRequest returned neither a request nor an error")
			}
		}
	})
}
