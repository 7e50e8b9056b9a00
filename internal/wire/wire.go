// Package wire is the shared length-prefixed framing and update-op codec
// used by both durable storage (internal/wal) and the network protocol
// (internal/server). The two consumers deliberately share one encoding:
// the WAL's serialization unit IS the op the server already ships, so a
// replication stream can later forward log frames onto the wire without
// re-encoding (ROADMAP: primary→replica catch-up).
//
// A frame is a 4-byte big-endian payload length followed by the payload.
// An update op record inside a payload is kind(1) | key(8), with the
// kind bytes chosen to match the server's opInsert/opDelete opcodes.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Update-op kind bytes. They coincide with the server protocol's
// opInsert/opDelete request opcodes — the first two values of that
// opcode space — so an op record's kind byte means the same thing on
// disk and on the wire.
const (
	KindInsert byte = iota + 1
	KindDelete
)

// OpBytes is the encoded size of one update op: kind(1) + key(8).
const OpBytes = 1 + 8

// FrameHeaderBytes is the length prefix preceding every frame payload.
const FrameHeaderBytes = 4

// ReadFrame reads one length-prefixed frame into buf (grown as needed)
// and returns the payload. The header is peeked out of r's buffer rather
// than copied, so a frame allocates nothing once buf is large enough. A
// zero or over-limit length is a corrupt or hostile stream, reported as an
// error rather than read. A stream that ends before a frame starts reads
// io.EOF; one that ends inside a frame (1–3 header bytes, or a header with
// a short payload) reads io.ErrUnexpectedEOF.
func ReadFrame(r *bufio.Reader, buf []byte, limit int) ([]byte, error) {
	hdr, err := r.Peek(FrameHeaderBytes)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF // a torn header
		}
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	r.Discard(FrameHeaderBytes) // cannot fail: Peek buffered the bytes
	if n == 0 || n > limit {
		return nil, fmt.Errorf("wire: frame length %d outside (0, %d]", n, limit)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		// A header with no payload behind it is a torn frame, not a
		// clean stream end: never let it read as io.EOF.
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// AppendFrameHeader appends the length prefix for a payload of n bytes.
func AppendFrameHeader(dst []byte, n int) []byte {
	var lb [FrameHeaderBytes]byte
	binary.BigEndian.PutUint32(lb[:], uint32(n))
	return append(dst, lb[:]...)
}

// AppendOp appends one update-op record.
func AppendOp(dst []byte, del bool, key int64) []byte {
	kind := KindInsert
	if del {
		kind = KindDelete
	}
	dst = append(dst, kind)
	return binary.BigEndian.AppendUint64(dst, uint64(key))
}

// DecodeOp decodes one update-op record from the front of p.
func DecodeOp(p []byte) (key int64, del bool, err error) {
	if len(p) < OpBytes {
		return 0, false, fmt.Errorf("wire: op record %d bytes, want %d", len(p), OpBytes)
	}
	switch p[0] {
	case KindInsert:
	case KindDelete:
		del = true
	default:
		return 0, false, fmt.Errorf("wire: unknown op kind %d", p[0])
	}
	return int64(binary.BigEndian.Uint64(p[1:9])), del, nil
}
