// Package server is the trie's network front-end: a length-prefixed TCP
// binary protocol served by one goroutine per connection. That goroutine
// applies each run of consecutive Insert/Delete requests it decodes in
// one Trie.ApplyBatch sweep, shared with the runs other connections
// queue while the sweep before it runs — the network mirror of the
// flat-combining layer: a pipelining client's updates arrive together in
// one socket read, and per-op announcement passes over them would be
// wasted work.
// Reads (Contains/Predecessor/Successor/Range) run inline on the
// lock-free path, after the connection's earlier updates, so a
// connection's requests take effect in send order. Every response goes
// out through the connection's own buffered writer, flushed once per
// burst.
//
// See DESIGN.md §Server layer for the protocol, the backpressure bound
// and the drain semantics.
package server

import (
	"encoding/binary"
	"fmt"

	"repro/internal/wire"
)

// Wire opcodes (request) — one byte on the wire. The update opcodes are
// the shared wire.Kind* bytes: the WAL serializes the same op records,
// so an op's kind byte means the same thing on disk and on the wire.
const (
	opInsert           = wire.KindInsert
	opDelete           = wire.KindDelete
	opContains    byte = 3
	opPredecessor byte = 4
	opSuccessor   byte = 5
	opRange       byte = 6
)

// Wire statuses (response) — one byte on the wire.
const (
	// statusOK carries the operation's 8-byte result value.
	statusOK byte = iota
	// statusErr carries a UTF-8 error message.
	statusErr
	// statusRangeChunk carries a descending run of 8-byte keys.
	statusRangeChunk
	// statusRangeEnd carries the total streamed key count; it is the
	// range request's final frame.
	statusRangeEnd
)

// Frame size limits. Requests are tiny and fixed-shape; a huge length
// prefix is a corrupt or hostile stream, not a big request. Range
// responses stream in bounded chunks so one giant scan cannot buffer
// arbitrarily.
const (
	maxRequestFrame = 64
	// rangeChunkKeys is the number of keys per statusRangeChunk frame
	// (8 KiB of payload).
	rangeChunkKeys = 1024
	maxFrame       = 16 + rangeChunkKeys*8
)

// request is one decoded request frame: opcode(1) | id(8) | key(8), with
// a second key operand (hi) for opRange.
type request struct {
	op  byte
	id  uint64
	key int64
	hi  int64
}

// decodeRequest parses a request payload.
func decodeRequest(p []byte) (request, error) {
	if len(p) < 17 {
		return request{}, fmt.Errorf("server: request frame %d bytes, want ≥ 17", len(p))
	}
	req := request{
		op:  p[0],
		id:  binary.BigEndian.Uint64(p[1:9]),
		key: int64(binary.BigEndian.Uint64(p[9:17])),
	}
	switch req.op {
	case opInsert, opDelete, opContains, opPredecessor, opSuccessor:
		if len(p) != 17 {
			return request{}, fmt.Errorf("server: op %d frame %d bytes, want 17", req.op, len(p))
		}
	case opRange:
		if len(p) != 25 {
			return request{}, fmt.Errorf("server: range frame %d bytes, want 25", len(p))
		}
		req.hi = int64(binary.BigEndian.Uint64(p[17:25]))
	default:
		return request{}, fmt.Errorf("server: unknown opcode %d", req.op)
	}
	return req, nil
}

// encodeRequest appends a request frame (length prefix included) to dst.
func encodeRequest(dst []byte, req request) []byte {
	n := 17
	if req.op == opRange {
		n = 25
	}
	var lb [4]byte
	binary.BigEndian.PutUint32(lb[:], uint32(n))
	dst = append(dst, lb[:]...)
	dst = append(dst, req.op)
	dst = binary.BigEndian.AppendUint64(dst, req.id)
	dst = binary.BigEndian.AppendUint64(dst, uint64(req.key))
	if req.op == opRange {
		dst = binary.BigEndian.AppendUint64(dst, uint64(req.hi))
	}
	return dst
}

// encodeValueResponse appends a statusOK response frame to dst.
func encodeValueResponse(dst []byte, id uint64, value int64) []byte {
	var lb [4]byte
	binary.BigEndian.PutUint32(lb[:], 17)
	dst = append(dst, lb[:]...)
	dst = append(dst, statusOK)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.BigEndian.AppendUint64(dst, uint64(value))
	return dst
}

// encodeErrResponse appends a statusErr response frame to dst.
func encodeErrResponse(dst []byte, id uint64, err error) []byte {
	msg := err.Error()
	var lb [4]byte
	binary.BigEndian.PutUint32(lb[:], uint32(9+len(msg)))
	dst = append(dst, lb[:]...)
	dst = append(dst, statusErr)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = append(dst, msg...)
	return dst
}

// encodeRangeChunk appends a statusRangeChunk frame carrying keys.
func encodeRangeChunk(dst []byte, id uint64, keys []int64) []byte {
	var lb [4]byte
	binary.BigEndian.PutUint32(lb[:], uint32(9+8*len(keys)))
	dst = append(dst, lb[:]...)
	dst = append(dst, statusRangeChunk)
	dst = binary.BigEndian.AppendUint64(dst, id)
	for _, k := range keys {
		dst = binary.BigEndian.AppendUint64(dst, uint64(k))
	}
	return dst
}

// encodeRangeEnd appends the terminal statusRangeEnd frame.
func encodeRangeEnd(dst []byte, id uint64, count int64) []byte {
	var lb [4]byte
	binary.BigEndian.PutUint32(lb[:], 17)
	dst = append(dst, lb[:]...)
	dst = append(dst, statusRangeEnd)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.BigEndian.AppendUint64(dst, uint64(count))
	return dst
}

// response is one decoded response payload (client side).
type response struct {
	status byte
	id     uint64
	value  int64   // statusOK / statusRangeEnd
	msg    string  // statusErr
	keys   []int64 // statusRangeChunk (aliases the read buffer's decode)
}

// decodeResponse parses a response payload.
func decodeResponse(p []byte) (response, error) {
	if len(p) < 9 {
		return response{}, fmt.Errorf("server: response frame %d bytes, want ≥ 9", len(p))
	}
	resp := response{status: p[0], id: binary.BigEndian.Uint64(p[1:9])}
	body := p[9:]
	switch resp.status {
	case statusOK, statusRangeEnd:
		if len(body) != 8 {
			return response{}, fmt.Errorf("server: value response body %d bytes, want 8", len(body))
		}
		resp.value = int64(binary.BigEndian.Uint64(body))
	case statusErr:
		resp.msg = string(body)
	case statusRangeChunk:
		if len(body)%8 != 0 {
			return response{}, fmt.Errorf("server: range chunk body %d bytes, not key-aligned", len(body))
		}
		resp.keys = make([]int64, len(body)/8)
		for i := range resp.keys {
			resp.keys[i] = int64(binary.BigEndian.Uint64(body[8*i:]))
		}
	default:
		return response{}, fmt.Errorf("server: unknown status %d", resp.status)
	}
	return resp, nil
}
