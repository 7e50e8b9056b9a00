package server

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"repro/internal/wire"
)

// TestWireRequestRoundTrip: every opcode survives encode→decode.
func TestWireRequestRoundTrip(t *testing.T) {
	reqs := []request{
		{op: opInsert, id: 1, key: 42},
		{op: opDelete, id: 2, key: 0},
		{op: opContains, id: 1 << 60, key: 7},
		{op: opPredecessor, id: 3, key: 1<<31 - 1},
		{op: opSuccessor, id: 4, key: 9},
		{op: opRange, id: 5, key: 10, hi: 20},
	}
	var buf []byte
	for _, r := range reqs {
		buf = encodeRequest(buf, r)
	}
	rd := bufio.NewReader(bytes.NewReader(buf))
	for i, want := range reqs {
		p, err := wire.ReadFrame(rd, nil, maxRequestFrame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := decodeRequest(p)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("frame %d: %+v != %+v", i, got, want)
		}
	}
}

// TestWireResponseRoundTrip: each response shape survives encode→decode,
// including negative values (Predecessor's −1) and multi-key chunks.
func TestWireResponseRoundTrip(t *testing.T) {
	var buf []byte
	buf = encodeValueResponse(buf, 7, -1)
	buf = encodeErrResponse(buf, 8, &RemoteError{Msg: "key 99 outside universe"})
	buf = encodeRangeChunk(buf, 9, []int64{30, 20, 10})
	buf = encodeRangeEnd(buf, 9, 3)
	rd := bufio.NewReader(bytes.NewReader(buf))

	next := func() response {
		t.Helper()
		p, err := wire.ReadFrame(rd, nil, maxFrame)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := decodeResponse(p)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if r := next(); r.status != statusOK || r.id != 7 || r.value != -1 {
		t.Fatalf("value response %+v", r)
	}
	if r := next(); r.status != statusErr || r.id != 8 || !strings.Contains(r.msg, "universe") {
		t.Fatalf("err response %+v", r)
	}
	if r := next(); r.status != statusRangeChunk || len(r.keys) != 3 || r.keys[0] != 30 {
		t.Fatalf("chunk response %+v", r)
	}
	if r := next(); r.status != statusRangeEnd || r.value != 3 {
		t.Fatalf("end response %+v", r)
	}
}

// TestWireRejectsGarbage: oversized lengths, zero lengths, short frames
// and unknown opcodes are errors, not panics or silent misreads.
func TestWireRejectsGarbage(t *testing.T) {
	if _, err := wire.ReadFrame(bufio.NewReader(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})), nil, maxRequestFrame); err == nil {
		t.Fatal("oversized frame accepted")
	}
	if _, err := wire.ReadFrame(bufio.NewReader(bytes.NewReader([]byte{0, 0, 0, 0})), nil, maxRequestFrame); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	if _, err := decodeRequest([]byte{opInsert, 1, 2}); err == nil {
		t.Fatal("short request accepted")
	}
	if _, err := decodeRequest(make([]byte, 17)); err == nil {
		t.Fatal("opcode 0 accepted")
	}
	if _, err := decodeRequest(append([]byte{opRange}, make([]byte, 16)...)); err == nil {
		t.Fatal("short range request accepted")
	}
	long := append([]byte{opInsert}, make([]byte, 24)...)
	if _, err := decodeRequest(long); err == nil {
		t.Fatal("overlong point request accepted")
	}
	if _, err := decodeResponse([]byte{99, 0, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("unknown status accepted")
	}
}

// FuzzDecodeRequest: decodeRequest never panics, and a payload it
// accepts re-encodes to exactly the bytes it read.
func FuzzDecodeRequest(f *testing.F) {
	for _, r := range []request{
		{op: opInsert, id: 1, key: 42},
		{op: opDelete, id: 2, key: -1},
		{op: opPredecessor, id: 3, key: 1<<31 - 1},
		{op: opRange, id: 5, key: 10, hi: 20},
	} {
		f.Add(encodeRequest(nil, r)[wire.FrameHeaderBytes:])
	}
	f.Add([]byte{opRange, 0})
	f.Add(make([]byte, 17))
	f.Fuzz(func(t *testing.T, p []byte) {
		req, err := decodeRequest(p)
		if err != nil {
			return
		}
		if got := encodeRequest(nil, req)[wire.FrameHeaderBytes:]; !bytes.Equal(got, p) {
			t.Fatalf("decodeRequest(%x) = %+v, which re-encodes to %x", p, req, got)
		}
	})
}

// FuzzDecodeResponse: decodeResponse never panics, and a payload it
// accepts re-encodes to exactly the bytes it read.
func FuzzDecodeResponse(f *testing.F) {
	for _, frame := range [][]byte{
		encodeValueResponse(nil, 7, -1),
		encodeErrResponse(nil, 8, &RemoteError{Msg: "key 99 outside universe"}),
		encodeRangeChunk(nil, 9, []int64{30, 20, 10}),
		encodeRangeChunk(nil, 9, nil),
		encodeRangeEnd(nil, 9, 3),
	} {
		f.Add(frame[wire.FrameHeaderBytes:])
	}
	f.Add([]byte{statusRangeChunk, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{9})
	f.Fuzz(func(t *testing.T, p []byte) {
		resp, err := decodeResponse(p)
		if err != nil {
			return
		}
		var got []byte
		switch resp.status {
		case statusOK:
			got = encodeValueResponse(nil, resp.id, resp.value)
		case statusErr:
			got = encodeErrResponse(nil, resp.id, &RemoteError{Msg: resp.msg})
		case statusRangeChunk:
			got = encodeRangeChunk(nil, resp.id, resp.keys)
		case statusRangeEnd:
			got = encodeRangeEnd(nil, resp.id, resp.value)
		default:
			t.Fatalf("decodeResponse accepted status %d", resp.status)
		}
		if got = got[wire.FrameHeaderBytes:]; !bytes.Equal(got, p) {
			t.Fatalf("decodeResponse(%x) = %+v, which re-encodes to %x", p, resp, got)
		}
	})
}
