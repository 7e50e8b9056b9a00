package wire

import (
	"bufio"
	"bytes"
	"io"
	"testing"
	"testing/iotest"
)

// TestFrameRoundTrip: WriteFrame then ReadFrame returns the payload,
// reusing the caller's buffer when it is big enough.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{1}, []byte("hello"), bytes.Repeat([]byte{0xab}, 300)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	rd := bufio.NewReader(&buf)
	scratch := make([]byte, 0, 8)
	for _, want := range payloads {
		got, err := ReadFrame(rd, scratch, 4096)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("payload = %q, want %q", got, want)
		}
		scratch = got[:0]
	}
	if _, err := ReadFrame(rd, scratch, 4096); err != io.EOF {
		t.Fatalf("read past end: %v, want io.EOF", err)
	}
}

// TestFrameLimits: zero-length and over-limit frames are rejected.
func TestFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0}) // zero length
	if _, err := ReadFrame(bufio.NewReader(&buf), nil, 16); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	buf.Reset()
	if err := WriteFrame(&buf, make([]byte, 17)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(bufio.NewReader(&buf), nil, 16); err == nil {
		t.Fatal("over-limit frame accepted")
	}
}

// TestFrameTornStream pins ReadFrame's end-of-stream contract, which the
// WAL's torn-tail recovery relies on: a stream that ends between frames
// reads io.EOF, one that ends inside a frame reads io.ErrUnexpectedEOF,
// and a whole frame reads fine however the stream splits it.
func TestFrameTornStream(t *testing.T) {
	frame := AppendFrameHeader(nil, 5)
	frame = append(frame, "hello"...)
	for _, tc := range []struct {
		name    string
		stream  []byte
		oneByte bool // deliver the stream one byte per Read
		want    error
	}{
		{"empty", nil, false, io.EOF},
		{"1 header byte", frame[:1], false, io.ErrUnexpectedEOF},
		{"2 header bytes", frame[:2], false, io.ErrUnexpectedEOF},
		{"3 header bytes", frame[:3], false, io.ErrUnexpectedEOF},
		{"3 header bytes, one per read", frame[:3], true, io.ErrUnexpectedEOF},
		{"header only", frame[:4], false, io.ErrUnexpectedEOF},
		{"short payload", frame[:7], false, io.ErrUnexpectedEOF},
		{"short payload, one per read", frame[:7], true, io.ErrUnexpectedEOF},
		{"whole frame", frame, false, nil},
		{"whole frame, one per read", frame, true, nil},
	} {
		var r io.Reader = bytes.NewReader(tc.stream)
		if tc.oneByte {
			r = iotest.OneByteReader(r)
		}
		p, err := ReadFrame(bufio.NewReader(r), nil, 16)
		if err != tc.want {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if err == nil && string(p) != "hello" {
			t.Errorf("%s: payload %q, want %q", tc.name, p, "hello")
		}
	}
}

// repeatReader yields frame over and over, never ending.
type repeatReader struct {
	frame []byte
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.frame[r.off:])
		n += c
		r.off = (r.off + c) % len(r.frame)
	}
	return n, nil
}

// TestReadFrameNoAlloc: with a buffer large enough for the payload,
// reading a frame allocates nothing — not even for its 4-byte header.
func TestReadFrameNoAlloc(t *testing.T) {
	frame := AppendFrameHeader(nil, 17)
	frame = append(frame, make([]byte, 17)...)
	rd := bufio.NewReader(&repeatReader{frame: frame})
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		p, err := ReadFrame(rd, buf, 64)
		if err != nil || len(p) != 17 {
			t.Fatalf("ReadFrame = %d bytes, %v", len(p), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadFrame: %v allocs per frame, want 0", allocs)
	}
}

// TestAppendFrameHeader matches WriteFrame's prefix.
func TestAppendFrameHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	hdr := AppendFrameHeader(nil, 3)
	if !bytes.Equal(hdr, buf.Bytes()[:4]) {
		t.Fatalf("header %v, want %v", hdr, buf.Bytes()[:4])
	}
}

// TestOpRoundTrip: AppendOp/DecodeOp over both kinds and edge keys.
func TestOpRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		key int64
		del bool
	}{{0, false}, {1, true}, {1<<32 - 1, false}, {42, true}} {
		rec := AppendOp(nil, tc.del, tc.key)
		if len(rec) != OpBytes {
			t.Fatalf("record %d bytes, want %d", len(rec), OpBytes)
		}
		key, del, err := DecodeOp(rec)
		if err != nil {
			t.Fatal(err)
		}
		if key != tc.key || del != tc.del {
			t.Fatalf("decoded (%d, %v), want (%d, %v)", key, del, tc.key, tc.del)
		}
	}
}

// TestOpDecodeErrors: short and unknown-kind records are rejected.
func TestOpDecodeErrors(t *testing.T) {
	if _, _, err := DecodeOp([]byte{KindInsert, 0}); err == nil {
		t.Fatal("short record accepted")
	}
	bad := AppendOp(nil, false, 7)
	bad[0] = 99
	if _, _, err := DecodeOp(bad); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
