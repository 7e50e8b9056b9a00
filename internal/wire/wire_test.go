package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/iotest"
)

// frame returns payload behind its length prefix.
func frame(payload []byte) []byte {
	return append(AppendFrameHeader(nil, len(payload)), payload...)
}

// TestFrameRoundTrip: a framed payload reads back through ReadFrame,
// which reuses the caller's buffer when it is big enough.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{1}, []byte("hello"), bytes.Repeat([]byte{0xab}, 300)}
	for _, p := range payloads {
		buf.Write(frame(p))
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
	buf.Write(frame(make([]byte, 17)))
	if _, err := ReadFrame(bufio.NewReader(&buf), nil, 16); err == nil {
		t.Fatal("over-limit frame accepted")
	}
}

// TestFrameTornStream pins ReadFrame's end-of-stream contract, which the
// WAL's torn-tail recovery relies on: a stream that ends between frames
// reads io.EOF, one that ends inside a frame reads io.ErrUnexpectedEOF,
// and a whole frame reads fine however the stream splits it.
func TestFrameTornStream(t *testing.T) {
	hello := frame([]byte("hello"))
	for _, tc := range []struct {
		name    string
		stream  []byte
		oneByte bool // deliver the stream one byte per Read
		want    error
	}{
		{"empty", nil, false, io.EOF},
		{"1 header byte", hello[:1], false, io.ErrUnexpectedEOF},
		{"2 header bytes", hello[:2], false, io.ErrUnexpectedEOF},
		{"3 header bytes", hello[:3], false, io.ErrUnexpectedEOF},
		{"3 header bytes, one per read", hello[:3], true, io.ErrUnexpectedEOF},
		{"header only", hello[:4], false, io.ErrUnexpectedEOF},
		{"short payload", hello[:7], false, io.ErrUnexpectedEOF},
		{"short payload, one per read", hello[:7], true, io.ErrUnexpectedEOF},
		{"whole frame", hello, false, nil},
		{"whole frame, one per read", hello, true, nil},
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
	rd := bufio.NewReader(&repeatReader{frame: frame(make([]byte, 17))})
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

// TestAppendFrameHeader: the prefix is the payload length, 4 bytes
// big-endian, appended after what dst already holds.
func TestAppendFrameHeader(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want []byte
	}{{3, []byte{0, 0, 0, 3}}, {300, []byte{0, 0, 1, 44}}, {1 << 24, []byte{1, 0, 0, 0}}} {
		got := AppendFrameHeader([]byte{9}, tc.n)
		if !bytes.Equal(got, append([]byte{9}, tc.want...)) {
			t.Fatalf("AppendFrameHeader(n=%d) = %v, want 9 then %v", tc.n, got, tc.want)
		}
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

// FuzzReadFrame: over any byte stream ReadFrame never panics, every frame
// it returns re-frames to exactly the bytes it consumed, and the stream
// ends as the contract says — io.EOF only between frames,
// io.ErrUnexpectedEOF only inside one.
func FuzzReadFrame(f *testing.F) {
	f.Add(frame([]byte("hello")), 16)
	f.Add(append(frame([]byte{1}), frame([]byte{2, 3})...), 16)
	f.Add([]byte{0, 0, 0, 0}, 16)
	f.Add([]byte{0, 0, 0, 17, 1}, 16)
	f.Add([]byte{0, 0, 0, 5, 'h', 'e'}, 16)
	f.Add([]byte{0, 0}, 16)
	f.Fuzz(func(t *testing.T, stream []byte, limit int) {
		if limit < 1 || limit > 1<<16 {
			limit = 1 << 16
		}
		rd := bufio.NewReader(bytes.NewReader(stream))
		var consumed []byte
		for {
			p, err := ReadFrame(rd, nil, limit)
			rest := stream[len(consumed):]
			switch {
			case err == nil:
				if len(p) == 0 || len(p) > limit {
					t.Fatalf("payload %d bytes outside (0, %d]", len(p), limit)
				}
				consumed = append(consumed, frame(p)...)
				if !bytes.HasPrefix(stream, consumed) {
					t.Fatalf("frame %x does not match the stream", frame(p))
				}
				continue
			case err == io.EOF:
				if len(rest) != 0 {
					t.Fatalf("io.EOF with %d bytes unread", len(rest))
				}
			case err == io.ErrUnexpectedEOF:
				if len(rest) >= FrameHeaderBytes && FrameHeaderBytes+int(binary.BigEndian.Uint32(rest)) <= len(rest) {
					t.Fatalf("io.ErrUnexpectedEOF with a whole frame unread: %x", rest)
				}
			default: // a zero or over-limit length
				if len(rest) < FrameHeaderBytes {
					t.Fatalf("%v with only %d bytes unread", err, len(rest))
				}
				if n := int(binary.BigEndian.Uint32(rest)); n != 0 && n <= limit {
					t.Fatalf("length %d within (0, %d] rejected: %v", n, limit, err)
				}
			}
			return
		}
	})
}

// FuzzDecodeOp: DecodeOp never panics, and a record it accepts re-encodes
// to the bytes it read.
func FuzzDecodeOp(f *testing.F) {
	f.Add(AppendOp(nil, false, 7))
	f.Add(AppendOp(nil, true, -1))
	f.Add([]byte{KindInsert, 0})
	f.Add([]byte{99, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, p []byte) {
		key, del, err := DecodeOp(p)
		if err != nil {
			return
		}
		if got := AppendOp(nil, del, key); !bytes.Equal(got, p[:OpBytes]) {
			t.Fatalf("DecodeOp(%x) = (%d, %v), which re-encodes to %x", p[:OpBytes], key, del, got)
		}
	})
}
