package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/p2p"
)

// TestFrameRoundTrip is the codec property test: random kinds and payload
// sizes (including empty and max-size) survive encode→decode bit-for-bit,
// and back-to-back frames on one stream decode in order. It also pins the
// documented geometry in literals: a 10-byte header and a 40-byte
// envelope precede every payload, and encodedSize — what the byte
// counters charge per frame — is exactly what reaches the stream.
func TestFrameRoundTrip(t *testing.T) {
	if headerSize != 10 || envelopeSize != 40 {
		t.Fatalf("header %d + envelope %d bytes, DESIGN.md §8.2 says 10 + 40", headerSize, envelopeSize)
	}
	rng := rand.New(rand.NewSource(7))
	var buf bytes.Buffer
	var want []Frame
	for i := 0; i < 200; i++ {
		size := rng.Intn(4096)
		switch i {
		case 0:
			size = 0
		case 1:
			size = MaxFramePayload
		}
		payload := make([]byte, size)
		rng.Read(payload)
		f := Frame{Kind: p2p.MsgKind(1 + rng.Intn(3)), Payload: payload}
		before := buf.Len()
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("frame %d: write: %v", i, err)
		}
		if got := buf.Len() - before; got != 10+40+size || got != f.encodedSize() {
			t.Fatalf("frame %d: %d bytes on the stream, encodedSize %d, want header+envelope+payload = %d",
				i, got, f.encodedSize(), 10+40+size)
		}
		want = append(want, f)
	}
	for i, w := range want {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: read: %v", i, err)
		}
		if got.Kind != w.Kind || !bytes.Equal(got.Payload, w.Payload) {
			t.Fatalf("frame %d: round trip mismatch", i)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("%d trailing bytes after decoding all frames", buf.Len())
	}
}

func encodeValid(t *testing.T, f Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadFrameRejectsGarbageMagic(t *testing.T) {
	raw := encodeValid(t, Frame{Kind: p2p.MsgTx, Payload: []byte("x")})
	raw[0] = 'X'
	if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestReadFrameRejectsVersionMismatch(t *testing.T) {
	raw := encodeValid(t, Frame{Kind: p2p.MsgTx, Payload: []byte("x")})
	for _, v := range []byte{0, ProtocolVersion - 1, ProtocolVersion + 1} {
		raw[4] = v
		if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrBadVersion) {
			t.Errorf("version %d: err = %v, want ErrBadVersion", v, err)
		}
	}
}

func TestReadFrameRejectsOversizedDeclaredLength(t *testing.T) {
	raw := encodeValid(t, Frame{Kind: p2p.MsgBlock, Payload: []byte("x")})
	binary.BigEndian.PutUint32(raw[6:], envelopeSize+MaxFramePayload+1)
	if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestWriteFrameRefusesOversizedPayload(t *testing.T) {
	err := WriteFrame(io.Discard, Frame{Kind: p2p.MsgBlock, Payload: make([]byte, MaxFramePayload+1)})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestWriteFrameDoesNotCopyPayload: a frame reaches a TCP connection as
// its header plus the caller's payload in one vectored write, so what
// WriteFrame allocates does not depend on the payload — the same count and
// the same bytes for 1 KB as for 1 MB, where copying the frame into one
// buffer allocated the megabyte.
func TestWriteFrameDoesNotCopyPayload(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The reader accepts, allocates its one buffer and reads a first frame
	// before anything is measured: the process-wide byte count below must
	// not pick up its setup (io.Copy's pooled buffer was 8 KB).
	drained := make(chan error, 1)
	ready := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(ready)
			drained <- err
			return
		}
		buf := make([]byte, 64<<10)
		_, err = conn.Read(buf)
		close(ready)
		for err == nil {
			_, err = conn.Read(buf)
		}
		conn.Close()
		if errors.Is(err, io.EOF) {
			err = nil
		}
		drained <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, Frame{Kind: p2p.MsgBlock}); err != nil {
		t.Fatal(err)
	}
	<-ready
	const runs = 20
	type cost struct{ allocs, bytes float64 }
	costs := map[int]cost{}
	for _, size := range []int{1 << 10, 1 << 20} {
		f := Frame{Kind: p2p.MsgBlock, Payload: make([]byte, size)}
		write := func() {
			if err := WriteFrame(conn, f); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			write()
		}
		runtime.ReadMemStats(&after)
		costs[size] = cost{testing.AllocsPerRun(runs, write), float64(after.TotalAlloc-before.TotalAlloc) / runs}
	}
	conn.Close()
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	small, large := costs[1<<10], costs[1<<20]
	if small.allocs != large.allocs {
		t.Errorf("WriteFrame allocates %v times for 1 KB and %v for 1 MB", small.allocs, large.allocs)
	}
	// The header and its two-slice vector are a few hundred bytes at most;
	// the margin absorbs what the runtime allocates beside the test.
	for size, c := range costs {
		if c.bytes > 512 {
			t.Errorf("WriteFrame of a %d-byte payload allocates %.0f bytes per frame", size, c.bytes)
		}
	}
}

func TestReadFrameTruncation(t *testing.T) {
	full := encodeValid(t, Frame{Kind: p2p.MsgBlock, Payload: bytes.Repeat([]byte("ab"), 64)})
	for _, cut := range []int{1, headerSize - 1, headerSize, headerSize + 5, len(full) - 1} {
		_, err := ReadFrame(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Errorf("cut at %d decoded successfully", cut)
		}
	}
}

// TestReadFrameGarbageNeverPanics feeds random byte streams through the
// decoder: every outcome must be a clean error or a valid frame, never a
// panic or a runaway allocation.
func TestReadFrameGarbageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		raw := make([]byte, rng.Intn(256))
		rng.Read(raw)
		r := bytes.NewReader(raw)
		for {
			if _, err := ReadFrame(r); err != nil {
				break
			}
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := hello{NodeID: "node@10.0.0.1:9470", HeadNumber: 42}
	for i := range h.Genesis {
		h.Genesis[i] = byte(i)
		h.HeadID[i] = byte(255 - i)
	}
	got, err := decodeHello(encodeHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("round trip: got %+v, want %+v", got, h)
	}
}

func TestDecodeHelloRejectsMalformed(t *testing.T) {
	valid := encodeHello(hello{NodeID: "n1"})
	for name, raw := range map[string][]byte{
		"empty":        {},
		"short":        valid[:len(valid)-3],
		"trailing":     append(append([]byte{}, valid...), 0xff),
		"zero-id":      encodeHello(hello{}),
		"oversized-id": encodeHello(hello{NodeID: p2p.NodeID(bytes.Repeat([]byte("a"), maxNodeIDLen+1))}),
	} {
		if _, err := decodeHello(raw); !errors.Is(err, ErrBadHello) {
			t.Errorf("%s: err = %v, want ErrBadHello", name, err)
		}
	}
}
