package rlp

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/big"
	"testing"
	"testing/quick"
)

// str, num and list build encodings the way callers do: elements are
// encoded first and a list wraps their concatenation.
func str(b []byte) []byte { return AppendBytes(nil, b) }
func num(v uint64) []byte { return AppendUint64(nil, v) }
func list(elems ...[]byte) []byte {
	return AppendList(nil, bytes.Join(elems, nil))
}

// reencode walks the value at the front of b with the Split readers —
// strings by SplitBytes, lists by SplitList and then element by element —
// and returns what the Append writers make of what it read, plus the bytes
// after the value. It is the test oracle for canonicality: an accepted
// input must re-encode to itself.
func reencode(b []byte) (enc, rest []byte, err error) {
	content, rest, err := SplitBytes(b)
	if err == nil {
		return AppendBytes(nil, content), rest, nil
	}
	if !errors.Is(err, ErrExpectedString) {
		return nil, nil, err
	}
	payload, rest, err := SplitList(b)
	if err != nil {
		return nil, nil, err
	}
	var elems []byte
	for len(payload) > 0 {
		var elem []byte
		if elem, payload, err = reencode(payload); err != nil {
			return nil, nil, err
		}
		elems = append(elems, elem...)
	}
	return AppendList(nil, elems), rest, nil
}

// Canonical vectors from the Ethereum wiki RLP specification.
func TestEncodeVectors(t *testing.T) {
	cases := []struct {
		name string
		enc  []byte
		want string
	}{
		{"dog", str([]byte("dog")), "83646f67"},
		{"cat-dog list", list(str([]byte("cat")), str([]byte("dog"))), "c88363617483646f67"},
		{"empty string", str(nil), "80"},
		{"empty list", list(), "c0"},
		{"zero", num(0), "80"},
		{"fifteen", num(15), "0f"},
		{"1024", num(1024), "820400"},
		{"set of three", list(list(), list(list()), list(list(), list(list()))), "c7c0c1c0c3c0c1c0"},
		{
			"lorem (56 bytes, long string)",
			str([]byte("Lorem ipsum dolor sit amet, consectetur adipisicing elit")),
			"b8384c6f72656d20697073756d20646f6c6f722073697420616d65742c20636f6e7365637465747572206164697069736963696e6720656c6974",
		},
		{"single byte 0x00", str([]byte{0x00}), "00"},
		{"single byte 0x7f", str([]byte{0x7f}), "7f"},
		{"single byte 0x80", str([]byte{0x80}), "8180"},
	}
	for _, tc := range cases {
		got := hex.EncodeToString(tc.enc)
		if got != tc.want {
			t.Errorf("%s: encoded %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestDecodeRoundtrip(t *testing.T) {
	strs := [][]byte{
		nil,
		{0},
		[]byte("hello world"),
		bytes.Repeat([]byte{0xAB}, 100),
		new(big.Int).Lsh(big.NewInt(1), 200).Bytes(),
	}
	for i, s := range strs {
		got, rest, err := SplitBytes(str(s))
		if err != nil || len(rest) != 0 || !bytes.Equal(got, s) {
			t.Errorf("string %d: read back %x (rest %x, err %v), want %x", i, got, rest, err, s)
		}
	}
	if v, rest, err := SplitUint64(num(1<<63 + 5)); err != nil || len(rest) != 0 || v != 1<<63+5 {
		t.Errorf("uint64: read back %d (rest %x, err %v)", v, rest, err)
	}
	if payload, rest, err := SplitList(list()); err != nil || len(payload)+len(rest) != 0 {
		t.Errorf("empty list: payload %x rest %x err %v", payload, rest, err)
	}

	// A nested list is read level by level, each split leaving the next
	// element at the front.
	inner := list(num(7), str(nil))
	payload, rest, err := SplitList(list(str([]byte("a")), inner))
	if err != nil || len(rest) != 0 {
		t.Fatalf("outer list: rest %x err %v", rest, err)
	}
	a, payload, err := SplitBytes(payload)
	if err != nil || string(a) != "a" || !bytes.Equal(payload, inner) {
		t.Fatalf("first element %q, then %x (err %v), want \"a\" then %x", a, payload, err, inner)
	}
	payload, rest, err = SplitList(payload)
	if err != nil || len(rest) != 0 {
		t.Fatalf("inner list: rest %x err %v", rest, err)
	}
	seven, payload, err := SplitUint64(payload)
	if err != nil || seven != 7 {
		t.Fatalf("inner uint: %d err %v", seven, err)
	}
	if empty, rest, err := SplitBytes(payload); err != nil || len(empty)+len(rest) != 0 {
		t.Fatalf("inner empty string: %x rest %x err %v", empty, rest, err)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty input", ""},
		{"truncated short string", "83646f"},
		{"truncated long string", "b838aa"},
		{"non-canonical single byte", "8105"},
		{"non-canonical long form for short string", "b801ff"},
		{"non-canonical long form for short list", "f801c0"},
		{"length with leading zero", "b90001ff"},
		{"length past 2^31", "bb80000001"},
		{"truncated list payload", "c883636174"},
		{"truncated length prefix", "b9"},
		{"malformed element inside a list", "c28105"},
	}
	for _, tc := range cases {
		data, err := hex.DecodeString(tc.in)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := reencode(data); err == nil {
			t.Errorf("%s: readers accepted malformed input %s", tc.name, tc.in)
		}
	}

	// Trailing bytes are handed back, not swallowed: the caller that
	// expects exactly one value sees them and refuses.
	if _, rest, err := SplitBytes([]byte{0x80, 0x80}); err != nil || !bytes.Equal(rest, []byte{0x80}) {
		t.Errorf("trailing bytes: rest %x err %v, want rest 80", rest, err)
	}
}

func TestUint64Roundtrip(t *testing.T) {
	f := func(v uint64) bool {
		got, rest, err := SplitUint64(num(v))
		return err == nil && len(rest) == 0 && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAsUint64Errors(t *testing.T) {
	if _, _, err := SplitUint64(list()); !errors.Is(err, ErrExpectedString) {
		t.Errorf("SplitUint64 on a list: err = %v, want ErrExpectedString", err)
	}
	if _, _, err := SplitUint64(str(bytes.Repeat([]byte{1}, 9))); !errors.Is(err, ErrUintOverflow) {
		t.Errorf("SplitUint64 on a 9-byte string: err = %v, want ErrUintOverflow", err)
	}
	if _, _, err := SplitUint64(str([]byte{0, 1})); !errors.Is(err, ErrNonCanonical) {
		t.Errorf("SplitUint64 with a leading zero: err = %v, want ErrNonCanonical", err)
	}
	if _, _, err := SplitUint64(str([]byte{0})); !errors.Is(err, ErrNonCanonical) {
		t.Errorf("SplitUint64 of a zero byte: err = %v, want ErrNonCanonical (zero is the empty string)", err)
	}
}

// TestEncodeDeterministic: identical values must encode identically — the
// property consensus hashing relies on.
func TestEncodeDeterministic(t *testing.T) {
	f := func(a []byte, b []byte, n uint8) bool {
		enc := func() []byte { return list(str(a), list(str(b), num(uint64(n)))) }
		return bytes.Equal(enc(), enc())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestArbitraryRoundtrip builds random nested structures and checks that
// the readers walk all of the writers' output and find it canonical.
func TestArbitraryRoundtrip(t *testing.T) {
	f := func(leaves [][]byte, shape uint8) bool {
		enc := buildTree(leaves, int(shape)%3+1)
		back, rest, err := reencode(enc)
		return err == nil && len(rest) == 0 && bytes.Equal(back, enc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func buildTree(leaves [][]byte, fan int) []byte {
	if len(leaves) == 0 {
		return list()
	}
	if len(leaves) <= fan {
		elems := make([][]byte, len(leaves))
		for i, l := range leaves {
			elems[i] = str(l)
		}
		return list(elems...)
	}
	mid := len(leaves) / 2
	return list(buildTree(leaves[:mid], fan), buildTree(leaves[mid:], fan))
}

func FuzzSplit(f *testing.F) {
	f.Add([]byte{0xc8, 0x83, 0x63, 0x61, 0x74, 0x83, 0x64, 0x6f, 0x67})
	f.Add([]byte{0x80})
	f.Add([]byte{0xb8, 0x38})
	f.Fuzz(func(t *testing.T, data []byte) {
		enc, rest, err := reencode(data)
		if err != nil {
			return
		}
		// An accepted value must re-encode to the identical bytes
		// (canonicality), and the reader must hand back exactly the rest.
		if !bytes.Equal(append(enc, rest...), data) {
			t.Fatalf("split/append not canonical for %x", data)
		}
	})
}

func TestKindReflectsStructure(t *testing.T) {
	if _, _, err := SplitBytes(list(str([]byte("x")))); !errors.Is(err, ErrExpectedString) {
		t.Errorf("SplitBytes on a list: err = %v, want ErrExpectedString", err)
	}
	if _, _, err := SplitList(str([]byte("x"))); !errors.Is(err, ErrExpectedList) {
		t.Errorf("SplitList on a string: err = %v, want ErrExpectedList", err)
	}
	if _, _, err := SplitList([]byte{0x05}); !errors.Is(err, ErrExpectedList) {
		t.Errorf("SplitList on a bare byte: err = %v, want ErrExpectedList", err)
	}
}

func BenchmarkEncodeBlockLike(b *testing.B) {
	// A structure shaped like a SmartCrowd block body: 100 reports of ~200
	// bytes each.
	payload := bytes.Repeat([]byte{0x5A}, 200)
	parent := bytes.Repeat([]byte{1}, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var reports, one []byte
		for r := 0; r < 100; r++ {
			one = AppendBytes(AppendUint64(one[:0], uint64(r)), payload)
			reports = AppendList(reports, one)
		}
		body := AppendBytes(AppendUint64(nil, 123456), parent)
		AppendList(nil, AppendList(body, reports))
	}
}

// TestSizesMatchTheWriters holds the three size functions to the writers
// they predict, across every header form's boundaries, and checks that a
// buffer sized by them is filled exactly and never regrown.
func TestSizesMatchTheWriters(t *testing.T) {
	for _, n := range []int{0, 1, 2, 55, 56, 57, 255, 256, 65535, 65536, 1 << 20} {
		b := bytes.Repeat([]byte{0x9c}, n)
		if got, want := BytesSize(b), len(AppendBytes(nil, b)); got != want {
			t.Errorf("BytesSize(%d bytes) = %d, AppendBytes wrote %d", n, got, want)
		}
		if got, want := Size(n), len(AppendList(nil, b)); got != want {
			t.Errorf("Size(%d) = %d, AppendList wrote %d", n, got, want)
		}
		out := AppendListHeader(make([]byte, 0, Size(n)), n)
		if full := append(out, b...); len(full) != cap(full) || &full[0] != &out[0] {
			t.Errorf("a Size(%d) buffer ended at %d of %d bytes, or moved", n, len(full), cap(full))
		}
	}
	for _, b := range [][]byte{{0x00}, {0x7f}, {0x80}, {0xff}} {
		if got, want := BytesSize(b), len(AppendBytes(nil, b)); got != want {
			t.Errorf("BytesSize(%x) = %d, AppendBytes wrote %d", b, got, want)
		}
	}
	f := func(v uint64, shift uint8) bool {
		v >>= shift % 64
		return Uint64Size(v) == len(AppendUint64(nil, v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, v := range []uint64{0, 1, 0x7f, 0x80, 0xff, 0x100, 1<<56 - 1, 1 << 56, 1<<64 - 1} {
		if !f(v, 0) {
			t.Errorf("Uint64Size(%#x) = %d, AppendUint64 wrote %d", v, Uint64Size(v), len(AppendUint64(nil, v)))
		}
	}
}

// TestListHeaderGrowsByTheHeaderOnly: a list header fits a [9]byte for
// every payload length, and writing it there allocates nothing — the
// writer does not reserve room for a payload it is not given.
func TestListHeaderGrowsByTheHeaderOnly(t *testing.T) {
	for _, n := range []int{0, 55, 56, 150, 65536, 1 << 24} {
		var buf [9]byte
		var header []byte
		if allocs := testing.AllocsPerRun(20, func() { header = AppendListHeader(buf[:0], n) }); allocs != 0 {
			t.Errorf("a %d-byte payload's header into a [9]byte: %.0f allocations, want 0", n, allocs)
		}
		if len(header) != Size(n)-n || &header[0] != &buf[0] {
			t.Errorf("a %d-byte payload's header is %d bytes, want %d in place", n, len(header), Size(n)-n)
		}
	}
}
