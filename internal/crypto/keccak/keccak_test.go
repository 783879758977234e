package keccak

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// Published Keccak-256 (legacy / Ethereum) vectors.
var keccakVectors = []struct {
	in   string
	want string
}{
	{"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"},
	{"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"},
	{"The quick brown fox jumps over the lazy dog", "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"},
	{"The quick brown fox jumps over the lazy dog.", "578951e24efd62a3d63a86f7cd19aaa53c898fe287d2552133220370240b572d"},
}

// SHA3-256 vectors generated with Python hashlib (FIPS 202).
var sha3Vectors = []struct {
	in   []byte
	want string
}{
	{[]byte(""), "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"},
	{[]byte("abc"), "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"},
	{[]byte("hello world"), "644bcc7e564373040999aac89e7622f3ca71fba1d972fd94a31c3bfbf24e3938"},
	{[]byte("The quick brown fox jumps over the lazy dog"), "69070dda01975c8c120c3aada1b282394e7f032fa9cf32f4cb2259a0897dfc04"},
	{iota200(), "5f728f63bf5ee48c77f453c0490398fa645b8d4c4e56be9a41cfec344d6ca899"},
}

func iota200() []byte {
	b := make([]byte, 200)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}

func TestKeccak256Vectors(t *testing.T) {
	for _, tc := range keccakVectors {
		got := Sum256([]byte(tc.in))
		if hex.EncodeToString(got[:]) != tc.want {
			t.Errorf("Keccak256(%q) = %x, want %s", tc.in, got, tc.want)
		}
	}
}

func TestSHA3256Vectors(t *testing.T) {
	for _, tc := range sha3Vectors {
		got := SumSHA3256(tc.in)
		if hex.EncodeToString(got[:]) != tc.want {
			t.Errorf("SHA3-256(%.10q...) = %x, want %s", tc.in, got, tc.want)
		}
	}
}

// TestStreamingMatchesOneShot checks that arbitrary write-splits produce the
// same digest as a single Write.
func TestStreamingMatchesOneShot(t *testing.T) {
	f := func(data []byte, split uint8) bool {
		h := New256()
		k := int(split) % (len(data) + 1)
		_, _ = h.Write(data[:k])
		_, _ = h.Write(data[k:])
		var one [Size]byte = Sum256(data)
		return bytes.Equal(h.Sum(nil), one[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSumDoesNotDisturbState checks Sum can be called mid-stream.
func TestSumDoesNotDisturbState(t *testing.T) {
	h := New256()
	_, _ = h.Write([]byte("part one "))
	_ = h.Sum(nil)
	_, _ = h.Write([]byte("part two"))
	want := Sum256([]byte("part one part two"))
	if !bytes.Equal(h.Sum(nil), want[:]) {
		t.Error("Sum disturbed the running sponge state")
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	h := New256()
	_, _ = h.Write([]byte("garbage"))
	h.Reset()
	_, _ = h.Write([]byte("abc"))
	want, _ := hex.DecodeString(keccakVectors[1].want)
	if !bytes.Equal(h.Sum(nil), want) {
		t.Error("Reset did not restore the initial state")
	}
}

func TestSum256ConcatEqualsJoined(t *testing.T) {
	f := func(a, b, c []byte) bool {
		joined := Sum256(bytes.Join([][]byte{a, b, c}, nil))
		split := Sum256Concat(a, b, c)
		return joined == split
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDomainSeparation ensures Keccak-256 and SHA3-256 never collide on the
// same input (different padding must yield different digests).
func TestDomainSeparation(t *testing.T) {
	f := func(data []byte) bool {
		return Sum256(data) != SumSHA3256(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRateBoundaryLengths exercises inputs that land exactly on, just below
// and just above the 136-byte sponge rate, where padding bugs hide.
func TestRateBoundaryLengths(t *testing.T) {
	for _, n := range []int{0, 1, 135, 136, 137, 271, 272, 273, 1000} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 7)
		}
		h := New256()
		_, _ = h.Write(data)
		var one [Size]byte = Sum256(data)
		if !bytes.Equal(h.Sum(nil), one[:]) {
			t.Errorf("length %d: streaming != one-shot", n)
		}
	}
}

func TestHashInterfaceSizes(t *testing.T) {
	h := New256()
	if h.Size() != 32 {
		t.Errorf("Size() = %d, want 32", h.Size())
	}
	if h.BlockSize() != 136 {
		t.Errorf("BlockSize() = %d, want 136", h.BlockSize())
	}
}

func BenchmarkKeccak256_1KiB(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sum256(data)
	}
}

var (
	permuteSink [25]uint64
	sumSink     [Size]byte
)

func BenchmarkPermute(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		permute(&permuteSink)
	}
}

// BenchmarkSum256Concat67 is one state-trie branch: tag and crit bit, left
// sum, right sum — a single permutation behind the sponge's bookkeeping.
func BenchmarkSum256Concat67(b *testing.B) {
	var tag [3]byte
	var left, right [Size]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sumSink = Sum256Concat(tag[:], left[:], right[:])
	}
}

func TestPooledGetPutRoundTrip(t *testing.T) {
	msg := []byte("pooled digest round trip")
	want := Sum256(msg)
	// Repeated Get/Put cycles must keep producing correct digests even as
	// the same pooled state objects are reused (Reset must fully scrub).
	for i := 0; i < 10; i++ {
		h := Get256()
		h.Write(msg)
		var got [Size]byte
		h.Sum(got[:0])
		Put(h)
		if got != want {
			t.Fatalf("cycle %d: pooled digest mismatch", i)
		}
		// Interleave a different message so a dirty reused state would skew.
		h2 := Get256()
		h2.Write([]byte{byte(i)})
		h2.Sum(nil)
		Put(h2)
	}
}

func TestPooledOneShotConcurrent(t *testing.T) {
	// Hammer the pooled one-shot paths from many goroutines; under -race
	// this pins that pooled states are never shared while in use.
	msgs := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc"), make([]byte, 200)}
	wants := make([][Size]byte, len(msgs))
	for i, m := range msgs {
		wants[i] = Sum256(m)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 200; i++ {
				k := (g + i) % len(msgs)
				if Sum256(msgs[k]) != wants[k] {
					done <- errAt(g, i)
					return
				}
				if Sum256Concat(msgs[k][:len(msgs[k])/2], msgs[k][len(msgs[k])/2:]) != wants[k] {
					done <- errAt(g, i)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func errAt(g, i int) error { return fmt.Errorf("goroutine %d iter %d: digest mismatch", g, i) }

// rotationOffsets holds the rho-step rotation amount for lane (x, y),
// indexed as x + 5y.
var rotationOffsets = [25]uint{
	0, 1, 62, 28, 27,
	36, 44, 6, 55, 20,
	3, 10, 43, 25, 39,
	41, 45, 15, 21, 8,
	18, 2, 61, 56, 14,
}

// permuteRef is Keccak-f[1600] in the loop form of the specification —
// the production permutation until it was unrolled, kept line for line as
// the oracle permute is checked against.
func permuteRef(a *[25]uint64) {
	var b [25]uint64
	var c, d [5]uint64
	for round := 0; round < 24; round++ {
		// theta
		for x := 0; x < 5; x++ {
			c[x] = a[x] ^ a[x+5] ^ a[x+10] ^ a[x+15] ^ a[x+20]
		}
		for x := 0; x < 5; x++ {
			d[x] = c[(x+4)%5] ^ rotl(c[(x+1)%5], 1)
		}
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				a[x+5*y] ^= d[x]
			}
		}
		// rho and pi
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				b[y+5*((2*x+3*y)%5)] = rotl(a[x+5*y], rotationOffsets[x+5*y])
			}
		}
		// chi
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				a[x+5*y] = b[x+5*y] ^ (^b[(x+1)%5+5*y] & b[(x+2)%5+5*y])
			}
		}
		// iota
		a[0] ^= roundConstants[round]
	}
}

func rotl(v uint64, n uint) uint64 { return v<<n | v>>(64-n) }

// refSum256 is legacy Keccak-256 spelled out on permuteRef: pad10*1 behind
// the domain byte, absorb whole rate blocks, squeeze 32 bytes. It shares
// nothing with digest but the constants.
func refSum256(data []byte) [Size]byte {
	p := append(append([]byte(nil), data...), domainKeccak)
	for len(p)%rate256 != 0 {
		p = append(p, 0)
	}
	p[len(p)-1] |= 0x80
	var st [25]uint64
	for ; len(p) > 0; p = p[rate256:] {
		for i := 0; i < rate256/8; i++ {
			st[i] ^= binary.LittleEndian.Uint64(p[8*i:])
		}
		permuteRef(&st)
	}
	var out [Size]byte
	for i := 0; i < Size/8; i++ {
		binary.LittleEndian.PutUint64(out[8*i:], st[i])
	}
	return out
}

func TestPermuteMatchesReference(t *testing.T) {
	check := func(s [25]uint64) {
		t.Helper()
		got, want := s, s
		permute(&got)
		permuteRef(&want)
		if got != want {
			t.Fatalf("state %016x: permute = %016x, reference = %016x", s, got, want)
		}
	}
	var s [25]uint64
	check(s) // all zero
	for i := range s {
		s[i] = ^uint64(0)
	}
	check(s) // all ones
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 10_000; i++ {
		for j := range s {
			s[j] = rng.Uint64()
		}
		check(s)
	}
}

// TestPermuteKnownAnswer pins the permutation (and the oracle) to the
// Keccak team's published intermediate values for Keccak-f[1600] applied
// to the all-zero state, once and twice.
func TestPermuteKnownAnswer(t *testing.T) {
	want := [2][3]uint64{ // lanes 0, 1, 24
		{0xF1258F7940E1DDE7, 0x84D5CCF933C0478A, 0xEAF1FF7B5CECA249},
		{0x2D5C954DF96ECB3C, 0x6A332CD07057B56D, 0x20D06CD26A8FBF5C},
	}
	var s, ref [25]uint64
	for i, w := range want {
		permute(&s)
		permuteRef(&ref)
		if got := [3]uint64{s[0], s[1], s[24]}; got != w {
			t.Errorf("application %d: permute lanes 0, 1, 24 = %016X, want %016X", i+1, got, w)
		}
		if got := [3]uint64{ref[0], ref[1], ref[24]}; got != w {
			t.Errorf("application %d: permuteRef lanes 0, 1, 24 = %016X, want %016X", i+1, got, w)
		}
	}
}

// checkSponge hashes data every way the package offers — one shot, and
// streamed (Sum), pooled (Finalize256) and Sum256Concat over the three
// pieces cut at i <= j — and reports any that differs from the reference
// sponge.
func checkSponge(t *testing.T, data []byte, i, j int) {
	t.Helper()
	want := refSum256(data)
	if got := Sum256(data); got != want {
		t.Errorf("len %d: Sum256 = %x, reference %x", len(data), got, want)
	}
	parts := [][]byte{data[:i], data[i:j], data[j:]}
	h := New256()
	for _, p := range parts {
		_, _ = h.Write(p)
	}
	if got := h.Sum(nil); !bytes.Equal(got, want[:]) {
		t.Errorf("len %d cut at %d, %d: streaming = %x, reference %x", len(data), i, j, got, want)
	}
	g := Get256()
	for _, p := range parts {
		_, _ = g.Write(p)
	}
	if got := Finalize256(g); got != want {
		t.Errorf("len %d cut at %d, %d: Finalize256 = %x, reference %x", len(data), i, j, got, want)
	}
	Put(g)
	if got := Sum256Concat(parts...); got != want {
		t.Errorf("len %d cut at %d, %d: Sum256Concat = %x, reference %x", len(data), i, j, got, want)
	}
}

// TestSpongeMatchesReferenceAtEveryLength walks every input length across
// the first three rate boundaries, each under a few seeded two-way
// (j = len) and three-way splits, so a padding or staging-buffer slip at
// any offset shows.
func TestSpongeMatchesReferenceAtEveryLength(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for n := 0; n <= 3*rate256+1; n++ {
		data := make([]byte, n)
		rng.Read(data)
		for k := 0; k < 4; k++ {
			checkSponge(t, data, rng.Intn(n+1), n)
			i := rng.Intn(n + 1)
			checkSponge(t, data, i, i+rng.Intn(n-i+1))
		}
	}
}

func FuzzSum256Differential(f *testing.F) {
	f.Add([]byte(nil), uint(0))
	f.Add([]byte("abc"), uint(1))
	f.Add(make([]byte, rate256-1), uint(7))
	f.Add(make([]byte, rate256), uint(rate256))
	f.Add(iota200(), uint(40_000))
	f.Fuzz(func(t *testing.T, data []byte, split uint) {
		n := uint(len(data))
		i := split % (n + 1)
		j := i + split/(n+1)%(n-i+1)
		checkSponge(t, data, int(i), int(j))
	})
}

// TestOneShotHashingDoesNotAllocate: the pooled sponge, its staging buffer
// and the variadic parts all stay off the heap. AllocsPerRun floors its
// average, so the occasional pool refill (a GC, or the quarter of Puts the
// race detector drops) does not read as an allocation per call.
func TestOneShotHashingDoesNotAllocate(t *testing.T) {
	data := iota200()
	if allocs := testing.AllocsPerRun(100, func() { sumSink = Sum256(data) }); allocs != 0 {
		t.Errorf("Sum256 made %.0f allocations per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { sumSink = Sum256Concat(data[:3], data[3:35], data[35:67]) }); allocs != 0 {
		t.Errorf("Sum256Concat made %.0f allocations per call, want 0", allocs)
	}
}
