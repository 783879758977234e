// Package keccak implements the Keccak-f[1600] sponge construction and the
// two 256-bit hash flavours SmartCrowd needs: legacy Keccak-256 (as used by
// Ethereum for addresses, transaction hashes and contract storage keys) and
// FIPS-202 SHA3-256 (as referenced by the SmartCrowd paper for report
// identifiers). The two differ only in the domain-separation padding byte.
//
// The implementation is self-contained (no external dependencies): one
// unrolled permutation under one sponge, validated in keccak_test.go
// against published vectors and, differentially, against the loop form of
// the specification.
package keccak

import (
	"encoding/binary"
	"hash"
	"math/bits"
	"sync"
)

// Size is the digest size in bytes for both Keccak-256 and SHA3-256.
const Size = 32

// rate256 is the sponge rate in bytes for 256-bit output (1600-512 bits).
const rate256 = 136

// Domain-separation padding bytes. Legacy Keccak (pre-FIPS, used by
// Ethereum) pads with 0x01; FIPS-202 SHA-3 pads with 0x06.
const (
	domainKeccak = 0x01
	domainSHA3   = 0x06
)

// roundConstants are the 24 iota-step constants of Keccak-f[1600].
var roundConstants = [24]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808a,
	0x8000000080008000, 0x000000000000808b, 0x0000000080000001,
	0x8000000080008081, 0x8000000000008009, 0x000000000000008a,
	0x0000000000000088, 0x0000000080008009, 0x000000008000000a,
	0x000000008000808b, 0x800000000000008b, 0x8000000000008089,
	0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
	0x000000000000800a, 0x800000008000000a, 0x8000000080008081,
	0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

// permute applies the full 24-round Keccak-f[1600] permutation in place.
//
// It is the one kernel under every hash in the tree, so it is written as
// straight-line code: lane (x, y) lives in the local named a<x+5y>, loaded
// once and stored once, and a round is spelled out with no index
// arithmetic, no rotation table and no scratch array. Rho and pi are
// folded into which source lane each b is read from and by how much it is
// rotated; chi (and iota, on lane 0) turns one row of five b lanes into
// one row of the next state, e. The textbook loop form is permuteRef in
// keccak_test.go, the oracle this function is differentially tested
// against.
func permute(a *[25]uint64) {
	a00, a01, a02, a03, a04 := a[0], a[1], a[2], a[3], a[4]
	a05, a06, a07, a08, a09 := a[5], a[6], a[7], a[8], a[9]
	a10, a11, a12, a13, a14 := a[10], a[11], a[12], a[13], a[14]
	a15, a16, a17, a18, a19 := a[15], a[16], a[17], a[18], a[19]
	a20, a21, a22, a23, a24 := a[20], a[21], a[22], a[23], a[24]
	for _, rc := range roundConstants {
		// theta: column parities, and what each column is xored with
		c0 := a00 ^ a05 ^ a10 ^ a15 ^ a20
		c1 := a01 ^ a06 ^ a11 ^ a16 ^ a21
		c2 := a02 ^ a07 ^ a12 ^ a17 ^ a22
		c3 := a03 ^ a08 ^ a13 ^ a18 ^ a23
		c4 := a04 ^ a09 ^ a14 ^ a19 ^ a24
		d0 := c4 ^ bits.RotateLeft64(c1, 1)
		d1 := c0 ^ bits.RotateLeft64(c2, 1)
		d2 := c1 ^ bits.RotateLeft64(c3, 1)
		d3 := c2 ^ bits.RotateLeft64(c4, 1)
		d4 := c3 ^ bits.RotateLeft64(c0, 1)
		// theta's xor, rho, pi and chi, one destination row at a time;
		// iota goes into lane 0
		b0 := a00 ^ d0
		b1 := bits.RotateLeft64(a06^d1, 44)
		b2 := bits.RotateLeft64(a12^d2, 43)
		b3 := bits.RotateLeft64(a18^d3, 21)
		b4 := bits.RotateLeft64(a24^d4, 14)
		e00 := b0 ^ (^b1 & b2) ^ rc
		e01 := b1 ^ (^b2 & b3)
		e02 := b2 ^ (^b3 & b4)
		e03 := b3 ^ (^b4 & b0)
		e04 := b4 ^ (^b0 & b1)
		b0 = bits.RotateLeft64(a03^d3, 28)
		b1 = bits.RotateLeft64(a09^d4, 20)
		b2 = bits.RotateLeft64(a10^d0, 3)
		b3 = bits.RotateLeft64(a16^d1, 45)
		b4 = bits.RotateLeft64(a22^d2, 61)
		e05 := b0 ^ (^b1 & b2)
		e06 := b1 ^ (^b2 & b3)
		e07 := b2 ^ (^b3 & b4)
		e08 := b3 ^ (^b4 & b0)
		e09 := b4 ^ (^b0 & b1)
		b0 = bits.RotateLeft64(a01^d1, 1)
		b1 = bits.RotateLeft64(a07^d2, 6)
		b2 = bits.RotateLeft64(a13^d3, 25)
		b3 = bits.RotateLeft64(a19^d4, 8)
		b4 = bits.RotateLeft64(a20^d0, 18)
		e10 := b0 ^ (^b1 & b2)
		e11 := b1 ^ (^b2 & b3)
		e12 := b2 ^ (^b3 & b4)
		e13 := b3 ^ (^b4 & b0)
		e14 := b4 ^ (^b0 & b1)
		b0 = bits.RotateLeft64(a04^d4, 27)
		b1 = bits.RotateLeft64(a05^d0, 36)
		b2 = bits.RotateLeft64(a11^d1, 10)
		b3 = bits.RotateLeft64(a17^d2, 15)
		b4 = bits.RotateLeft64(a23^d3, 56)
		e15 := b0 ^ (^b1 & b2)
		e16 := b1 ^ (^b2 & b3)
		e17 := b2 ^ (^b3 & b4)
		e18 := b3 ^ (^b4 & b0)
		e19 := b4 ^ (^b0 & b1)
		b0 = bits.RotateLeft64(a02^d2, 62)
		b1 = bits.RotateLeft64(a08^d3, 55)
		b2 = bits.RotateLeft64(a14^d4, 39)
		b3 = bits.RotateLeft64(a15^d0, 41)
		b4 = bits.RotateLeft64(a21^d1, 2)
		e20 := b0 ^ (^b1 & b2)
		e21 := b1 ^ (^b2 & b3)
		e22 := b2 ^ (^b3 & b4)
		e23 := b3 ^ (^b4 & b0)
		e24 := b4 ^ (^b0 & b1)
		a00, a01, a02, a03, a04 = e00, e01, e02, e03, e04
		a05, a06, a07, a08, a09 = e05, e06, e07, e08, e09
		a10, a11, a12, a13, a14 = e10, e11, e12, e13, e14
		a15, a16, a17, a18, a19 = e15, e16, e17, e18, e19
		a20, a21, a22, a23, a24 = e20, e21, e22, e23, e24
	}
	a[0], a[1], a[2], a[3], a[4] = a00, a01, a02, a03, a04
	a[5], a[6], a[7], a[8], a[9] = a05, a06, a07, a08, a09
	a[10], a[11], a[12], a[13], a[14] = a10, a11, a12, a13, a14
	a[15], a[16], a[17], a[18], a[19] = a15, a16, a17, a18, a19
	a[20], a[21], a[22], a[23], a[24] = a20, a21, a22, a23, a24
}

// digest is a streaming sponge for 256-bit output.
type digest struct {
	state  [25]uint64
	buf    [rate256]byte
	n      int // bytes buffered in buf
	domain byte
}

var (
	_ hash.Hash = (*digest)(nil)
)

// New256 returns a streaming legacy Keccak-256 hash (Ethereum flavour).
func New256() hash.Hash { return &digest{domain: domainKeccak} }

// NewSHA3256 returns a streaming FIPS-202 SHA3-256 hash.
func NewSHA3256() hash.Hash { return &digest{domain: domainSHA3} }

func (d *digest) Size() int      { return Size }
func (d *digest) BlockSize() int { return rate256 }

func (d *digest) Reset() {
	d.state = [25]uint64{}
	d.n = 0
}

func (d *digest) Write(p []byte) (int, error) {
	written := len(p)
	for len(p) > 0 {
		n := copy(d.buf[d.n:], p)
		d.n += n
		p = p[n:]
		if d.n == rate256 {
			d.absorb()
		}
	}
	return written, nil
}

// absorb XORs one full rate block into the state and permutes.
func (d *digest) absorb() {
	for i := 0; i < rate256/8; i++ {
		d.state[i] ^= binary.LittleEndian.Uint64(d.buf[8*i:])
	}
	permute(&d.state)
	d.n = 0
}

// Sum appends the digest to b without disturbing the running state.
func (d *digest) Sum(b []byte) []byte {
	// Work on a copy so callers can keep writing afterwards.
	dc := *d
	dc.buf[dc.n] = dc.domain
	for i := dc.n + 1; i < rate256; i++ {
		dc.buf[i] = 0
	}
	dc.buf[rate256-1] |= 0x80
	for i := 0; i < rate256/8; i++ {
		dc.state[i] ^= binary.LittleEndian.Uint64(dc.buf[8*i:])
	}
	permute(&dc.state)
	var out [Size]byte
	for i := 0; i < Size/8; i++ {
		binary.LittleEndian.PutUint64(out[8*i:], dc.state[i])
	}
	return append(b, out[:]...)
}

// digestPool recycles sponge states across one-shot and streaming
// hashes. A digest is ~350 bytes of state; the verification pipeline
// hashes millions of transactions, headers, merkle nodes and trie paths,
// and pooling removes both the per-hash allocation and the full state
// copy hash.Hash's non-destructive Sum forces.
var digestPool = sync.Pool{New: func() interface{} { return new(digest) }}

func getDigest(domain byte) *digest {
	d := digestPool.Get().(*digest)
	d.Reset()
	d.domain = domain
	return d
}

// finalizeInto pads, permutes and squeezes the digest into out. It is
// destructive (the sponge state is consumed) — exactly what one-shot
// hashing wants, since it skips the defensive state copy of Sum.
func (d *digest) finalizeInto(out *[Size]byte) {
	d.buf[d.n] = d.domain
	for i := d.n + 1; i < rate256; i++ {
		d.buf[i] = 0
	}
	d.buf[rate256-1] |= 0x80
	for i := 0; i < rate256/8; i++ {
		d.state[i] ^= binary.LittleEndian.Uint64(d.buf[8*i:])
	}
	permute(&d.state)
	for i := 0; i < Size/8; i++ {
		binary.LittleEndian.PutUint64(out[8*i:], d.state[i])
	}
}

// Get256 returns a reset streaming legacy Keccak-256 hasher from the
// package pool, for input that arrives in too many pieces for
// Sum256Concat (an account digest walking its storage slots). Take the
// digest with Finalize256 and pair with Put to recycle the hasher.
func Get256() hash.Hash {
	return getDigest(domainKeccak)
}

// Put returns a hasher obtained from Get256 to the pool. The hasher must
// not be used afterwards. Hashers from other sources are ignored.
func Put(h hash.Hash) {
	if d, ok := h.(*digest); ok {
		digestPool.Put(d)
	}
}

// Finalize256 returns the digest of a hasher obtained from Get256 by
// padding and squeezing it in place — unlike Sum, no copy of the sponge
// and no allocation. The state is consumed: afterwards the hasher may
// only be Reset or Put. A hasher from another package is a caller bug
// and panics.
func Finalize256(h hash.Hash) [Size]byte {
	var out [Size]byte
	h.(*digest).finalizeInto(&out)
	return out
}

// Sum256 computes the legacy Keccak-256 digest of data in one shot.
func Sum256(data []byte) [Size]byte {
	var out [Size]byte
	d := getDigest(domainKeccak)
	_, _ = d.Write(data)
	d.finalizeInto(&out)
	digestPool.Put(d)
	return out
}

// SumSHA3256 computes the FIPS-202 SHA3-256 digest of data in one shot.
func SumSHA3256(data []byte) [Size]byte {
	var out [Size]byte
	d := getDigest(domainSHA3)
	_, _ = d.Write(data)
	d.finalizeInto(&out)
	digestPool.Put(d)
	return out
}

// Sum256Concat hashes the concatenation of the given byte slices with
// legacy Keccak-256. SmartCrowd identifiers (Eq. 1, 3 and 5 of the paper)
// are hashes over field concatenations; this helper avoids intermediate
// allocation at the call sites.
func Sum256Concat(parts ...[]byte) [Size]byte {
	d := getDigest(domainKeccak)
	for _, p := range parts {
		_, _ = d.Write(p)
	}
	var out [Size]byte
	d.finalizeInto(&out)
	digestPool.Put(d)
	return out
}
