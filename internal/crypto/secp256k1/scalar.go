package secp256k1

import (
	"math/big"
	"math/bits"
)

// Fixed-width arithmetic modulo the secp256k1 group order
//
//	n = 2²⁵⁶ − c,  c = 0x1_4551231950B75FC4_402DA1732FC9BEBF (129 bits).
//
// Scalars are four 64-bit limbs, little-endian, always fully reduced
// (< n), beside fieldVal and for the same reason: the ECDSA equations
// multiply, negate and invert mod n on every recovery, and doing that on
// math/big allocates. n folds the way p does — 2²⁵⁶ ≡ c (mod n) — only
// with a three-limb constant, so a 512-bit product takes three folds and
// a final conditional subtraction.
//
// Differentially tested against math/big in scalar_test.go. Not
// constant-time (see the package comment).

// nLimbs is the group order n, nFold is c = 2²⁵⁶ − n and nHalf is ⌊n/2⌋,
// all in little-endian limbs. scFold relies on nFold[2] = 1, nFold[3] = 0.
var (
	nLimbs = [4]uint64{0xBFD25E8CD0364141, 0xBAAEDCE6AF48A03B, 0xFFFFFFFFFFFFFFFE, 0xFFFFFFFFFFFFFFFF}
	nFold  = [4]uint64{0x402DA1732FC9BEBF, 0x4551231950B75FC4, 1, 0}
	nHalf  = [4]uint64{0xDFE92F46681B20A0, 0x5D576E7357A4501D, 0xFFFFFFFFFFFFFFFF, 0x7FFFFFFFFFFFFFFF}
)

// scalar is an integer mod n, fully reduced.
type scalar struct {
	n [4]uint64
}

// limbsLess reports whether a < b as 256-bit integers.
func limbsLess(a, b *[4]uint64) bool {
	for i := 3; i >= 0; i-- {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// limbsSub sets a = a − b and returns the borrow.
func limbsSub(a, b *[4]uint64) (borrow uint64) {
	a[0], borrow = bits.Sub64(a[0], b[0], 0)
	a[1], borrow = bits.Sub64(a[1], b[1], borrow)
	a[2], borrow = bits.Sub64(a[2], b[2], borrow)
	a[3], borrow = bits.Sub64(a[3], b[3], borrow)
	return borrow
}

// limbsAdd sets a = a + b and returns the carry.
func limbsAdd(a, b *[4]uint64) (carry uint64) {
	a[0], carry = bits.Add64(a[0], b[0], 0)
	a[1], carry = bits.Add64(a[1], b[1], carry)
	a[2], carry = bits.Add64(a[2], b[2], carry)
	a[3], carry = bits.Add64(a[3], b[3], carry)
	return carry
}

// limbsShr1 shifts a right by one bit, shifting top (0 or 1) in.
func limbsShr1(a *[4]uint64, top uint64) {
	a[0] = a[0]>>1 | a[1]<<63
	a[1] = a[1]>>1 | a[2]<<63
	a[2] = a[2]>>1 | a[3]<<63
	a[3] = a[3]>>1 | top<<63
}

func (a *scalar) scIsZero() bool { return a.n[0]|a.n[1]|a.n[2]|a.n[3] == 0 }

// scIsHigh reports whether a > ⌊n/2⌋ — the half of the range a low-S
// signature must stay out of.
func (a *scalar) scIsHigh() bool { return limbsLess(&nHalf, &a.n) }

// scSetBytes loads a 32-byte big-endian integer, reducing it mod n, and
// reports whether it was already in range (< n).
func (a *scalar) scSetBytes(b *[32]byte) (inRange bool) {
	loadLimbs(&a.n, b)
	if limbsLess(&a.n, &nLimbs) {
		return true
	}
	limbsSub(&a.n, &nLimbs) // < 2²⁵⁶ < 2n: one subtraction reduces
	return false
}

// scSetBig loads v and reports whether it is an integer in [0, n−1];
// anything else (nil, negative, ≥ n) leaves a unspecified.
func (a *scalar) scSetBig(v *big.Int) bool {
	if v == nil || v.Sign() < 0 || v.BitLen() > 256 {
		return false
	}
	var buf [32]byte
	v.FillBytes(buf[:])
	return a.scSetBytes(&buf)
}

// scSetDigest converts a message digest to a scalar per SEC1 §4.1.3: the
// leftmost 256 bits as a big-endian integer, reduced mod n.
func (a *scalar) scSetDigest(digest []byte) {
	if len(digest) > 32 {
		digest = digest[:32]
	}
	var buf [32]byte
	copy(buf[32-len(digest):], digest)
	a.scSetBytes(&buf)
}

// scNeg sets a = −a mod n.
func (a *scalar) scNeg() {
	if a.scIsZero() {
		return
	}
	neg := nLimbs
	limbsSub(&neg, &a.n)
	a.n = neg
}

// scSub sets a = a − b mod n.
func (a *scalar) scSub(b *scalar) { limbsSubMod(&a.n, &b.n, &nLimbs) }

// limbsSubMod sets a = a − b mod m for a, b < m.
func limbsSubMod(a, b, m *[4]uint64) {
	if limbsSub(a, b) != 0 {
		limbsAdd(a, m)
	}
}

// limbsHalveMod sets a = a/2 mod m for an odd m and a < m: an odd a
// becomes even by adding m first.
func limbsHalveMod(a, m *[4]uint64) {
	var carry uint64
	if a[0]&1 == 1 {
		carry = limbsAdd(a, m)
	}
	limbsShr1(a, carry)
}

// scMulInto sets dst = a·b mod n.
func scMulInto(dst, a, b *scalar) {
	var r [8]uint64
	r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = mul256(&a.n, &b.n)

	// value = lo + hi·2²⁵⁶ ≡ lo + hi·c. The first fold leaves < 2³⁸⁶ (seven
	// limbs), the second < 2²⁶⁰ (five), the third < 2²⁵⁶ + 2¹³³.
	var t, u [8]uint64
	scFold(&t, r[:4], r[4:])
	scFold(&u, t[:4], t[4:7])
	scFold(&t, u[:4], u[4:5])
	copy(dst.n[:], t[:4])
	if t[4] != 0 {
		// 2²⁵⁶ + v with v < 2¹³³: folding the carry adds c and cannot
		// carry again.
		limbsAdd(&dst.n, &nFold)
	}
	if !limbsLess(&dst.n, &nLimbs) {
		limbsSub(&dst.n, &nLimbs)
	}
}

// scFold sets out = lo + hi·c, one fold of 2²⁵⁶ ≡ c (mod n): each limb of
// hi adds hi[i]·c at limb i, c's top limb (1) contributing hi[i] itself
// two limbs up. len(lo) is 4, len(hi) ≤ 4, and the callers' bounds keep
// every carry inside out.
func scFold(out *[8]uint64, lo, hi []uint64) {
	*out = [8]uint64{lo[0], lo[1], lo[2], lo[3]}
	for i, h := range hi {
		var c, k uint64
		c, out[i] = mac(h, nFold[0], out[i], 0)
		c, out[i+1] = mac(h, nFold[1], out[i+1], c)
		out[i+2], k = bits.Add64(out[i+2], h, 0)
		out[i+2], c = bits.Add64(out[i+2], c, 0)
		c += k
		for j := i + 3; c != 0; j++ {
			out[j], c = bits.Add64(out[j], c, 0)
		}
	}
}

// scInvInto sets dst = a⁻¹ mod n (limbsInvMod); the inverse of zero is
// zero.
func scInvInto(dst, a *scalar) { limbsInvMod(&dst.n, &a.n, &nLimbs) }

// limbsInvMod sets dst = a⁻¹ mod m for a prime m and a < m by the binary
// extended Euclidean algorithm (HAC 14.61 specialised to an odd modulus):
// u and v shrink from (a, m) towards 1 by halving and subtracting while
// x1·a ≡ u and x2·a ≡ v (mod m) are maintained. A few hundred
// shift-and-subtract steps on four limbs, against the ~270 modular
// squarings and multiplications of a^(m−2). Its running time depends on
// a, which costs a recovery nothing (every input of one is public) and
// is no new exposure elsewhere: the package is not constant-time. The
// inverse of zero is zero.
func limbsInvMod(dst, a, m *[4]uint64) {
	one := [4]uint64{1}
	if *a == [4]uint64{} {
		*dst = *a
		return
	}
	u, v := *a, *m
	x1, x2 := one, [4]uint64{}
	for u != one && v != one {
		for u[0]&1 == 0 {
			limbsShr1(&u, 0)
			limbsHalveMod(&x1, m)
		}
		for v[0]&1 == 0 {
			limbsShr1(&v, 0)
			limbsHalveMod(&x2, m)
		}
		// gcd(u, v) = gcd(a, m) = 1, so u = v only at 1, which ends the loop.
		if limbsLess(&u, &v) {
			limbsSub(&v, &u)
			limbsSubMod(&x2, &x1, m)
		} else {
			limbsSub(&u, &v)
			limbsSubMod(&x1, &x2, m)
		}
	}
	if u == one {
		*dst = x1
	} else {
		*dst = x2
	}
}

// The GLV endomorphism: λ is a cube root of unity mod n and β one mod p,
// paired so that λ·(x, y) = (β·x, y) for every curve point (feBeta). A
// scalar k splits as k ≡ k₁ + k₂·λ with both halves near √n; the basis
// vectors (a₁, b₁) = (b₂, −glvMinusB1) and (a₂, b₂) of the lattice
// {(a, b) : a + b·λ ≡ 0 (mod n)} are libsecp256k1's, and glvG1, glvG2 are
// its precomputed ⌊2³⁸⁴·b₂/n⌉ and ⌊−2³⁸⁴·b₁/n⌉.
var (
	scLambda   = scalar{n: [4]uint64{0xDF02967C1B23BD72, 0x122E22EA20816678, 0xA5261C028812645A, 0x5363AD4CC05C30E0}}
	glvMinusB1 = scalar{n: [4]uint64{0x6F547FA90ABFE4C3, 0xE4437ED6010E8828}}
	glvB2      = scalar{n: [4]uint64{0xE86C90E49284EB15, 0x3086D221A7D46BCD}}
	glvG1      = [4]uint64{0xE893209A45DBB031, 0x3DAA8A1471E8CA7F, 0xE86C90E49284EB15, 0x3086D221A7D46BCD}
	glvG2      = [4]uint64{0x1571B4AE8AC47F71, 0x221208AC9DF506C6, 0x6F547FA90ABFE4C4, 0xE4437ED6010E8828}
)

// splitLambda sets k1 and k2 to k ≡ k1 + k2·λ (mod n) with k1 and k2
// short: each, or its negation mod n, is below 2¹²⁸ (libsecp256k1's
// split_lambda). c₁ and c₂ are k·b₂/n and −k·b₁/n rounded to integers,
// so c₁·(a₁, b₁) + c₂·(a₂, b₂) is the lattice point nearest (k, 0) and
// (k1, k2) is k's offset from it: k2 = −c₁·b₁ − c₂·b₂ and k1 = k − k2·λ.
func (k *scalar) splitLambda(k1, k2 *scalar) {
	c1, c2 := mulShift384(&k.n, &glvG1), mulShift384(&k.n, &glvG2)
	var t scalar
	scMulInto(k2, &c1, &glvMinusB1)
	scMulInto(&t, &c2, &glvB2)
	k2.scSub(&t)
	scMulInto(&t, k2, &scLambda)
	*k1 = *k
	k1.scSub(&t)
}

// mulShift384 returns k·g / 2³⁸⁴ rounded to the nearest integer (at most
// 2¹²⁸ for the two g above, so it is a reduced scalar).
func mulShift384(k, g *[4]uint64) (c scalar) {
	_, _, _, _, _, r5, r6, r7 := mul256(k, g)
	var carry uint64
	c.n[0], carry = bits.Add64(r6, r5>>63, 0)
	c.n[1], c.n[2] = bits.Add64(r7, 0, carry)
	return c
}
