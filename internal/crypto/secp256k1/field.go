package secp256k1

import "math/bits"

// Fixed-width field arithmetic modulo the secp256k1 prime
//
//	p = 2²⁵⁶ − 2³² − 977 = 2²⁵⁶ − 0x1000003D1.
//
// Values are four 64-bit limbs, little-endian, always kept fully reduced
// (< p). The special prime shape makes reduction cheap: any overflow c at
// 2²⁵⁶ folds back as c·0x1000003D1. This is the same strategy
// libsecp256k1 and btcec use. Every secp256k1 path — keys, signing,
// recovery, SEC1 encoding, point decompression — runs on these limbs and
// allocates nothing here.
//
// Multiplication and squaring are unrolled schoolbook products; square
// root is a fixed addition chain over the (public) exponent (p + 1)/4, and
// inversion the binary extended Euclid scalars use too (limbsInvMod).
// Everything is differentially tested against math/big in field_test.go.
// The code is not constant-time (see the package comment).

// pFold is 2²⁵⁶ mod p.
const pFold uint64 = 0x1000003D1

// pLimbs is the prime p in little-endian limbs.
var pLimbs = [4]uint64{
	0xFFFFFFFEFFFFFC2F, 0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF,
}

// fieldVal is an element of GF(p), fully reduced.
type fieldVal struct {
	n [4]uint64
}

// feBeta is β, the cube root of unity mod p that pairs with scLambda:
// φ(x, y) = (β·x, y) is the point λ·(x, y).
var feBeta = fieldVal{n: [4]uint64{0xC1396C28719501EE, 0x9CF0497512F58995, 0x6E64479EAC3434E9, 0x7AE96A2B657C0710}}

// feIsZero reports whether a == 0.
func (a *fieldVal) feIsZero() bool {
	return a.n[0]|a.n[1]|a.n[2]|a.n[3] == 0
}

// feEqual reports whether a == b.
func (a *fieldVal) feEqual(b *fieldVal) bool {
	return a.n == b.n
}

// feIsOdd reports whether the (fully reduced) value is odd.
func (a *fieldVal) feIsOdd() bool { return a.n[0]&1 == 1 }

// geqP reports whether the unreduced limb vector is ≥ p.
func geqP(n *[4]uint64) bool {
	if n[3] != pLimbs[3] {
		return n[3] > pLimbs[3]
	}
	if n[2] != pLimbs[2] {
		return n[2] > pLimbs[2]
	}
	if n[1] != pLimbs[1] {
		return n[1] > pLimbs[1]
	}
	return n[0] >= pLimbs[0]
}

// subP subtracts p in place (caller guarantees the value is ≥ p).
func subP(n *[4]uint64) {
	var borrow uint64
	n[0], borrow = bits.Sub64(n[0], pLimbs[0], 0)
	n[1], borrow = bits.Sub64(n[1], pLimbs[1], borrow)
	n[2], borrow = bits.Sub64(n[2], pLimbs[2], borrow)
	n[3], _ = bits.Sub64(n[3], pLimbs[3], borrow)
}

// loadLimbs reads 32 big-endian bytes into little-endian limbs.
func loadLimbs(n *[4]uint64, b *[32]byte) {
	for i := 0; i < 4; i++ {
		n[i] = uint64(b[31-8*i]) | uint64(b[30-8*i])<<8 |
			uint64(b[29-8*i])<<16 | uint64(b[28-8*i])<<24 |
			uint64(b[27-8*i])<<32 | uint64(b[26-8*i])<<40 |
			uint64(b[25-8*i])<<48 | uint64(b[24-8*i])<<56
	}
}

// storeLimbs writes little-endian limbs as 32 big-endian bytes.
func storeLimbs(out *[32]byte, n *[4]uint64) {
	for i := 0; i < 4; i++ {
		limb := n[i]
		out[31-8*i] = byte(limb)
		out[30-8*i] = byte(limb >> 8)
		out[29-8*i] = byte(limb >> 16)
		out[28-8*i] = byte(limb >> 24)
		out[27-8*i] = byte(limb >> 32)
		out[26-8*i] = byte(limb >> 40)
		out[25-8*i] = byte(limb >> 48)
		out[24-8*i] = byte(limb >> 56)
	}
}

// feSetBytes loads a 32-byte big-endian value, reducing mod p.
func (a *fieldVal) feSetBytes(b *[32]byte) {
	loadLimbs(&a.n, b)
	if geqP(&a.n) {
		subP(&a.n)
	}
}

// feBytes stores the value as 32 big-endian bytes.
func (a *fieldVal) feBytes(out *[32]byte) { storeLimbs(out, &a.n) }

// feAdd sets a = a + b mod p. Both the sum and the sum minus p (that is,
// plus pFold, dropping 2²⁵⁶) are computed and one is selected by mask: on
// random operands either is as likely as the other, and a branch here
// mispredicts half the time.
func (a *fieldVal) feAdd(b *fieldVal) {
	var c, k uint64
	s0, c := bits.Add64(a.n[0], b.n[0], 0)
	s1, c := bits.Add64(a.n[1], b.n[1], c)
	s2, c := bits.Add64(a.n[2], b.n[2], c)
	s3, c := bits.Add64(a.n[3], b.n[3], c)
	t0, k := bits.Add64(s0, pFold, 0)
	t1, k := bits.Add64(s1, 0, k)
	t2, k := bits.Add64(s2, 0, k)
	t3, k := bits.Add64(s3, 0, k)
	// a + b ≥ p exactly when one of the two additions carried out.
	mask := -(c | k)
	a.n[0] = s0&^mask | t0&mask
	a.n[1] = s1&^mask | t1&mask
	a.n[2] = s2&^mask | t2&mask
	a.n[3] = s3&^mask | t3&mask
}

// feSub sets a = a − b mod p, adding p back (subtracting pFold from the
// wrapped difference) under a mask for the same reason feAdd selects.
func (a *fieldVal) feSub(b *fieldVal) {
	var c uint64
	d0, c := bits.Sub64(a.n[0], b.n[0], 0)
	d1, c := bits.Sub64(a.n[1], b.n[1], c)
	d2, c := bits.Sub64(a.n[2], b.n[2], c)
	d3, c := bits.Sub64(a.n[3], b.n[3], c)
	a.n[0], c = bits.Sub64(d0, pFold&-c, 0)
	a.n[1], c = bits.Sub64(d1, 0, c)
	a.n[2], c = bits.Sub64(d2, 0, c)
	a.n[3], _ = bits.Sub64(d3, 0, c)
}

// feHalve sets a = a/2 mod p: an odd a becomes even by adding p first.
func (a *fieldVal) feHalve() {
	mask := -(a.n[0] & 1)
	var c uint64
	a.n[0], c = bits.Add64(a.n[0], pLimbs[0]&mask, 0)
	a.n[1], c = bits.Add64(a.n[1], mask, c)
	a.n[2], c = bits.Add64(a.n[2], mask, c)
	a.n[3], c = bits.Add64(a.n[3], mask, c)
	limbsShr1(&a.n, c)
}

// feNeg sets a = −a mod p.
func (a *fieldVal) feNeg() {
	if a.feIsZero() {
		return
	}
	var borrow uint64
	a.n[0], borrow = bits.Sub64(pLimbs[0], a.n[0], 0)
	a.n[1], borrow = bits.Sub64(pLimbs[1], a.n[1], borrow)
	a.n[2], borrow = bits.Sub64(pLimbs[2], a.n[2], borrow)
	a.n[3], _ = bits.Sub64(pLimbs[3], a.n[3], borrow)
}

// mac returns a·b + c + d as (hi, lo). The sum cannot overflow 128 bits:
// (2⁶⁴−1)² + 2·(2⁶⁴−1) = 2¹²⁸ − 1.
func mac(a, b, c, d uint64) (hi, lo uint64) {
	var carry uint64
	hi, lo = bits.Mul64(a, b)
	lo, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	lo, carry = bits.Add64(lo, d, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	return hi, lo
}

// mul256 returns the 512-bit schoolbook product a·b, least-significant
// limb first: row i adds a[i]·b into limbs i..i+4, the carry out of each
// row landing in the limb above it.
func mul256(a, b *[4]uint64) (r0, r1, r2, r3, r4, r5, r6, r7 uint64) {
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
	var c uint64
	c, r0 = bits.Mul64(a0, b0)
	c, r1 = mac(a0, b1, c, 0)
	c, r2 = mac(a0, b2, c, 0)
	r4, r3 = mac(a0, b3, c, 0)

	c, r1 = mac(a1, b0, r1, 0)
	c, r2 = mac(a1, b1, r2, c)
	c, r3 = mac(a1, b2, r3, c)
	r5, r4 = mac(a1, b3, r4, c)

	c, r2 = mac(a2, b0, r2, 0)
	c, r3 = mac(a2, b1, r3, c)
	c, r4 = mac(a2, b2, r4, c)
	r6, r5 = mac(a2, b3, r5, c)

	c, r3 = mac(a3, b0, r3, 0)
	c, r4 = mac(a3, b1, r4, c)
	c, r5 = mac(a3, b2, r5, c)
	r7, r6 = mac(a3, b3, r6, c)
	return
}

// feMulInto sets dst = a·b mod p.
func feMulInto(dst, a, b *fieldVal) {
	r0, r1, r2, r3, r4, r5, r6, r7 := mul256(&a.n, &b.n)
	reduce512(dst, r0, r1, r2, r3, r4, r5, r6, r7)
}

// feSqrInto sets dst = a² mod p: the six cross products a[i]·a[j], i < j,
// are computed once and doubled, then the four squares are added — ten
// multiplications where the general product takes sixteen.
func feSqrInto(dst, a *fieldVal) {
	a0, a1, a2, a3 := a.n[0], a.n[1], a.n[2], a.n[3]
	var r0, r1, r2, r3, r4, r5, r6, r7, c uint64

	// Cross products into r1..r6.
	c, r1 = bits.Mul64(a0, a1)
	c, r2 = mac(a0, a2, c, 0)
	r4, r3 = mac(a0, a3, c, 0)
	c, r3 = mac(a1, a2, r3, 0)
	r5, r4 = mac(a1, a3, r4, c)
	r6, r5 = mac(a2, a3, r5, 0)

	// Double them (the sum of cross products is < 2⁴⁴⁸, so r7 takes the
	// last shifted-out bit).
	r7 = r6 >> 63
	r6 = r6<<1 | r5>>63
	r5 = r5<<1 | r4>>63
	r4 = r4<<1 | r3>>63
	r3 = r3<<1 | r2>>63
	r2 = r2<<1 | r1>>63
	r1 <<= 1

	// Add the squares a[i]² at limb 2i.
	var hi, lo uint64
	hi, r0 = bits.Mul64(a0, a0)
	r1, c = bits.Add64(r1, hi, 0)
	hi, lo = bits.Mul64(a1, a1)
	r2, c = bits.Add64(r2, lo, c)
	r3, c = bits.Add64(r3, hi, c)
	hi, lo = bits.Mul64(a2, a2)
	r4, c = bits.Add64(r4, lo, c)
	r5, c = bits.Add64(r5, hi, c)
	hi, lo = bits.Mul64(a3, a3)
	r6, c = bits.Add64(r6, lo, c)
	r7, _ = bits.Add64(r7, hi, c)

	reduce512(dst, r0, r1, r2, r3, r4, r5, r6, r7)
}

// reduce512 folds a 512-bit product into a fully reduced field element:
// value = lo + hi·2²⁵⁶ ≡ lo + hi·pFold (mod p), applied twice.
func reduce512(dst *fieldVal, r0, r1, r2, r3, r4, r5, r6, r7 uint64) {
	// Round 1: fold r4..r7·pFold into r0..r3; t4 ≤ 2³³ is what spills.
	var c, t0, t1, t2, t3, t4 uint64
	c, t0 = mac(r4, pFold, r0, 0)
	c, t1 = mac(r5, pFold, r1, c)
	c, t2 = mac(r6, pFold, r2, c)
	t4, t3 = mac(r7, pFold, r3, c)

	// Round 2: fold t4·pFold (< 2⁶⁷) into the low 256 bits.
	hi, lo := bits.Mul64(t4, pFold)
	dst.n[0], c = bits.Add64(t0, lo, 0)
	dst.n[1], c = bits.Add64(t1, hi, c)
	dst.n[2], c = bits.Add64(t2, 0, c)
	dst.n[3], c = bits.Add64(t3, 0, c)
	if c != 0 {
		// One final fold of a single 2²⁵⁶ overflow.
		dst.n[0], c = bits.Add64(dst.n[0], pFold, 0)
		dst.n[1], c = bits.Add64(dst.n[1], 0, c)
		dst.n[2], c = bits.Add64(dst.n[2], 0, c)
		dst.n[3], _ = bits.Add64(dst.n[3], 0, c)
	}
	if geqP(&dst.n) {
		subP(&dst.n)
	}
}

// feSqrMul sets dst = a^(2ⁿ)·b: n squarings, then one multiplication — the
// step every addition chain below is made of. dst may alias a or b.
func feSqrMul(dst, a *fieldVal, n int, b *fieldVal) {
	t := *a
	for ; n > 0; n-- {
		feSqrInto(&t, &t)
	}
	feMulInto(dst, &t, b)
}

// fePow223 computes the powers square root's exponent starts with: with
// xₖ = a^(2ᵏ − 1) (k one-bits), it returns x2, x22 and x223, built along
// the chain 1, 2, 3, 6, 9, 11, 22, 44, 88, 176, 220, 223 (libsecp256k1's).
// (p + 1)/4 starts with 223 ones, a zero and 22 ones, and so does p − 2
// (the Fermat inverse field_test.go checks feInvInto against).
func fePow223(a *fieldVal) (x2, x22, x223 fieldVal) {
	var x3, x6, x9, x11, x44, x88, x176, x220 fieldVal
	feSqrMul(&x2, a, 1, a)
	feSqrMul(&x3, &x2, 1, a)
	feSqrMul(&x6, &x3, 3, &x3)
	feSqrMul(&x9, &x6, 3, &x3)
	feSqrMul(&x11, &x9, 2, &x2)
	feSqrMul(&x22, &x11, 11, &x11)
	feSqrMul(&x44, &x22, 22, &x22)
	feSqrMul(&x88, &x44, 44, &x44)
	feSqrMul(&x176, &x88, 88, &x88)
	feSqrMul(&x220, &x176, 44, &x44)
	feSqrMul(&x223, &x220, 3, &x3)
	return x2, x22, x223
}

// feInvInto sets dst = a⁻¹ mod p (limbsInvMod). The inverse of zero is
// zero.
func feInvInto(dst, a *fieldVal) { limbsInvMod(&dst.n, &a.n, &pLimbs) }

// feSqrtInto sets dst to a square root of a and reports whether a has one.
// p ≡ 3 (mod 4), so a^((p+1)/4) is a root exactly when a is a quadratic
// residue; squaring the candidate decides. 254 squarings, 13
// multiplications.
func feSqrtInto(dst, a *fieldVal) bool {
	x2, x22, x223 := fePow223(a)
	// (p + 1)/4 = [223 ones] 0 [22 ones] 0000 11 00.
	var t, check fieldVal
	feSqrMul(&t, &x223, 23, &x22)
	feSqrMul(&t, &t, 6, &x2)
	feSqrInto(&t, &t)
	feSqrInto(&t, &t)
	feSqrInto(&check, &t)
	*dst = t
	return check.feEqual(a)
}
