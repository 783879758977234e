package secp256k1

import (
	"math/big"
	"sync"
)

// Jacobian point arithmetic for secp256k1 (a = 0) over the limb field in
// field.go, with scalars on the limbs of scalar.go: nothing here touches
// math/big except the two conversions at the package's Point boundary.
// The generic big.Int path in curve.go remains for arbitrary curves
// (P-256 differential tests); the public Curve methods dispatch here when
// the receiver is the secp256k1 singleton.
//
// Two multiplications live here. geMulAdd (u₁·G + u₂·P, GLV-split and
// Strauss-interleaved) is every recovery and every variable-base
// multiplication; geScalarBaseMult (the generator comb) is key
// generation and Sign, which multiply G alone — geBaseTable says why the
// comb stays there.

// gePoint is a Jacobian point (X/Z², Y/Z³); Z == 0 encodes infinity.
type gePoint struct {
	x, y, z fieldVal
}

// geAffine is an affine point that is not infinity: the shape of the
// generator table and of a decompressed signature point, and what mixed
// addition takes as its second operand.
type geAffine struct {
	x, y fieldVal
}

// feOne is the field element 1.
var feOne = fieldVal{n: [4]uint64{1}}

// geInfinity returns the point at infinity.
func geInfinity() gePoint {
	return gePoint{x: feOne, y: feOne}
}

func (p *gePoint) isInfinity() bool { return p.z.feIsZero() }

// jacobian lifts an affine point (Z = 1).
func (a *geAffine) jacobian() gePoint {
	return gePoint{x: a.x, y: a.y, z: feOne}
}

// isOnCurve reports whether y² = x³ + 7.
func (a *geAffine) isOnCurve() bool {
	var lhs, rhs fieldVal
	geCurveRHS(&rhs, &a.x)
	feSqrInto(&lhs, &a.y)
	return lhs.feEqual(&rhs)
}

// geCurveRHS sets dst = x³ + 7.
func geCurveRHS(dst, x *fieldVal) {
	seven := fieldVal{n: [4]uint64{7}}
	var x2 fieldVal
	feSqrInto(&x2, x)
	feMulInto(dst, &x2, x)
	dst.feAdd(&seven)
}

// setX decompresses: it sets a to the curve point with the given x and
// the requested y parity, reporting false when no point has that x.
func (a *geAffine) setX(x *fieldVal, odd bool) bool {
	var rhs fieldVal
	geCurveRHS(&rhs, x)
	a.x = *x
	if !feSqrtInto(&a.y, &rhs) {
		return false
	}
	if a.y.feIsOdd() != odd {
		a.y.feNeg()
	}
	return true
}

// feSetBig loads a coordinate in [0, 2²⁵⁶), reducing mod p.
func (a *fieldVal) feSetBig(v *big.Int) {
	var buf [32]byte
	v.FillBytes(buf[:])
	a.feSetBytes(&buf)
}

// feBig returns the value as a fresh big.Int.
func (a *fieldVal) feBig() *big.Int {
	var buf [32]byte
	a.feBytes(&buf)
	return new(big.Int).SetBytes(buf[:])
}

// geFromAffine converts an affine big.Int point (must be on the curve,
// not infinity).
func geFromAffine(pt Point) geAffine {
	var out geAffine
	out.x.feSetBig(pt.X)
	out.y.feSetBig(pt.Y)
	return out
}

// affine normalises p with one field inversion; ok is false at infinity.
func (p *gePoint) affine() (a geAffine, ok bool) {
	if p.isInfinity() {
		return a, false
	}
	var zInv, zInv2, zInv3 fieldVal
	feInvInto(&zInv, &p.z)
	feSqrInto(&zInv2, &zInv)
	feMulInto(&zInv3, &zInv2, &zInv)
	feMulInto(&a.x, &p.x, &zInv2)
	feMulInto(&a.y, &p.y, &zInv3)
	return a, true
}

// point converts to the package's big.Int affine form.
func (a *geAffine) point() Point {
	return Point{X: a.x.feBig(), Y: a.y.feBig()}
}

// geToAffine converts back to affine big.Int coordinates.
func geToAffine(p *gePoint) Point {
	a, ok := p.affine()
	if !ok {
		return Point{}
	}
	return a.point()
}

// geDouble sets dst = 2p. With a = 0 the textbook doubling is
// X' = M² − 2S, Y' = M·(S − X') − 8Y⁴, Z' = 2YZ for M = 3X², S = 4XY²;
// scaling the result by ½ (the same point in Jacobian coordinates) halves
// M once and makes every other constant disappear: 3 multiplications, 4
// squarings and 7 additions, against the 14 additions of dbl-2009-l.
func geDouble(dst, p *gePoint) {
	if p.isInfinity() || p.y.feIsZero() {
		*dst = geInfinity()
		return
	}
	var yy, l, t fieldVal
	feSqrInto(&yy, &p.y)
	feSqrInto(&l, &p.x)
	t = l
	l.feAdd(&t)
	l.feAdd(&t)
	l.feHalve()                   // L = (3/2)·X²
	feMulInto(&t, &p.x, &yy)      // T = X·Y²
	feMulInto(&dst.z, &p.y, &p.z) // Z' = Y·Z; p is no longer read
	feSqrInto(&dst.x, &l)
	dst.x.feSub(&t)
	dst.x.feSub(&t) // X' = L² − 2T
	t.feSub(&dst.x)
	feMulInto(&dst.y, &l, &t)
	feSqrInto(&yy, &yy)
	dst.y.feSub(&yy) // Y' = L·(T − X') − Y⁴
}

// geAdd sets dst = p + q (add-1998-cmo-2: 12 multiplications, 4 squarings).
func geAdd(dst, p, q *gePoint) {
	if p.isInfinity() {
		*dst = *q
		return
	}
	if q.isInfinity() {
		*dst = *p
		return
	}
	var z1z1, z2z2, u1, s1, h, r, t fieldVal
	feSqrInto(&z1z1, &p.z)
	feSqrInto(&z2z2, &q.z)
	feMulInto(&u1, &p.x, &z2z2)
	feMulInto(&h, &q.x, &z1z1)
	feMulInto(&t, &p.y, &q.z)
	feMulInto(&s1, &t, &z2z2)
	feMulInto(&t, &q.y, &p.z)
	feMulInto(&r, &t, &z1z1)
	feMulInto(&t, &p.z, &q.z)
	h.feSub(&u1) // H = U2 − U1
	r.feSub(&s1) // R = S2 − S1
	geAddTail(dst, p, &u1, &s1, &h, &r, &t)
}

// geAddMixed sets dst = p + q for an affine q (Z2 = 1, so U1 = X1,
// S1 = Y1 and Z1·Z2 = Z1: 8 multiplications and 3 squarings). Every
// generator-table addition is this one.
func geAddMixed(dst, p *gePoint, q *geAffine) {
	if p.isInfinity() {
		*dst = q.jacobian()
		return
	}
	var z1z1, h, r, t fieldVal
	feSqrInto(&z1z1, &p.z)
	feMulInto(&h, &q.x, &z1z1)
	feMulInto(&t, &q.y, &p.z)
	feMulInto(&r, &t, &z1z1)
	h.feSub(&p.x) // H = U2 − X1
	r.feSub(&p.y) // R = S2 − Y1
	geAddTail(dst, p, &p.x, &p.y, &h, &r, &p.z)
}

// geAddTail finishes both additions from U1, S1, H = U2 − U1,
// R = S2 − S1 and Z1·Z2: X3 = R² − H³ − 2·U1·H², Y3 = R·(U1·H² − X3) −
// S1·H³, Z3 = Z1·Z2·H. H = 0 means the operands share an x: the same
// point (R = 0, so dst = 2p) or opposite ones. u1, s1 and z1z2 may point
// into dst (mixed addition passes p's own coordinates, and dst is usually
// p), so all three are consumed before dst is written.
func geAddTail(dst, p *gePoint, u1, s1, h, r, z1z2 *fieldVal) {
	if h.feIsZero() {
		if r.feIsZero() {
			geDouble(dst, p)
		} else {
			*dst = geInfinity()
		}
		return
	}
	var hh, hhh, v, s1hhh fieldVal
	feSqrInto(&hh, h)
	feMulInto(&hhh, &hh, h)
	feMulInto(&v, u1, &hh)
	feMulInto(&s1hhh, s1, &hhh)
	feMulInto(&dst.z, z1z2, h)
	feSqrInto(&dst.x, r)
	dst.x.feSub(&hhh)
	dst.x.feSub(&v)
	dst.x.feSub(&v)
	v.feSub(&dst.x)
	feMulInto(&dst.y, r, &v)
	dst.y.feSub(&s1hhh)
}

// wnaf rewrites k in width-w non-adjacent form, least-significant digit
// first: k = Σ digits[i]·2ⁱ with every nonzero digit odd, |digit| < 2^(w−1)
// and at most one nonzero digit in any w consecutive positions, so a table
// of the 2^(w−2) odd multiples P, 3P, … serves every digit and on average
// one position in w+1 calls for an addition. w is at most 8 (the digits
// are int8). It returns the number of digits used; a carry out of bit 255
// lands in digit 256.
func (k *scalar) wnaf(w int, digits *[257]int8) int {
	bit := func(i int) uint64 { return k.n[i>>6] >> (i & 63) & 1 }
	// Limbs above top are zero: a short scalar (a GLV half) stops there.
	top := 256
	for top > 0 && k.n[top/64-1] == 0 {
		top -= 64
	}
	used := 0
	var carry uint64
	for i := 0; i < 256 && (i < top || carry != 0); {
		if bit(i) == carry {
			i++
			continue
		}
		// The window starting at a set position (after carry) is odd.
		var word uint64
		width := min(w, 256-i)
		for j := width - 1; j >= 0; j-- {
			word = word<<1 | bit(i+j)
		}
		word += carry
		carry = word >> (w - 1) & 1
		digits[i] = int8(int64(word) - int64(carry<<w))
		used = i + 1
		i += width
	}
	if carry != 0 {
		digits[256] = 1
		used = 257
	}
	return used
}

// glvWnaf splits k ≡ k₁ + k₂·λ (mod n) and writes both halves in width-w
// NAF, each half's sign folded into its digits: k·P is then
// Σ d1[i]·2ⁱ·P + Σ d2[i]·2ⁱ·φ(P). It returns the longer digit count, at
// most 129.
func (k *scalar) glvWnaf(w int, d1, d2 *[257]int8) int {
	var k1, k2 scalar
	k.splitLambda(&k1, &k2)
	return max(k1.wnafSigned(w, d1), k2.wnafSigned(w, d2))
}

// wnafSigned is wnaf of a scalar read as signed: one above ⌊n/2⌋ is
// written as the negated digits of n − k.
func (k *scalar) wnafSigned(w int, digits *[257]int8) int {
	neg := k.scIsHigh()
	if neg {
		k.scNeg()
	}
	used := k.wnaf(w, digits)
	if neg {
		for i := range digits[:used] {
			digits[i] = -digits[i]
		}
	}
	return used
}

// The windows of geMulAdd: the point's odd multiples are built per call,
// so its window stays small (8 Jacobian entries); the generator's are
// built once, so its window is the widest int8 digits allow (64 affine
// entries, one mixed addition per nine positions).
const (
	glvWindowP = 5
	glvWindowG = 8
)

// geGlvTable holds, affine, the odd multiples (2i+1)·G for i < 64 in
// row 0 and their images under φ in row 1: what the generator's halves
// of geMulAdd add. 8 KB, built on first use.
var (
	geGlvOnce  sync.Once
	geGlvTable *[2][1 << (glvWindowG - 2)]geAffine
)

func geGlv() *[2][1 << (glvWindowG - 2)]geAffine {
	geGlvOnce.Do(func() {
		table := new([2][1 << (glvWindowG - 2)]geAffine)
		g := geFromAffine(S256().Generator())
		acc := g.jacobian()
		geDouble(&acc, &acc)
		twoG, _ := acc.affine()
		acc = g.jacobian()
		for i := range table[0] {
			table[0][i], _ = acc.affine()
			feMulInto(&table[1][i].x, &table[0][i].x, &feBeta)
			table[1][i].y = table[0][i].y
			geAddMixed(&acc, &acc, &twoG)
		}
		geGlvTable = table
	})
	return geGlvTable
}

// geMulAdd computes u1·G + u2·p for a curve point p: all of a
// recovery's point arithmetic, and with u1 = 0 the package's
// variable-base multiplication. Each scalar splits along the endomorphism
// φ(x, y) = (β·x, y) = λ·(x, y) into halves below 2¹²⁸, which turns the
// two 256-bit multiplications into four 128-bit ones over G, φ(G), p and
// φ(p); interleaved (Strauss), they share one chain of at most 129
// doublings, each followed by the additions the four NAFs call for.
func geMulAdd(u1 *scalar, p *geAffine, u2 *scalar) gePoint {
	var dg, dgPhi, dp, dpPhi [257]int8
	used := max(u1.glvWnaf(glvWindowG, &dg, &dgPhi), u2.glvWnaf(glvWindowP, &dp, &dpPhi))

	// tp[i] = (2i+1)·p and tpPhi[i] = φ(tp[i]): φ scales X by β in
	// Jacobian coordinates too (x = X/Z²).
	var tp, tpPhi [1 << (glvWindowP - 2)]gePoint
	var twoP gePoint
	tp[0] = p.jacobian()
	geDouble(&twoP, &tp[0])
	for i := range tp {
		if i > 0 {
			geAdd(&tp[i], &tp[i-1], &twoP)
		}
		tpPhi[i] = tp[i]
		feMulInto(&tpPhi[i].x, &tp[i].x, &feBeta)
	}
	tg := geGlv()

	acc := geInfinity()
	for i := used - 1; i >= 0; i-- {
		geDouble(&acc, &acc)
		geAddDigit(&acc, &tp, dp[i])
		geAddDigit(&acc, &tpPhi, dpPhi[i])
		geAddDigitAffine(&acc, &tg[0], dg[i])
		geAddDigitAffine(&acc, &tg[1], dgPhi[i])
	}
	return acc
}

// geAddDigit adds d·P to acc for a NAF digit d, table[i] holding
// (2i+1)·P; a zero digit adds nothing.
func geAddDigit(acc *gePoint, table *[1 << (glvWindowP - 2)]gePoint, d int8) {
	switch {
	case d > 0:
		geAdd(acc, acc, &table[d>>1])
	case d < 0:
		neg := table[(-d)>>1]
		neg.y.feNeg()
		geAdd(acc, acc, &neg)
	}
}

// geAddDigitAffine is geAddDigit over an affine table (mixed additions).
func geAddDigitAffine(acc *gePoint, table *[1 << (glvWindowG - 2)]geAffine, d int8) {
	switch {
	case d > 0:
		geAddMixed(acc, acc, &table[d>>1])
	case d < 0:
		neg := table[(-d)>>1]
		neg.y.feNeg()
		geAddMixed(acc, acc, &neg)
	}
}

// geBaseTable is the comb table for the generator, held affine so every
// addition is a mixed one: table[i][w] = w·2^(4i)·G for w ∈ [1, 16) (entry
// 0 is unused — a zero window adds nothing). 64 KB, built on first use.
// Key generation and Sign multiply G alone, and for that the comb beats
// geMulAdd: at most 64 mixed additions and no doublings, against ~129
// doublings plus ~30 additions — the chain pays off only when a second,
// variable base shares its doublings.
var (
	geBaseOnce  sync.Once
	geBaseTable *[64][16]geAffine
)

func geBase() *[64][16]geAffine {
	geBaseOnce.Do(func() {
		table := new([64][16]geAffine)
		stride := geFromAffine(S256().Generator()) // 2^(4i)·G
		for i := range table {
			acc := stride.jacobian()
			table[i][1] = stride
			for w := 2; w < 16; w++ {
				geAddMixed(&acc, &acc, &stride)
				table[i][w], _ = acc.affine()
			}
			// 16·stride is one more addition on the row's running sum.
			geAddMixed(&acc, &acc, &stride)
			stride, _ = acc.affine()
		}
		geBaseTable = table
	})
	return geBaseTable
}

// geScalarBaseMult computes k·G via the precomputed comb: one mixed
// addition per nonzero 4-bit window of k and no doublings.
func geScalarBaseMult(k *scalar) gePoint {
	table := geBase()
	acc := geInfinity()
	for i := range table {
		if w := k.n[i/16] >> (i % 16 * 4) & 0xF; w != 0 {
			geAddMixed(&acc, &acc, &table[i][w])
		}
	}
	return acc
}
