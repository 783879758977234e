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

// wnafWidth is the window of the variable-base multiplication: digits are
// odd and in (−2⁴, 2⁴), so a table of the eight odd multiples P, 3P, …,
// 15P serves them all and on average one doubling in six is followed by
// an addition (one in four for a plain 4-bit window).
const wnafWidth = 5

// wnaf rewrites k in width-w non-adjacent form, least-significant digit
// first: k = Σ digits[i]·2ⁱ with every nonzero digit odd, |digit| < 2^(w−1)
// and at most one nonzero digit in any w consecutive positions. It returns
// the number of digits used; a carry out of bit 255 lands in digit 256.
func (k *scalar) wnaf(digits *[257]int8) int {
	bit := func(i int) uint64 { return k.n[i>>6] >> (i & 63) & 1 }
	used := 0
	var carry uint64
	for i := 0; i < 256; {
		if bit(i) == carry {
			i++
			continue
		}
		// The window starting at a set position (after carry) is odd.
		var word uint64
		width := wnafWidth
		if 256-i < width {
			width = 256 - i
		}
		for j := width - 1; j >= 0; j-- {
			word = word<<1 | bit(i+j)
		}
		word += carry
		carry = word >> (wnafWidth - 1) & 1
		digits[i] = int8(int64(word) - int64(carry<<wnafWidth))
		used = i + 1
		i += width
	}
	if carry != 0 {
		digits[256] = 1
		used = 257
	}
	return used
}

// geScalarMult computes k·p for an arbitrary point by width-5 wNAF:
// one doubling per bit of k and an addition from the odd-multiples table
// at each nonzero digit. This is the one variable-base multiplication of
// a verification or a recovery.
func geScalarMult(p *geAffine, k *scalar) gePoint {
	if k.scIsZero() {
		return geInfinity()
	}
	// table[i] = (2i+1)·p.
	var table [1 << (wnafWidth - 2)]gePoint
	var twoP gePoint
	table[0] = p.jacobian()
	geDouble(&twoP, &table[0])
	for i := 1; i < len(table); i++ {
		geAdd(&table[i], &table[i-1], &twoP)
	}

	var digits [257]int8
	acc := geInfinity()
	for i := k.wnaf(&digits) - 1; i >= 0; i-- {
		geDouble(&acc, &acc)
		switch d := digits[i]; {
		case d > 0:
			geAdd(&acc, &acc, &table[d>>1])
		case d < 0:
			neg := table[(-d)>>1]
			neg.y.feNeg()
			geAdd(&acc, &acc, &neg)
		}
	}
	return acc
}

// geBaseTable is the comb table for the generator, held affine so every
// addition is a mixed one: table[i][w] = w·2^(4i)·G for w ∈ [1, 16) (entry
// 0 is unused — a zero window adds nothing). 64 KB, built on first use.
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
