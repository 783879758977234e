// Package secp256k1 implements the secp256k1 elliptic curve and ECDSA
// signatures with deterministic (RFC 6979) nonces and public-key recovery,
// matching the signature scheme the SmartCrowd paper prescribes for SRAs
// (Eq. 2) and detection reports (Eq. 4).
//
// There are two arithmetic layers. The Curve type is written over a
// generic short-Weierstrass curve (y² = x³ + ax + b mod p) on math/big, so
// that the identical code path can be instantiated with NIST P-256 and
// differentially tested against the Go standard library
// (secp256k1_test.go). For the secp256k1 singleton its methods dispatch
// to fixed four-limb kernels — field.go (mod p), scalar.go (mod n),
// point_fast.go (Jacobian points, the GLV/Strauss chain and the generator
// comb) — which
// allocate nothing and are themselves differentially tested against the
// math/big layer. RecoverPublicKeyXY, the one signature check production
// code runs, is written directly on the kernels and never touches
// math/big: a Signature is its 65 wire bytes, and the key comes back as
// 64 bytes of X ‖ Y. math/big remains in key generation and Sign, in the
// Point/PublicKey API, and as the test oracle.
//
// Neither layer is constant-time; SmartCrowd is a research platform, not
// a wallet.
package secp256k1

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"sync"
)

// Curve holds the domain parameters of a short-Weierstrass curve over a
// prime field, y² = x³ + A·x + B (mod P), with base point (Gx, Gy) of
// prime order N.
type Curve struct {
	Name    string
	P       *big.Int // field prime
	N       *big.Int // group order
	A, B    *big.Int // curve coefficients
	Gx, Gy  *big.Int // generator
	BitSize int
}

// Point is an affine curve point. The zero value (nil coordinates) is the
// point at infinity.
type Point struct {
	X, Y *big.Int
}

// Infinity reports whether p is the point at infinity.
func (p Point) Infinity() bool { return p.X == nil || p.Y == nil }

// Equal reports whether two points are the same affine point.
func (p Point) Equal(q Point) bool {
	if p.Infinity() || q.Infinity() {
		return p.Infinity() && q.Infinity()
	}
	return p.X.Cmp(q.X) == 0 && p.Y.Cmp(q.Y) == 0
}

func (p Point) String() string {
	if p.Infinity() {
		return "(inf)"
	}
	return fmt.Sprintf("(%x, %x)", p.X, p.Y)
}

func mustHex(s string) *big.Int {
	v, ok := new(big.Int).SetString(s, 16)
	if !ok {
		panic("secp256k1: bad hex constant " + s)
	}
	return v
}

// S256 returns the secp256k1 curve parameters (SEC 2, version 2.0).
func S256() *Curve { return _s256 }

var _s256 = &Curve{
	Name:    "secp256k1",
	P:       mustHex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"),
	N:       mustHex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"),
	A:       big.NewInt(0),
	B:       big.NewInt(7),
	Gx:      mustHex("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"),
	Gy:      mustHex("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"),
	BitSize: 256,
}

// P256Params returns NIST P-256 parameters for differential testing against
// crypto/elliptic. Not used by the SmartCrowd protocol itself.
func P256Params() *Curve {
	return &Curve{
		Name:    "P-256",
		P:       mustHex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"),
		N:       mustHex("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"),
		A:       mustHex("ffffffff00000001000000000000000000000000fffffffffffffffffffffffc"),
		B:       mustHex("5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b"),
		Gx:      mustHex("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"),
		Gy:      mustHex("4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"),
		BitSize: 256,
	}
}

// IsOnCurve reports whether p satisfies the curve equation (the point at
// infinity is considered on-curve).
func (c *Curve) IsOnCurve(p Point) bool {
	if p.Infinity() {
		return true
	}
	if p.X.Sign() < 0 || p.X.Cmp(c.P) >= 0 || p.Y.Sign() < 0 || p.Y.Cmp(c.P) >= 0 {
		return false
	}
	// y² = x³ + ax + b
	y2 := new(big.Int).Mul(p.Y, p.Y)
	y2.Mod(y2, c.P)
	rhs := new(big.Int).Mul(p.X, p.X)
	rhs.Mul(rhs, p.X)
	ax := new(big.Int).Mul(c.A, p.X)
	rhs.Add(rhs, ax)
	rhs.Add(rhs, c.B)
	rhs.Mod(rhs, c.P)
	return y2.Cmp(rhs) == 0
}

// Generator returns the curve's base point.
func (c *Curve) Generator() Point {
	return Point{X: new(big.Int).Set(c.Gx), Y: new(big.Int).Set(c.Gy)}
}

// jacobian is a point in Jacobian projective coordinates:
// (X/Z², Y/Z³). Z == 0 encodes the point at infinity.
type jacobian struct {
	x, y, z *big.Int
}

func (c *Curve) toJacobian(p Point) jacobian {
	if p.Infinity() {
		return jacobian{x: big.NewInt(1), y: big.NewInt(1), z: big.NewInt(0)}
	}
	return jacobian{
		x: new(big.Int).Set(p.X),
		y: new(big.Int).Set(p.Y),
		z: big.NewInt(1),
	}
}

func (c *Curve) fromJacobian(j jacobian) Point {
	if j.z.Sign() == 0 {
		return Point{}
	}
	zInv := new(big.Int).ModInverse(j.z, c.P)
	zInv2 := new(big.Int).Mul(zInv, zInv)
	zInv2.Mod(zInv2, c.P)
	x := new(big.Int).Mul(j.x, zInv2)
	x.Mod(x, c.P)
	zInv3 := zInv2.Mul(zInv2, zInv)
	zInv3.Mod(zInv3, c.P)
	y := new(big.Int).Mul(j.y, zInv3)
	y.Mod(y, c.P)
	return Point{X: x, Y: y}
}

// double returns 2*j using the standard dbl-2007-bl-style formulas with a
// general curve coefficient A.
func (c *Curve) double(j jacobian) jacobian {
	if j.z.Sign() == 0 || j.y.Sign() == 0 {
		return jacobian{x: big.NewInt(1), y: big.NewInt(1), z: big.NewInt(0)}
	}
	p := c.P
	xx := new(big.Int).Mul(j.x, j.x) // X²
	xx.Mod(xx, p)
	yy := new(big.Int).Mul(j.y, j.y) // Y²
	yy.Mod(yy, p)
	yyyy := new(big.Int).Mul(yy, yy) // Y⁴
	yyyy.Mod(yyyy, p)
	zz := new(big.Int).Mul(j.z, j.z) // Z²
	zz.Mod(zz, p)

	// S = 4·X·Y²
	s := new(big.Int).Mul(j.x, yy)
	s.Lsh(s, 2)
	s.Mod(s, p)

	// M = 3·X² + A·Z⁴
	m := new(big.Int).Lsh(xx, 1)
	m.Add(m, xx)
	if c.A.Sign() != 0 {
		z4 := new(big.Int).Mul(zz, zz)
		z4.Mod(z4, p)
		z4.Mul(z4, c.A)
		m.Add(m, z4)
	}
	m.Mod(m, p)

	// X' = M² − 2·S
	x3 := new(big.Int).Mul(m, m)
	x3.Sub(x3, new(big.Int).Lsh(s, 1))
	x3.Mod(x3, p)
	if x3.Sign() < 0 {
		x3.Add(x3, p)
	}

	// Y' = M·(S − X') − 8·Y⁴
	y3 := new(big.Int).Sub(s, x3)
	y3.Mul(y3, m)
	y3.Sub(y3, new(big.Int).Lsh(yyyy, 3))
	y3.Mod(y3, p)
	if y3.Sign() < 0 {
		y3.Add(y3, p)
	}

	// Z' = 2·Y·Z
	z3 := new(big.Int).Mul(j.y, j.z)
	z3.Lsh(z3, 1)
	z3.Mod(z3, p)

	return jacobian{x: x3, y: y3, z: z3}
}

// add returns j1 + j2 in Jacobian coordinates.
func (c *Curve) add(j1, j2 jacobian) jacobian {
	if j1.z.Sign() == 0 {
		return j2
	}
	if j2.z.Sign() == 0 {
		return j1
	}
	p := c.P

	z1z1 := new(big.Int).Mul(j1.z, j1.z)
	z1z1.Mod(z1z1, p)
	z2z2 := new(big.Int).Mul(j2.z, j2.z)
	z2z2.Mod(z2z2, p)

	u1 := new(big.Int).Mul(j1.x, z2z2)
	u1.Mod(u1, p)
	u2 := new(big.Int).Mul(j2.x, z1z1)
	u2.Mod(u2, p)

	s1 := new(big.Int).Mul(j1.y, j2.z)
	s1.Mul(s1, z2z2)
	s1.Mod(s1, p)
	s2 := new(big.Int).Mul(j2.y, j1.z)
	s2.Mul(s2, z1z1)
	s2.Mod(s2, p)

	if u1.Cmp(u2) == 0 {
		if s1.Cmp(s2) != 0 {
			// P + (−P) = infinity
			return jacobian{x: big.NewInt(1), y: big.NewInt(1), z: big.NewInt(0)}
		}
		return c.double(j1)
	}

	h := new(big.Int).Sub(u2, u1)
	h.Mod(h, p)
	i := new(big.Int).Lsh(h, 1)
	i.Mul(i, i)
	i.Mod(i, p)
	jj := new(big.Int).Mul(h, i)
	jj.Mod(jj, p)

	r := new(big.Int).Sub(s2, s1)
	r.Mod(r, p)
	r.Lsh(r, 1)

	v := new(big.Int).Mul(u1, i)
	v.Mod(v, p)

	// X3 = r² − J − 2·V
	x3 := new(big.Int).Mul(r, r)
	x3.Sub(x3, jj)
	x3.Sub(x3, new(big.Int).Lsh(v, 1))
	x3.Mod(x3, p)
	if x3.Sign() < 0 {
		x3.Add(x3, p)
	}

	// Y3 = r·(V − X3) − 2·S1·J
	y3 := new(big.Int).Sub(v, x3)
	y3.Mul(y3, r)
	s1j := new(big.Int).Mul(s1, jj)
	y3.Sub(y3, new(big.Int).Lsh(s1j, 1))
	y3.Mod(y3, p)
	if y3.Sign() < 0 {
		y3.Add(y3, p)
	}

	// Z3 = ((Z1+Z2)² − Z1Z1 − Z2Z2)·H
	z3 := new(big.Int).Add(j1.z, j2.z)
	z3.Mul(z3, z3)
	z3.Sub(z3, z1z1)
	z3.Sub(z3, z2z2)
	z3.Mul(z3, h)
	z3.Mod(z3, p)
	if z3.Sign() < 0 {
		z3.Add(z3, p)
	}

	return jacobian{x: x3, y: y3, z: z3}
}

// Add returns p + q in affine coordinates.
func (c *Curve) Add(p, q Point) Point {
	if c == _s256 {
		if p.Infinity() {
			return q
		}
		if q.Infinity() {
			return p
		}
		gp, gq := geFromAffine(p), geFromAffine(q)
		out := gp.jacobian()
		geAddMixed(&out, &out, &gq)
		return geToAffine(&out)
	}
	return c.fromJacobian(c.add(c.toJacobian(p), c.toJacobian(q)))
}

// Double returns 2p in affine coordinates.
func (c *Curve) Double(p Point) Point {
	if c == _s256 && !p.Infinity() {
		gp := geFromAffine(p)
		out := gp.jacobian()
		geDouble(&out, &out)
		return geToAffine(&out)
	}
	return c.fromJacobian(c.double(c.toJacobian(p)))
}

// Neg returns −p.
func (c *Curve) Neg(p Point) Point {
	if p.Infinity() {
		return Point{}
	}
	y := new(big.Int).Sub(c.P, p.Y)
	y.Mod(y, c.P)
	return Point{X: new(big.Int).Set(p.X), Y: y}
}

// ScalarMult returns k·p using a left-to-right 4-bit fixed window over
// Jacobian coordinates (the 15-entry odd/even table costs 14 additions and
// saves ~64 additions over plain double-and-add for 256-bit scalars); on
// secp256k1 it is the recovery chain with no generator term (geMulAdd).
// k is reduced modulo the group order.
func (c *Curve) ScalarMult(p Point, k *big.Int) Point {
	k = new(big.Int).Mod(k, c.N)
	if k.Sign() == 0 || p.Infinity() {
		return Point{}
	}
	if c == _s256 {
		gp := geFromAffine(p)
		var ks scalar
		ks.scSetBig(k)
		out := geMulAdd(&scalar{}, &gp, &ks)
		return geToAffine(&out)
	}
	// table[w] = w·p for w in 1..15.
	var table [16]jacobian
	table[0] = jacobian{x: big.NewInt(1), y: big.NewInt(1), z: big.NewInt(0)}
	table[1] = c.toJacobian(p)
	for w := 2; w < 16; w++ {
		table[w] = c.add(table[w-1], table[1])
	}

	acc := jacobian{x: big.NewInt(1), y: big.NewInt(1), z: big.NewInt(0)}
	windows := (k.BitLen() + 3) / 4
	words := k.Bits()
	for i := windows - 1; i >= 0; i-- {
		acc = c.double(c.double(c.double(c.double(acc))))
		w := nibbleAt(words, i)
		if w != 0 {
			acc = c.add(acc, table[w])
		}
	}
	return c.fromJacobian(acc)
}

// nibbleAt extracts 4-bit window i (counting from the least-significant
// end) of a big.Int's word representation.
func nibbleAt(words []big.Word, i int) int {
	bitPos := i * 4
	wordIdx := bitPos / bits.UintSize
	if wordIdx >= len(words) {
		return 0
	}
	return int(words[wordIdx]>>(bitPos%bits.UintSize)) & 0xF
}

// baseTableWindow is the comb width for the precomputed generator table.
const baseTableWindow = 4

// baseTable memoizes window multiples of G per curve:
// table[i][w] = w·2^(4i)·G for i ∈ [0, 64), w ∈ [0, 16).
var (
	baseTableMu sync.Mutex
	baseTables  = make(map[*Curve][][]jacobian)
)

func (c *Curve) baseTable() [][]jacobian {
	baseTableMu.Lock()
	defer baseTableMu.Unlock()
	if t, ok := baseTables[c]; ok {
		return t
	}
	windows := (c.N.BitLen() + baseTableWindow - 1) / baseTableWindow
	table := make([][]jacobian, windows)
	inf := jacobian{x: big.NewInt(1), y: big.NewInt(1), z: big.NewInt(0)}
	stride := c.toJacobian(c.Generator()) // 2^(4i)·G, updated per window
	for i := 0; i < windows; i++ {
		row := make([]jacobian, 1<<baseTableWindow)
		row[0] = inf
		for w := 1; w < 1<<baseTableWindow; w++ {
			row[w] = c.add(row[w-1], stride)
		}
		table[i] = row
		for b := 0; b < baseTableWindow; b++ {
			stride = c.double(stride)
		}
	}
	baseTables[c] = table
	return table
}

// ScalarBaseMult returns k·G using a fixed-window comb over a precomputed
// generator table — roughly an order of magnitude faster than the generic
// double-and-add, which matters because every transaction and report
// signature costs one base multiplication (and every verification two
// multiplications, one of them here).
func (c *Curve) ScalarBaseMult(k *big.Int) Point {
	k = new(big.Int).Mod(k, c.N)
	if k.Sign() == 0 {
		return Point{}
	}
	if c == _s256 {
		var ks scalar
		ks.scSetBig(k)
		out := geScalarBaseMult(&ks)
		return geToAffine(&out)
	}
	table := c.baseTable()
	acc := jacobian{x: big.NewInt(1), y: big.NewInt(1), z: big.NewInt(0)}
	words := k.Bits()
	bitsPerWord := bits.UintSize
	windows := len(table)
	for i := 0; i < windows; i++ {
		bitPos := i * baseTableWindow
		wordIdx := bitPos / bitsPerWord
		if wordIdx >= len(words) {
			break
		}
		w := int(words[wordIdx]>>(bitPos%bitsPerWord)) & (1<<baseTableWindow - 1)
		if w != 0 {
			acc = c.add(acc, table[i][w])
		}
	}
	return c.fromJacobian(acc)
}

// Marshal encodes p as an uncompressed SEC1 point (0x04 || X || Y).
func (c *Curve) Marshal(p Point) []byte {
	byteLen := (c.BitSize + 7) / 8
	out := make([]byte, 1+2*byteLen)
	if p.Infinity() {
		return out[:1] // single zero byte encodes infinity
	}
	out[0] = 0x04
	p.X.FillBytes(out[1 : 1+byteLen])
	p.Y.FillBytes(out[1+byteLen:])
	return out
}

// MarshalCompressed encodes p as a compressed SEC1 point
// (0x02/0x03 || X).
func (c *Curve) MarshalCompressed(p Point) []byte {
	byteLen := (c.BitSize + 7) / 8
	out := make([]byte, 1+byteLen)
	if p.Infinity() {
		return out[:1]
	}
	out[0] = byte(2 + p.Y.Bit(0))
	p.X.FillBytes(out[1:])
	return out
}

// Unmarshal decodes an uncompressed or compressed SEC1 point and validates
// that it is on the curve.
func (c *Curve) Unmarshal(data []byte) (Point, error) {
	byteLen := (c.BitSize + 7) / 8
	switch {
	case len(data) == 1 && data[0] == 0:
		return Point{}, nil
	case len(data) == 1+2*byteLen && data[0] == 0x04:
		p := Point{
			X: new(big.Int).SetBytes(data[1 : 1+byteLen]),
			Y: new(big.Int).SetBytes(data[1+byteLen:]),
		}
		if !c.IsOnCurve(p) {
			return Point{}, errors.New("secp256k1: point not on curve")
		}
		return p, nil
	case len(data) == 1+byteLen && (data[0] == 0x02 || data[0] == 0x03):
		x := new(big.Int).SetBytes(data[1:])
		y, err := c.recoverY(x, data[0] == 0x03)
		if err != nil {
			return Point{}, err
		}
		return Point{X: x, Y: y}, nil
	default:
		return Point{}, fmt.Errorf("secp256k1: invalid point encoding (%d bytes)", len(data))
	}
}

// recoverY computes y from x via the curve equation, choosing the root with
// the requested parity.
func (c *Curve) recoverY(x *big.Int, odd bool) (*big.Int, error) {
	if x.Sign() < 0 || x.Cmp(c.P) >= 0 {
		return nil, errors.New("secp256k1: x coordinate out of range")
	}
	if c == _s256 {
		var fx fieldVal
		fx.feSetBig(x)
		var pt geAffine
		if !pt.setX(&fx, odd) {
			return nil, errors.New("secp256k1: x is not on the curve")
		}
		return pt.y.feBig(), nil
	}
	// y² = x³ + ax + b
	rhs := new(big.Int).Mul(x, x)
	rhs.Mul(rhs, x)
	rhs.Add(rhs, new(big.Int).Mul(c.A, x))
	rhs.Add(rhs, c.B)
	rhs.Mod(rhs, c.P)
	y := new(big.Int).ModSqrt(rhs, c.P)
	if y == nil {
		return nil, errors.New("secp256k1: x is not on the curve")
	}
	if (y.Bit(0) == 1) != odd {
		y.Sub(c.P, y)
	}
	return y, nil
}
