package secp256k1

import (
	"crypto/hmac"
	"crypto/sha256"
	"math/big"
)

// The math/big oracle the limb kernels are tested against: a generic
// short-Weierstrass curve (y² = x³ + ax + b mod p) in affine coordinates,
// written once and instantiated with secp256k1 (S256) and with NIST P-256
// (P256Params), where secp256k1_test.go checks it against crypto/elliptic;
// and Sign, its RFC 6979 nonces and SEC1's digest-to-scalar rule written
// on it. Nothing here touches the limbs, so an agreement between the two
// is evidence about both.

// Curve holds the domain parameters of a short-Weierstrass curve over a
// prime field, y² = x³ + A·x + B (mod P), with base point G of prime
// order N.
type Curve struct {
	P, N, A, B *big.Int
	G          Point
}

// Point is an affine curve point. The zero value (nil coordinates) is the
// point at infinity.
type Point struct {
	X, Y *big.Int
}

// Infinity reports whether p is the point at infinity.
func (p Point) Infinity() bool { return p.X == nil }

// Equal reports whether two points are the same affine point.
func (p Point) Equal(q Point) bool {
	if p.Infinity() || q.Infinity() {
		return p.Infinity() && q.Infinity()
	}
	return p.X.Cmp(q.X) == 0 && p.Y.Cmp(q.Y) == 0
}

// xy returns the point as X ‖ Y, the form RecoverPublicKeyXY returns.
func (p Point) xy() [64]byte { return [64]byte(append(be32(p.X), be32(p.Y)...)) }

func mustHex(s string) *big.Int {
	v, ok := new(big.Int).SetString(s, 16)
	if !ok {
		panic("secp256k1: bad hex constant " + s)
	}
	return v
}

// S256 returns the secp256k1 curve parameters (SEC 2, version 2.0).
func S256() *Curve { return s256 }

var s256 = &Curve{
	P: mustHex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"),
	N: mustHex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"),
	A: big.NewInt(0),
	B: big.NewInt(7),
	G: Point{
		X: mustHex("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"),
		Y: mustHex("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"),
	},
}

// halfN is ⌊n/2⌋, the largest S a canonical (low-S) signature carries;
// max256 is 2²⁵⁶ − 1, the largest 32-byte integer.
var (
	halfN  = new(big.Int).Rsh(s256.N, 1)
	max256 = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
)

// be32 returns v, below 2²⁵⁶, as 32 big-endian bytes.
func be32(v *big.Int) []byte { return v.FillBytes(make([]byte, 32)) }

// P256Params returns NIST P-256 parameters, for differential testing of
// the generic code against crypto/elliptic.
func P256Params() *Curve {
	return &Curve{
		P: mustHex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"),
		N: mustHex("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"),
		A: mustHex("ffffffff00000001000000000000000000000000fffffffffffffffffffffffc"),
		B: mustHex("5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b"),
		G: Point{
			X: mustHex("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"),
			Y: mustHex("4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"),
		},
	}
}

// mul, sub and div are a·b, a − b and a/b mod P (big.Int's Mod is
// Euclidean, so never negative).
func (c *Curve) mul(a, b *big.Int) *big.Int {
	r := new(big.Int).Mul(a, b)
	return r.Mod(r, c.P)
}

func (c *Curve) sub(a, b *big.Int) *big.Int {
	r := new(big.Int).Sub(a, b)
	return r.Mod(r, c.P)
}

func (c *Curve) div(a, b *big.Int) *big.Int { return c.mul(a, new(big.Int).ModInverse(b, c.P)) }

// rhs returns x³ + A·x + B mod P.
func (c *Curve) rhs(x *big.Int) *big.Int {
	r := c.mul(c.mul(x, x), x)
	r.Add(r, c.mul(c.A, x)).Add(r, c.B)
	return r.Mod(r, c.P)
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
	return c.mul(p.Y, p.Y).Cmp(c.rhs(p.X)) == 0
}

// Add returns p + q by the chord-and-tangent rule: the line through p and
// q (the tangent when they are equal) has slope λ, and the sum is
// (λ² − x₁ − x₂, λ·(x₁ − x₃) − y₁).
func (c *Curve) Add(p, q Point) Point {
	if p.Infinity() {
		return q
	}
	if q.Infinity() {
		return p
	}
	var l *big.Int
	switch {
	case p.X.Cmp(q.X) != 0:
		l = c.div(c.sub(q.Y, p.Y), c.sub(q.X, p.X))
	case p.Y.Cmp(q.Y) != 0 || p.Y.Sign() == 0:
		return Point{} // q = −p
	default:
		t := c.mul(p.X, p.X)
		t.Mul(t, big.NewInt(3)).Add(t, c.A)
		l = c.div(t, c.mul(big.NewInt(2), p.Y))
	}
	x := c.sub(c.sub(c.mul(l, l), p.X), q.X)
	return Point{X: x, Y: c.sub(c.mul(l, c.sub(p.X, x)), p.Y)}
}

// Neg returns −p.
func (c *Curve) Neg(p Point) Point {
	if p.Infinity() {
		return p
	}
	return Point{X: p.X, Y: c.sub(new(big.Int), p.Y)}
}

// ScalarMult returns k·p (k reduced mod N) by double-and-add from the top
// bit.
func (c *Curve) ScalarMult(p Point, k *big.Int) Point {
	k = new(big.Int).Mod(k, c.N)
	var acc Point
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = c.Add(acc, acc)
		if k.Bit(i) == 1 {
			acc = c.Add(acc, p)
		}
	}
	return acc
}

// ScalarBaseMult returns k·G.
func (c *Curve) ScalarBaseMult(k *big.Int) Point { return c.ScalarMult(c.G, k) }

// recoverY computes y from x via the curve equation, choosing the root
// with the requested parity; ok is false when no point has that x.
func (c *Curve) recoverY(x *big.Int, odd bool) (y *big.Int, ok bool) {
	if x.Sign() < 0 || x.Cmp(c.P) >= 0 {
		return nil, false
	}
	if y = new(big.Int).ModSqrt(c.rhs(x), c.P); y == nil {
		return nil, false
	}
	if (y.Bit(0) == 1) != odd {
		y.Sub(c.P, y)
	}
	return y, true
}

// hashToScalar converts a message digest to an integer per SEC1 §4.1.3:
// its leftmost N.BitLen() bits, not yet reduced mod N.
func hashToScalar(digest []byte, c *Curve) *big.Int {
	e := new(big.Int).SetBytes(digest)
	if excess := len(digest)*8 - c.N.BitLen(); excess > 0 {
		e.Rsh(e, uint(excess))
	}
	return e
}

// signOracle is Sign as it was written on math/big: the RFC 6979 nonce
// from rfc6979Oracle, k·G, s = k⁻¹(e + r·d) by ModInverse, low-S
// normalisation, and a retry on r = 0, s = 0 or x(k·G) ≥ n.
func signOracle(d *big.Int, digest []byte) Signature {
	c := S256()
	e := hashToScalar(digest, c)
	for nonce := rfc6979Oracle(d, digest, c); ; {
		kNonce := nonce()
		p := c.ScalarBaseMult(kNonce)
		r := new(big.Int).Mod(p.X, c.N)
		if r.Sign() == 0 {
			continue
		}
		kInv := new(big.Int).ModInverse(kNonce, c.N)
		s := new(big.Int).Mul(r, d)
		s.Add(s, e)
		s.Mul(s, kInv)
		s.Mod(s, c.N)
		if s.Sign() == 0 || p.X.Cmp(c.N) >= 0 {
			continue
		}
		v := byte(p.Y.Bit(0))
		if s.Cmp(halfN) > 0 {
			s.Sub(c.N, s)
			v ^= 1
		}
		return sigOf(r, s, v)
	}
}

// rfc6979Oracle returns a generator of deterministic nonces for (key,
// digest) as specified by RFC 6979 §3.2, using HMAC-SHA256. Successive
// calls yield the retry sequence (step h).
func rfc6979Oracle(priv *big.Int, digest []byte, c *Curve) func() *big.Int {
	qLen := (c.N.BitLen() + 7) / 8
	x := make([]byte, qLen)
	priv.FillBytes(x)
	h1 := make([]byte, qLen)
	hashToScalar(digest, c).FillBytes(h1)

	// Step b-c.
	v := make([]byte, sha256.Size)
	k := make([]byte, sha256.Size)
	for i := range v {
		v[i] = 0x01
	}

	mac := func(key []byte, parts ...[]byte) []byte {
		m := hmac.New(sha256.New, key)
		for _, p := range parts {
			m.Write(p)
		}
		return m.Sum(nil)
	}

	// Steps d-g.
	k = mac(k, v, []byte{0x00}, x, h1)
	v = mac(k, v)
	k = mac(k, v, []byte{0x01}, x, h1)
	v = mac(k, v)

	return func() *big.Int {
		for {
			var t []byte
			for len(t) < qLen {
				v = mac(k, v)
				t = append(t, v...)
			}
			candidate := hashToScalar(t[:qLen], c) // bits2int
			// Prepare next iteration state regardless of acceptance.
			k = mac(k, v, []byte{0x00})
			v = mac(k, v)
			if candidate.Sign() > 0 && candidate.Cmp(c.N) < 0 {
				return candidate
			}
		}
	}
}

// Conversions between the kernels' points and the oracle's (field
// elements: feFromBig and feToBig in field_test.go).

// geFromPoint loads an oracle point (on the curve, not infinity).
func geFromPoint(pt Point) geAffine {
	return geAffine{x: feFromBig(pt.X), y: feFromBig(pt.Y)}
}

// point returns the oracle form of an affine kernel point.
func (a *geAffine) point() Point {
	return Point{X: feToBig(&a.x), Y: feToBig(&a.y)}
}

// gePointOf returns the oracle form of a Jacobian kernel point.
func gePointOf(p *gePoint) Point {
	a, ok := p.affine()
	if !ok {
		return Point{}
	}
	return a.point()
}

// keyOf builds a private key from an integer below 2²⁵⁶, reduced mod n as
// NewPrivateKey does.
func keyOf(d *big.Int) *PrivateKey { return NewPrivateKey([32]byte(be32(d))) }
