// Package secp256k1 implements the secp256k1 elliptic curve and ECDSA
// signatures with deterministic (RFC 6979) nonces and public-key recovery,
// matching the signature scheme the SmartCrowd paper prescribes for SRAs
// (Eq. 2) and detection reports (Eq. 4).
//
// There is one arithmetic layer: fixed four-limb kernels — field.go
// (mod p), scalar.go (mod n), point_fast.go (Jacobian points, the
// GLV/Strauss chain and the generator comb). Keys, Sign, the SEC1
// encodings and RecoverPublicKeyXY all run on them, from bytes to bytes.
// math/big appears only in the tests, as the oracle: a generic
// short-Weierstrass curve (oracle_test.go) that is itself checked against
// crypto/elliptic on NIST P-256, and the math/big Sign and recovery the
// kernels replaced.
//
// The code is not constant-time; SmartCrowd is a research platform, not a
// wallet.
package secp256k1

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"hash"
	"io"
)

// PrivateKey is an ECDSA private key on secp256k1: a scalar in [1, n−1]
// and its public point.
type PrivateKey struct {
	d      scalar
	Public PublicKey
}

// PublicKey is an ECDSA public key on secp256k1, a curve point other than
// infinity. The zero value is not a key.
type PublicKey struct {
	p geAffine
}

// Signature is an ECDSA signature with a recovery identifier, held as its
// 65-byte wire form: R and S big-endian, then V. V is 0 or 1 and selects
// which of the two candidate public keys RecoverPublicKeyXY returns
// (Ethereum-style recovery id, without the +27 legacy offset). Range and
// canonical-form rules are enforced by recovery, not by the type, so a
// parsed signature is exactly the bytes that arrived.
type Signature struct {
	R, S [32]byte
	V    byte
}

// ErrInvalidSignature is returned when a signature fails structural
// validation (out-of-range R/S, high S, or malformed encoding).
var ErrInvalidSignature = errors.New("secp256k1: invalid signature")

// GenerateKey creates a private key from entropy read from r, 32 bytes at
// a time until they encode an integer in [1, n−1]. Pass nil to use
// crypto/rand.
func GenerateKey(r io.Reader) (*PrivateKey, error) {
	if r == nil {
		r = rand.Reader
	}
	var buf [32]byte
	for {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, err
		}
		if k, ok := ParsePrivateKey(buf[:]); ok {
			return k, nil
		}
	}
}

// NewPrivateKey builds a private key from a 32-byte big-endian scalar,
// reduced modulo n. A scalar ≡ 0 panics: GenerateKey never yields one,
// so it indicates programmer error.
func NewPrivateKey(d [32]byte) *PrivateKey {
	var k PrivateKey
	k.d.scSetBytes(&d)
	if k.d.scIsZero() {
		panic("secp256k1: zero private key")
	}
	k.Public = publicKeyOf(&k.d)
	return &k
}

// ParsePrivateKey reads a stored private key: exactly 32 big-endian bytes
// encoding an integer in [1, n−1], with no reduction. It reports false
// for anything else.
func ParsePrivateKey(b []byte) (*PrivateKey, bool) {
	var k PrivateKey
	if len(b) != 32 || !k.d.scSetBytes((*[32]byte)(b)) || k.d.scIsZero() {
		return nil, false
	}
	k.Public = publicKeyOf(&k.d)
	return &k, true
}

// publicKeyOf returns d·G for a nonzero d (< n, so never infinity).
func publicKeyOf(d *scalar) PublicKey {
	q := geScalarBaseMult(d)
	p, _ := q.affine()
	return PublicKey{p: p}
}

// Bytes returns the 32-byte big-endian scalar.
func (k *PrivateKey) Bytes() []byte {
	out := new([32]byte)
	storeLimbs(out, &k.d.n)
	return out[:]
}

// XY returns the key's coordinates big-endian, X ‖ Y: the 64 bytes an
// address hashes, as RecoverPublicKeyXY returns them.
func (pk PublicKey) XY() (xy [64]byte) {
	pk.p.x.feBytes((*[32]byte)(xy[:32]))
	pk.p.y.feBytes((*[32]byte)(xy[32:]))
	return xy
}

// BytesCompressed returns the 33-byte compressed SEC1 encoding: 0x02 or
// 0x03 by the parity of Y, then X.
func (pk PublicKey) BytesCompressed() []byte {
	out := make([]byte, 33)
	out[0] = 0x02
	if pk.p.y.feIsOdd() {
		out[0] = 0x03
	}
	pk.p.x.feBytes((*[32]byte)(out[1:]))
	return out
}

// Sign produces a deterministic (RFC 6979) ECDSA signature over a 32-byte
// message digest: s = k⁻¹(e + r·d) mod n for the nonce k, r = x(k·G). The
// S value is normalized to the lower half of the group order
// (Ethereum/BIP-62 low-s rule) so signatures are non-malleable, V
// following it.
func (k *PrivateKey) Sign(digest []byte) (Signature, error) {
	if len(digest) != 32 {
		return Signature{}, errors.New("secp256k1: digest must be 32 bytes")
	}
	var e scalar
	e.scSetDigest(digest)
	nonces := newRFC6979(&k.d, digest)
	for {
		kNonce := nonces.next()
		q := geScalarBaseMult(&kNonce)
		p, _ := q.affine() // 0 < k < n: never infinity
		var xb [32]byte
		p.x.feBytes(&xb)
		// r is x reduced mod n; an x ≥ n would need V's overflow bit
		// (recovery assumes x = r), and has probability ~2⁻¹²⁸, so that
		// nonce is skipped like a zero r or s.
		var r, s, kInv scalar
		if !r.scSetBytes(&xb) || r.scIsZero() {
			continue
		}
		scMulInto(&s, &r, &k.d)
		s.scAdd(&e)
		scInvInto(&kInv, &kNonce)
		scMulInto(&s, &s, &kInv)
		if s.scIsZero() {
			continue
		}
		var sig Signature
		if p.y.feIsOdd() {
			sig.V = 1
		}
		if s.scIsHigh() {
			s.scNeg()
			sig.V ^= 1
		}
		storeLimbs(&sig.R, &r.n)
		storeLimbs(&sig.S, &s.n)
		return sig, nil
	}
}

// RecoverPublicKeyXY recovers the signing public key as X ‖ Y, its two
// coordinates big-endian — the 64 bytes an address hashes. This is how
// SmartCrowd nodes attribute on-chain messages to wallet addresses without
// carrying explicit public keys, and the only signature check production
// code runs (transactions, SRAs, R† and R* all arrive here through
// wallet.RecoverSigner), so it is also where the canonical-signature rules
// are enforced: R and S in [1, n−1], V ∈ {0, 1}, and S in the lower half
// of the order — (R, n−S, V⊕1) recovers the same key, and accepting both
// would give every signed message two valid encodings.
//
// The key is Q = u₁·G + u₂·R with u₁ = −e·r⁻¹ and u₂ = s·r⁻¹ (mod n):
// one decompression (a square root), two binary-GCD inversions (r⁻¹ and
// Q's Z) and one geMulAdd, which splits both scalars with the GLV
// endomorphism and runs the four half-length multiplications on one
// chain of at most 129 doublings — all on fixed limbs from the
// signature's bytes to the key's. It allocates nothing.
func RecoverPublicKeyXY(digest []byte, sig Signature) (xy [64]byte, err error) {
	var r, s scalar
	if sig.V > 1 || !r.scSetBytes(&sig.R) || !s.scSetBytes(&sig.S) ||
		r.scIsZero() || s.scIsZero() || s.scIsHigh() {
		return xy, ErrInvalidSignature
	}
	// R has x = r (r < n < p; Sign never emits the x = r + n overflow case)
	// and the parity selected by V.
	var rPoint geAffine
	if !rPoint.setX(&fieldVal{n: r.n}, sig.V == 1) {
		return xy, ErrInvalidSignature
	}

	// By construction Q satisfies the ECDSA verification equation for
	// (r, s) — substituting Q into x(e·s⁻¹·G + r·s⁻¹·Q) returns R's
	// x-coordinate — so no separate Verify pass is needed; the structural
	// validation above covers the rest.
	var e, rInv, u1, u2 scalar
	e.scSetDigest(digest)
	scInvInto(&rInv, &r)
	scMulInto(&u1, &e, &rInv)
	u1.scNeg()
	scMulInto(&u2, &s, &rInv)

	q := geMulAdd(&u1, &rPoint, &u2)
	pub, ok := q.affine()
	if !ok || !pub.isOnCurve() {
		return xy, ErrInvalidSignature
	}
	return PublicKey{p: pub}.XY(), nil
}

// ParseSignature decodes a 65-byte R||S||V signature by copying it.
func ParseSignature(data []byte) (sig Signature, err error) {
	if len(data) != 65 {
		return sig, ErrInvalidSignature
	}
	copy(sig.R[:], data[:32])
	copy(sig.S[:], data[32:64])
	sig.V = data[64]
	return sig, nil
}

// rfc6979 generates Sign's nonces for one (key, digest) pair by RFC 6979
// §3.2 with HMAC-SHA256: K and V are the RFC's, and mac is HMAC keyed
// with K. qlen is 256, so bits2int is the identity on V's 32 bytes and a
// candidate is only skipped when it is zero or ≥ n. h1 is the digest as
// given, not reduced mod n as bits2octets would have it: the two differ
// only for digests ≥ n, and every signature this package has issued
// (the goldens among them) was made this way.
type rfc6979 struct {
	k, v [32]byte
	mac  hash.Hash
}

// newRFC6979 runs steps b–g for private key d and the digest.
func newRFC6979(d *scalar, digest []byte) *rfc6979 {
	g := new(rfc6979) // K = 0
	g.mac = hmac.New(sha256.New, g.k[:])
	for i := range g.v {
		g.v[i] = 0x01
	}
	var x [32]byte
	storeLimbs(&x, &d.n)
	g.rekey(0x00, x[:], digest)
	g.rekey(0x01, x[:], digest)
	return g
}

// rekey sets K = HMAC_K(V ‖ sep ‖ extra…), then V = HMAC_K(V).
func (g *rfc6979) rekey(sep byte, extra ...[]byte) {
	g.mac.Reset()
	g.mac.Write(g.v[:])
	g.mac.Write([]byte{sep})
	for _, p := range extra {
		g.mac.Write(p)
	}
	g.mac.Sum(g.k[:0])
	g.mac = hmac.New(sha256.New, g.k[:])
	g.step()
}

// step sets V = HMAC_K(V).
func (g *rfc6979) step() {
	g.mac.Reset()
	g.mac.Write(g.v[:])
	g.mac.Sum(g.v[:0])
}

// next returns the next candidate in [1, n−1] (step h). The state moves
// on past every candidate, accepted or not (step h.3), so a caller that
// rejects the nonce it got — Sign, on r = 0 or s = 0 — draws the next one
// the RFC prescribes.
func (g *rfc6979) next() (k scalar) {
	for {
		g.step()
		ok := k.scSetBytes(&g.v) && !k.scIsZero()
		g.rekey(0x00)
		if ok {
			return k
		}
	}
}
