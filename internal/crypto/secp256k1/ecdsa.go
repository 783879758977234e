package secp256k1

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"io"
	"math/big"
)

// PrivateKey is an ECDSA private key on secp256k1.
type PrivateKey struct {
	D      *big.Int
	Public PublicKey
}

// PublicKey is an ECDSA public key on secp256k1.
type PublicKey struct {
	Point Point
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

// halfN is ⌊n/2⌋, the largest S a canonical (low-S) signature carries.
var halfN = new(big.Int).Rsh(_s256.N, 1)

// GenerateKey creates a private key from entropy read from r. Pass nil to
// use crypto/rand.
func GenerateKey(r io.Reader) (*PrivateKey, error) {
	if r == nil {
		r = rand.Reader
	}
	c := S256()
	for {
		buf := make([]byte, 32)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		d := new(big.Int).SetBytes(buf)
		if d.Sign() == 0 || d.Cmp(c.N) >= 0 {
			continue
		}
		return NewPrivateKey(d), nil
	}
}

// NewPrivateKey builds a private key from a scalar in [1, N-1]. The scalar
// is reduced modulo N; a zero scalar panics because it can never occur from
// GenerateKey and indicates programmer error.
func NewPrivateKey(d *big.Int) *PrivateKey {
	c := S256()
	d = new(big.Int).Mod(d, c.N)
	if d.Sign() == 0 {
		panic("secp256k1: zero private key")
	}
	return &PrivateKey{
		D:      d,
		Public: PublicKey{Point: c.ScalarBaseMult(d)},
	}
}

// Bytes returns the 32-byte big-endian scalar.
func (k *PrivateKey) Bytes() []byte {
	out := make([]byte, 32)
	k.D.FillBytes(out)
	return out
}

// Bytes returns the 65-byte uncompressed SEC1 encoding.
func (pk PublicKey) Bytes() []byte { return S256().Marshal(pk.Point) }

// BytesCompressed returns the 33-byte compressed SEC1 encoding.
func (pk PublicKey) BytesCompressed() []byte { return S256().MarshalCompressed(pk.Point) }

// ParsePublicKey decodes a SEC1-encoded public key (compressed or not).
func ParsePublicKey(data []byte) (PublicKey, error) {
	p, err := S256().Unmarshal(data)
	if err != nil {
		return PublicKey{}, err
	}
	if p.Infinity() {
		return PublicKey{}, errors.New("secp256k1: public key is the point at infinity")
	}
	return PublicKey{Point: p}, nil
}

// hashToScalar converts a message digest to a scalar per SEC1 §4.1.3: take
// the leftmost BitSize bits, then reduce mod N.
func hashToScalar(digest []byte, c *Curve) *big.Int {
	orderBytes := (c.N.BitLen() + 7) / 8
	if len(digest) > orderBytes {
		digest = digest[:orderBytes]
	}
	e := new(big.Int).SetBytes(digest)
	excess := len(digest)*8 - c.N.BitLen()
	if excess > 0 {
		e.Rsh(e, uint(excess))
	}
	return e
}

// Sign produces a deterministic (RFC 6979) ECDSA signature over a 32-byte
// message digest. The S value is normalized to the lower half of the group
// order (Ethereum/BIP-62 low-s rule) so signatures are non-malleable.
func (k *PrivateKey) Sign(digest []byte) (Signature, error) {
	if len(digest) != 32 {
		return Signature{}, errors.New("secp256k1: digest must be 32 bytes")
	}
	c := S256()
	e := hashToScalar(digest, c)

	for nonce := rfc6979(k.D, digest, c); ; {
		kNonce := nonce()
		if kNonce.Sign() == 0 || kNonce.Cmp(c.N) >= 0 {
			continue
		}
		p := c.ScalarBaseMult(kNonce)
		if p.Infinity() {
			continue
		}
		r := new(big.Int).Mod(p.X, c.N)
		if r.Sign() == 0 {
			continue
		}
		// s = k⁻¹(e + r·d) mod N
		kInv := new(big.Int).ModInverse(kNonce, c.N)
		s := new(big.Int).Mul(r, k.D)
		s.Add(s, e)
		s.Mul(s, kInv)
		s.Mod(s, c.N)
		if s.Sign() == 0 {
			continue
		}
		v := byte(p.Y.Bit(0))
		// x overflow case: r = p.X - N would need v |= 2; p.X >= N has
		// probability ~2⁻¹²⁸ so we simply retry instead.
		if p.X.Cmp(c.N) >= 0 {
			continue
		}
		if s.Cmp(halfN) > 0 {
			s.Sub(c.N, s)
			v ^= 1
		}
		sig := Signature{V: v}
		r.FillBytes(sig.R[:])
		s.FillBytes(sig.S[:])
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
	pub.x.feBytes((*[32]byte)(xy[:32]))
	pub.y.feBytes((*[32]byte)(xy[32:]))
	return xy, nil
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

// rfc6979 returns a generator of deterministic nonces for (key, digest) as
// specified by RFC 6979 §3.2, using HMAC-SHA256. Successive calls yield the
// retry sequence (step h).
func rfc6979(priv *big.Int, digest []byte, c *Curve) func() *big.Int {
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
			candidate := bitsToScalar(t[:qLen], c)
			// Prepare next iteration state regardless of acceptance.
			k = mac(k, v, []byte{0x00})
			v = mac(k, v)
			if candidate.Sign() > 0 && candidate.Cmp(c.N) < 0 {
				return candidate
			}
		}
	}
}

// bitsToScalar implements bits2int from RFC 6979 (no reduction).
func bitsToScalar(b []byte, c *Curve) *big.Int {
	v := new(big.Int).SetBytes(b)
	excess := len(b)*8 - c.N.BitLen()
	if excess > 0 {
		v.Rsh(v, uint(excess))
	}
	return v
}
