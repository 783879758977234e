package secp256k1

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/big"
	"testing"
	"testing/quick"

	"github.com/smartcrowd/smartcrowd/internal/crypto/keccak"
)

func TestGeneratorOnCurve(t *testing.T) {
	c := S256()
	if !c.IsOnCurve(c.Generator()) {
		t.Fatal("generator is not on the curve")
	}
}

// TestKnownMultiples checks k·G against published secp256k1 vectors.
func TestKnownMultiples(t *testing.T) {
	c := S256()
	cases := []struct {
		k      int64
		xs, ys string
	}{
		{1, "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
			"483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"},
		{2, "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5",
			"1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a"},
		{3, "f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9",
			"388f7b0f632de8140fe337e62a37f3566500a99934c2231b6cb9fd7584b8e672"},
	}
	for _, tc := range cases {
		got := c.ScalarBaseMult(big.NewInt(tc.k))
		if got.X.Cmp(mustHex(tc.xs)) != 0 || got.Y.Cmp(mustHex(tc.ys)) != 0 {
			t.Errorf("%d·G = %v, want (%s, %s)", tc.k, got, tc.xs, tc.ys)
		}
	}
}

func TestOrderTimesGeneratorIsInfinity(t *testing.T) {
	c := S256()
	// ScalarMult reduces mod N, so use the raw loop via N-1 then add G.
	nm1 := new(big.Int).Sub(c.N, big.NewInt(1))
	p := c.ScalarBaseMult(nm1)
	sum := c.Add(p, c.Generator())
	if !sum.Infinity() {
		t.Errorf("(N-1)·G + G = %v, want infinity", sum)
	}
	// (N-1)·G must equal −G.
	if !p.Equal(c.Neg(c.Generator())) {
		t.Error("(N-1)·G != -G")
	}
}

func TestGroupLaws(t *testing.T) {
	c := S256()
	f := func(ka, kb uint64) bool {
		a := new(big.Int).SetUint64(ka%10_000 + 1)
		b := new(big.Int).SetUint64(kb%10_000 + 1)
		aG := c.ScalarBaseMult(a)
		bG := c.ScalarBaseMult(b)
		// (a+b)G == aG + bG
		sum := c.ScalarBaseMult(new(big.Int).Add(a, b))
		if !c.Add(aG, bG).Equal(sum) {
			return false
		}
		// a(bG) == b(aG)
		if !c.ScalarMult(bG, a).Equal(c.ScalarMult(aG, b)) {
			return false
		}
		// closure
		return c.IsOnCurve(sum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAddInfinityIdentity(t *testing.T) {
	c := S256()
	g := c.Generator()
	if !c.Add(g, Point{}).Equal(g) {
		t.Error("G + inf != G")
	}
	if !c.Add(Point{}, g).Equal(g) {
		t.Error("inf + G != G")
	}
	if !c.Add(g, c.Neg(g)).Infinity() {
		t.Error("G + (-G) != inf")
	}
	if !c.Double(Point{}).Infinity() {
		t.Error("2·inf != inf")
	}
}

// TestDifferentialP256 runs the generic Weierstrass code with NIST P-256
// parameters and compares scalar multiplication against crypto/elliptic.
func TestDifferentialP256(t *testing.T) {
	ours := P256Params()
	std := elliptic.P256()
	f := func(seed uint64) bool {
		k := new(big.Int).SetUint64(seed)
		k.Mul(k, k) // widen
		k.Add(k, big.NewInt(1))
		k.Mod(k, ours.N)
		wantX, wantY := std.ScalarBaseMult(k.Bytes())
		got := ours.ScalarBaseMult(k)
		return got.X.Cmp(wantX) == 0 && got.Y.Cmp(wantY) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestDifferentialP256Add compares point addition against crypto/elliptic.
func TestDifferentialP256Add(t *testing.T) {
	ours := P256Params()
	std := elliptic.P256()
	a := ours.ScalarBaseMult(big.NewInt(123456789))
	b := ours.ScalarBaseMult(big.NewInt(987654321))
	wantX, wantY := std.Add(a.X, a.Y, b.X, b.Y)
	got := ours.Add(a, b)
	if got.X.Cmp(wantX) != 0 || got.Y.Cmp(wantY) != 0 {
		t.Errorf("Add mismatch: got %v want (%x, %x)", got, wantX, wantY)
	}
}

// TestVerifyAgainstStdlibECDSA signs with crypto/ecdsa on P-256 and
// verifies with our generic verifier logic transplanted to P-256 params —
// exercising hashToScalar and the verification equation against a second
// implementation.
func TestVerifyAgainstStdlibECDSA(t *testing.T) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("smartcrowd differential test"))
	r, s, err := ecdsa.Sign(rand.Reader, key, digest[:])
	if err != nil {
		t.Fatal(err)
	}
	c := P256Params()
	e := hashToScalar(digest[:], c)
	w := new(big.Int).ModInverse(s, c.N)
	u1 := new(big.Int).Mul(e, w)
	u1.Mod(u1, c.N)
	u2 := new(big.Int).Mul(r, w)
	u2.Mod(u2, c.N)
	pub := Point{X: key.PublicKey.X, Y: key.PublicKey.Y}
	p := c.Add(c.ScalarBaseMult(u1), c.ScalarMult(pub, u2))
	if new(big.Int).Mod(p.X, c.N).Cmp(r) != 0 {
		t.Error("our verification equation rejects a stdlib ECDSA signature")
	}
}

// Verify is textbook ECDSA verification on math/big, the oracle that
// Sign's output satisfies the raw equation independently of recovery.
// Like RecoverPublicKeyXY it accepts only low-S signatures, so the two
// agree on which encodings of a signature are valid; V is not consulted.
func (pk PublicKey) Verify(digest []byte, sig Signature) bool {
	c := S256()
	r, s := sig.rBig(), sig.sBig()
	if r.Sign() == 0 || s.Sign() == 0 || r.Cmp(c.N) >= 0 || s.Cmp(halfN) > 0 {
		return false
	}
	if pk.Point.Infinity() || !c.IsOnCurve(pk.Point) {
		return false
	}
	e := hashToScalar(digest, c)
	w := new(big.Int).ModInverse(s, c.N)
	u1 := new(big.Int).Mul(e, w)
	u1.Mod(u1, c.N)
	u2 := new(big.Int).Mul(r, w)
	u2.Mod(u2, c.N)
	p := c.Add(c.ScalarBaseMult(u1), c.ScalarMult(pk.Point, u2))
	if p.Infinity() {
		return false
	}
	return new(big.Int).Mod(p.X, c.N).Cmp(r) == 0
}

func TestSignVerifyRoundtrip(t *testing.T) {
	key, err := GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("release announcement"))
	sig, err := key.Sign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	if !key.Public.Verify(digest[:], sig) {
		t.Error("valid signature rejected")
	}
	// Wrong digest must fail.
	other := sha256.Sum256([]byte("tampered"))
	if key.Public.Verify(other[:], sig) {
		t.Error("signature verified against a different digest")
	}
	// Wrong key must fail.
	key2, _ := GenerateKey(nil)
	if key2.Public.Verify(digest[:], sig) {
		t.Error("signature verified under a different key")
	}
}

func TestSignDeterministic(t *testing.T) {
	key := NewPrivateKey(big.NewInt(0x1337))
	digest := sha256.Sum256([]byte("deterministic"))
	a, err := key.Sign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	b, err := key.Sign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("RFC 6979 signing is not deterministic")
	}
}

// TestSignKnownAnswers pins Sign to published RFC 6979 secp256k1 vectors
// (private key 1, SHA-256 digests; low-S form), and each signature must
// recover to the address of G — the Keccak-256 of its X ‖ Y, last 20
// bytes.
func TestSignKnownAnswers(t *testing.T) {
	key := NewPrivateKey(big.NewInt(1))
	for _, tc := range []struct {
		msg, r, s string
		v         byte
	}{
		{"Satoshi Nakamoto",
			"934b1ea10a4b3c1757e2b0c017d0b6143ce3c9a7e6a4a49860d7a6ab210ee3d8",
			"2442ce9d2b916064108014783e923ec36b49743e2ffa1c4496f01a512aafd9e5", 1},
		{"All those moments will be lost in time, like tears in rain. Time to die...",
			"8600dbd41e348fe5c9465ab92d23e3db8b98b873beecd930736488696438cb6b",
			"547fe64427496db33bf66019dacbf0039c04199abb0122918601db38a72cfc21", 0},
	} {
		digest := sha256.Sum256([]byte(tc.msg))
		sig, err := key.Sign(digest[:])
		if err != nil {
			t.Fatal(err)
		}
		if r, s := hex.EncodeToString(sig.R[:]), hex.EncodeToString(sig.S[:]); r != tc.r || s != tc.s || sig.V != tc.v {
			t.Errorf("%q: signed (%s, %s, %d), want (%s, %s, %d)", tc.msg, r, s, sig.V, tc.r, tc.s, tc.v)
		}
		xy, err := RecoverPublicKeyXY(digest[:], sig)
		if err != nil {
			t.Fatalf("%q: %v", tc.msg, err)
		}
		hash := keccak.Sum256(xy[:])
		if addr := hex.EncodeToString(hash[12:]); addr != "7e5f4552091a69125d5dfcb7b8c2659029395bdf" {
			t.Errorf("%q recovers to address %s, want G's", tc.msg, addr)
		}
	}
}

func TestLowSNormalization(t *testing.T) {
	c := S256()
	halfN := new(big.Int).Rsh(c.N, 1)
	for i := int64(1); i <= 20; i++ {
		key := NewPrivateKey(big.NewInt(i * 7919))
		digest := sha256.Sum256([]byte{byte(i)})
		sig, err := key.Sign(digest[:])
		if err != nil {
			t.Fatal(err)
		}
		if sig.sBig().Cmp(halfN) > 0 {
			t.Errorf("signature %d has high S", i)
		}
	}
}

// TestHighSRejectedBehaviour: (R, n−S, V⊕1) satisfies raw ECDSA and would
// recover the same key, so accepting it would give every signed message a
// second valid encoding. Both checks refuse it; only the low-S form Sign
// emits is a signature.
func TestHighSRejectedBehaviour(t *testing.T) {
	key := NewPrivateKey(big.NewInt(42))
	digest := sha256.Sum256([]byte("malleable"))
	sig, _ := key.Sign(digest[:])
	flipped := sigOf(sig.rBig(), new(big.Int).Sub(S256().N, sig.sBig()), sig.V^1)
	if key.Public.Verify(digest[:], flipped) {
		t.Error("Verify accepted the complementary (high) S value")
	}
	if _, err := RecoverPublicKey(digest[:], flipped); !errors.Is(err, ErrInvalidSignature) {
		t.Errorf("RecoverPublicKey(high S) = %v, want ErrInvalidSignature", err)
	}
	if got, err := RecoverPublicKey(digest[:], sig); err != nil || !got.Point.Equal(key.Public.Point) || !key.Public.Verify(digest[:], sig) {
		t.Error("the low-S form Sign emitted is not accepted")
	}
}

func TestRecoverPublicKey(t *testing.T) {
	for i := int64(1); i <= 10; i++ {
		key := NewPrivateKey(big.NewInt(i * 104729))
		digest := sha256.Sum256([]byte{byte(i), 0xAB})
		sig, err := key.Sign(digest[:])
		if err != nil {
			t.Fatal(err)
		}
		got, err := RecoverPublicKey(digest[:], sig)
		if err != nil {
			t.Fatalf("recover failed for key %d: %v", i, err)
		}
		if !got.Point.Equal(key.Public.Point) {
			t.Errorf("key %d: recovered wrong public key", i)
		}
	}
}

func TestRecoverRejectsGarbage(t *testing.T) {
	digest := sha256.Sum256([]byte("x"))
	bad := []Signature{
		sigOf(big.NewInt(0), big.NewInt(1), 0),
		sigOf(big.NewInt(1), big.NewInt(0), 0),
		sigOf(S256().N, big.NewInt(1), 0),
		sigOf(big.NewInt(1), big.NewInt(1), 5),
	}
	for i, sig := range bad {
		if _, err := RecoverPublicKey(digest[:], sig); err == nil {
			t.Errorf("case %d: garbage signature recovered successfully", i)
		}
	}
}

func TestSignatureSerializeRoundtrip(t *testing.T) {
	key := NewPrivateKey(big.NewInt(99991))
	digest := sha256.Sum256([]byte("serialize"))
	sig, _ := key.Sign(digest[:])
	parsed, err := ParseSignature(sig.serialize())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != sig {
		t.Error("serialize/parse roundtrip mismatch")
	}
	if _, err := ParseSignature(make([]byte, 64)); err == nil {
		t.Error("ParseSignature accepted a 64-byte blob")
	}
}

func TestPointMarshalRoundtrip(t *testing.T) {
	c := S256()
	f := func(seed uint64) bool {
		k := new(big.Int).SetUint64(seed + 1)
		p := c.ScalarBaseMult(k)
		u, err := c.Unmarshal(c.Marshal(p))
		if err != nil || !u.Equal(p) {
			return false
		}
		comp, err := c.Unmarshal(c.MarshalCompressed(p))
		return err == nil && comp.Equal(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalRejectsOffCurve(t *testing.T) {
	c := S256()
	bad := c.Marshal(c.Generator())
	bad[len(bad)-1] ^= 0x01 // corrupt Y
	if _, err := c.Unmarshal(bad); err == nil {
		t.Error("Unmarshal accepted an off-curve point")
	}
	if _, err := c.Unmarshal([]byte{0x07, 1, 2}); err == nil {
		t.Error("Unmarshal accepted an invalid prefix")
	}
}

func TestParsePublicKeyRejectsInfinity(t *testing.T) {
	if _, err := ParsePublicKey([]byte{0}); err == nil {
		t.Error("ParsePublicKey accepted the point at infinity")
	}
}

func TestGenerateKeyUniqueness(t *testing.T) {
	a, err := GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.D.Cmp(b.D) == 0 {
		t.Error("two generated keys are identical")
	}
}

func BenchmarkSign(b *testing.B) {
	key := NewPrivateKey(big.NewInt(123456789))
	digest := sha256.Sum256([]byte("bench"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := key.Sign(digest[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	key := NewPrivateKey(big.NewInt(123456789))
	digest := sha256.Sum256([]byte("bench"))
	sig, _ := key.Sign(digest[:])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !key.Public.Verify(digest[:], sig) {
			b.Fatal("verify failed")
		}
	}
}

func FuzzParseSignature(f *testing.F) {
	key := NewPrivateKey(big.NewInt(7))
	digest := sha256.Sum256([]byte("fuzz"))
	sig, _ := key.Sign(digest[:])
	f.Add(sig.serialize())
	f.Add(bytes.Repeat([]byte{0xFF}, 65))
	f.Fuzz(func(t *testing.T, data []byte) {
		sig, err := ParseSignature(data)
		if err != nil {
			return
		}
		// Parsed signatures must never panic verification.
		_ = key.Public.Verify(digest[:], sig)
		_, _ = RecoverPublicKey(digest[:], sig)
	})
}
