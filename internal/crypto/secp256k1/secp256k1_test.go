package secp256k1

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/smartcrowd/smartcrowd/internal/crypto/keccak"
)

func TestGeneratorOnCurve(t *testing.T) {
	c := S256()
	if !c.IsOnCurve(c.G) || !geG.isOnCurve() {
		t.Fatal("generator is not on the curve")
	}
	if got := geG.point(); !got.Equal(c.G) {
		t.Fatalf("geG = %v, want %v", got, c.G)
	}
}

// TestKnownMultiples checks k·G against published secp256k1 vectors, as
// the public key of private key k and on the math/big curve.
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
		xy, oracle := keyOf(big.NewInt(tc.k)).Public.XY(), c.ScalarBaseMult(big.NewInt(tc.k)).xy()
		if got := hex.EncodeToString(xy[:]); got != tc.xs+tc.ys || oracle != xy {
			t.Errorf("%d·G = %s, oracle %x, want %s%s", tc.k, got, oracle, tc.xs, tc.ys)
		}
	}
}

func TestOrderTimesGeneratorIsInfinity(t *testing.T) {
	c := S256()
	// (N−1)·G + G is infinity, and (N−1)·G is −G: on the comb and on the
	// math/big curve.
	nm1 := new(big.Int).Sub(c.N, big.NewInt(1))
	ks := scFromBig(nm1)
	q := geScalarBaseMult(&ks)
	negG := geG
	negG.y.feNeg()
	if a, ok := q.affine(); !ok || a != negG {
		t.Error("(N-1)·G != -G on the comb")
	}
	if geAddMixed(&q, &q, &geG); !q.isInfinity() {
		t.Error("(N-1)·G + G != inf on the comb")
	}
	p := c.ScalarBaseMult(nm1)
	if sum := c.Add(p, c.G); !sum.Infinity() {
		t.Errorf("oracle (N-1)·G + G = %v, want infinity", sum)
	}
	if !p.Equal(c.Neg(c.G)) {
		t.Error("oracle (N-1)·G != -G")
	}
}

// TestGroupLaws checks the kernels' group laws: (a+b)·G = a·G + b·G on the
// comb and the Jacobian addition, a·(b·G) = b·(a·G) on the chain, and the
// results lie on the curve.
func TestGroupLaws(t *testing.T) {
	var zero scalar
	f := func(ka, kb uint64) bool {
		a := scalar{n: [4]uint64{ka%10_000 + 1}}
		b := scalar{n: [4]uint64{kb%10_000 + 1}}
		aG, bG := geScalarBaseMult(&a), geScalarBaseMult(&b)
		sum := a
		sum.scAdd(&b)
		want := geScalarBaseMult(&sum)
		var got gePoint
		geAdd(&got, &aG, &bG)
		if !geEqual(&got, &want) {
			return false
		}
		aGa, _ := aG.affine()
		bGa, _ := bG.affine()
		ab, ba := geMulAdd(&zero, &bGa, &a), geMulAdd(&zero, &aGa, &b)
		if !geEqual(&ab, &ba) {
			return false
		}
		w, _ := want.affine()
		return w.isOnCurve()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAddInfinityIdentity(t *testing.T) {
	g, inf := geG.jacobian(), geInfinity()
	var out gePoint
	if geAdd(&out, &g, &inf); !geEqual(&out, &g) {
		t.Error("G + inf != G")
	}
	if geAdd(&out, &inf, &g); !geEqual(&out, &g) {
		t.Error("inf + G != G")
	}
	negG := geG
	negG.y.feNeg()
	if geAddMixed(&out, &g, &negG); !out.isInfinity() {
		t.Error("G + (-G) != inf")
	}
	if geDouble(&out, &inf); !out.isInfinity() {
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
	key, err := ecdsa.GenerateKey(elliptic.P256(), crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("smartcrowd differential test"))
	r, s, err := ecdsa.Sign(crand.Reader, key, digest[:])
	if err != nil {
		t.Fatal(err)
	}
	pub := Point{X: key.PublicKey.X, Y: key.PublicKey.Y}
	if !P256Params().verify(pub, digest[:], r, s) {
		t.Error("our verification equation rejects a stdlib ECDSA signature")
	}
}

// verify is the textbook ECDSA equation on the curve, for r and s in
// [1, N−1]: x(e·s⁻¹·G + r·s⁻¹·Q) ≡ r (mod N).
func (c *Curve) verify(q Point, digest []byte, r, s *big.Int) bool {
	w := new(big.Int).ModInverse(s, c.N)
	u1 := new(big.Int).Mul(hashToScalar(digest, c), w)
	p := c.Add(c.ScalarBaseMult(u1), c.ScalarMult(q, new(big.Int).Mul(r, w)))
	return !p.Infinity() && new(big.Int).Mod(p.X, c.N).Cmp(r) == 0
}

// Verify is textbook ECDSA verification on math/big, the oracle that
// Sign's output satisfies the raw equation independently of recovery.
// It applies RecoverPublicKeyXY's range rules (sigScalars), low S among
// them, so the two agree on which encodings of a signature are valid;
// which of 0 and 1 V is does not matter.
func (pk PublicKey) Verify(digest []byte, sig Signature) bool {
	r, s, ok := sigScalars(sig)
	return ok && S256().verify(pk.p.point(), digest, r, s)
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
	key := keyOf(big.NewInt(0x1337))
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
	key := keyOf(big.NewInt(1))
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
	for i := int64(1); i <= 20; i++ {
		key := keyOf(big.NewInt(i * 7919))
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
	key := keyOf(big.NewInt(42))
	digest := sha256.Sum256([]byte("malleable"))
	sig, _ := key.Sign(digest[:])
	flipped := sigOf(sig.rBig(), new(big.Int).Sub(S256().N, sig.sBig()), sig.V^1)
	if key.Public.Verify(digest[:], flipped) {
		t.Error("Verify accepted the complementary (high) S value")
	}
	if _, err := RecoverPublicKeyXY(digest[:], flipped); !errors.Is(err, ErrInvalidSignature) {
		t.Errorf("RecoverPublicKeyXY(high S) = %v, want ErrInvalidSignature", err)
	}
	if got, err := RecoverPublicKeyXY(digest[:], sig); err != nil || got != key.Public.XY() || !key.Public.Verify(digest[:], sig) {
		t.Error("the low-S form Sign emitted is not accepted")
	}
}

func TestRecoverPublicKey(t *testing.T) {
	for i := int64(1); i <= 10; i++ {
		key := keyOf(big.NewInt(i * 104729))
		digest := sha256.Sum256([]byte{byte(i), 0xAB})
		sig, err := key.Sign(digest[:])
		if err != nil {
			t.Fatal(err)
		}
		got, err := RecoverPublicKeyXY(digest[:], sig)
		if err != nil {
			t.Fatalf("recover failed for key %d: %v", i, err)
		}
		if got != key.Public.XY() {
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
		if _, err := RecoverPublicKeyXY(digest[:], sig); err == nil {
			t.Errorf("case %d: garbage signature recovered successfully", i)
		}
	}
}

func TestSignatureSerializeRoundtrip(t *testing.T) {
	key := keyOf(big.NewInt(99991))
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

func TestGenerateKeyUniqueness(t *testing.T) {
	a, err := GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two generated keys are identical")
	}
}

// TestSignMatchesBigIntOracle: Sign on the limbs gives byte for byte the
// R, S and V of the math/big Sign it replaced (signOracle), on 10³ seeded
// keys and digests (10² under -short) and on the digests at the edges of
// the scalar range; and the nonce generator's first three candidates are
// the oracle's retry sequence.
func TestSignMatchesBigIntOracle(t *testing.T) {
	n := S256().N
	cases := 1_000
	if testing.Short() {
		cases = 100
	}
	rng := rand.New(rand.NewSource(6979))
	check := func(name string, d *big.Int, digest []byte) {
		t.Helper()
		got, err := keyOf(d).Sign(digest)
		if err != nil {
			t.Fatal(err)
		}
		if want := signOracle(new(big.Int).Mod(d, n), digest); got != want {
			t.Fatalf("%s: d = %x, digest %x: Sign gave %x, the oracle %x", name, d, digest, got.serialize(), want.serialize())
		}
	}
	for i := 0; i < cases; i++ {
		digest := make([]byte, 32)
		rng.Read(digest)
		check("seeded", randScalar(rng), digest)
	}
	for name, e := range map[string]*big.Int{
		"digest = 0":        new(big.Int),
		"digest = n":        n,
		"digest = n − 1":    new(big.Int).Sub(n, big.NewInt(1)),
		"digest = 2²⁵⁶ − 1": max256,
	} {
		check(name, big.NewInt(0x5eed), be32(e))
	}

	d := randScalar(rng)
	digest := sha256.Sum256([]byte("retry sequence"))
	ds := scFromBig(d)
	got, want := newRFC6979(&ds, digest[:]), rfc6979Oracle(d, digest[:], S256())
	for i := 0; i < 3; i++ {
		k := got.next()
		if w := want(); scToBig(&k).Cmp(w) != 0 {
			t.Fatalf("candidate %d: %x, oracle %x", i, scToBig(&k), w)
		}
	}
}

// TestPublicKeyEncoding: XY and the compressed SEC1 encoding from the
// limbs match the math/big curve's point, for keys of both Y parities.
func TestPublicKeyEncoding(t *testing.T) {
	c := S256()
	rng := rand.New(rand.NewSource(1))
	ds := []*big.Int{big.NewInt(1), big.NewInt(2), big.NewInt(3), new(big.Int).Sub(c.N, big.NewInt(1))}
	for i := 0; i < 12; i++ {
		ds = append(ds, randScalar(rng))
	}
	parities := map[byte]bool{}
	for _, d := range ds {
		pub, want := keyOf(d).Public, c.ScalarBaseMult(d)
		xy := want.xy()
		compressed := append([]byte{byte(2 + want.Y.Bit(0))}, xy[:32]...)
		if got := pub.BytesCompressed(); pub.XY() != xy || !bytes.Equal(got, compressed) {
			t.Fatalf("d = %x: XY %x, compressed %x; want %x, %x", d, pub.XY(), got, xy, compressed)
		}
		parities[compressed[0]] = true
	}
	if !parities[0x02] || !parities[0x03] {
		t.Fatalf("prefixes seen %v: want both parities", parities)
	}
}

// TestPrivateKeyRanges: NewPrivateKey reduces mod n and panics on a
// multiple of n; ParsePrivateKey refuses what is not 32 bytes in
// [1, n−1]; GenerateKey skips entropy outside that range.
func TestPrivateKeyRanges(t *testing.T) {
	n := S256().N
	one := keyOf(big.NewInt(1))
	if got := keyOf(new(big.Int).Add(n, big.NewInt(1))); !bytes.Equal(got.Bytes(), one.Bytes()) || got.Public != one.Public {
		t.Error("NewPrivateKey(n + 1) is not key 1")
	}
	for _, v := range []*big.Int{new(big.Int), n} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPrivateKey(%x) did not panic", v)
				}
			}()
			keyOf(v)
		}()
	}
	for _, ok := range []*big.Int{big.NewInt(1), new(big.Int).Sub(n, big.NewInt(1))} {
		k, parsed := ParsePrivateKey(be32(ok))
		if !parsed || !bytes.Equal(k.Bytes(), be32(ok)) || k.Public != keyOf(ok).Public {
			t.Errorf("ParsePrivateKey(%x) refused or misread it", ok)
		}
	}
	for name, b := range map[string][]byte{
		"zero":     be32(new(big.Int)),
		"n":        be32(n),
		"2²⁵⁶ − 1": be32(max256),
		"31 bytes": be32(big.NewInt(1))[1:],
		"33 bytes": append([]byte{0}, be32(big.NewInt(1))...),
		"nil":      nil,
	} {
		if _, ok := ParsePrivateKey(b); ok {
			t.Errorf("ParsePrivateKey(%s) accepted it", name)
		}
	}
	entropy := append(append(be32(max256), be32(new(big.Int))...), be32(big.NewInt(5))...)
	k, err := GenerateKey(bytes.NewReader(entropy))
	if err != nil || !bytes.Equal(k.Bytes(), be32(big.NewInt(5))) {
		t.Errorf("GenerateKey did not skip 2²⁵⁶ − 1 and 0 to reach 5: %v", err)
	}
}

// BenchmarkSign times Sign on the limb kernels: the RFC 6979 nonce, k·G
// on the comb, one inversion for Z and one for k, and s on scalar limbs.
func BenchmarkSign(b *testing.B) {
	key := keyOf(big.NewInt(123456789))
	digest := sha256.Sum256([]byte("bench"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := key.Sign(digest[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func FuzzParseSignature(f *testing.F) {
	key := keyOf(big.NewInt(7))
	digest := sha256.Sum256([]byte("fuzz"))
	sig, _ := key.Sign(digest[:])
	f.Add(sig.serialize())
	f.Add(bytes.Repeat([]byte{0xFF}, 65))
	f.Fuzz(func(t *testing.T, data []byte) {
		sig, err := ParseSignature(data)
		if err != nil {
			return
		}
		// Parsed signatures must never panic recovery.
		_, _ = RecoverPublicKeyXY(digest[:], sig)
	})
}
