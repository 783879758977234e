package secp256k1

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/big"
	"math/rand"
	"testing"
)

// recoverOracle recovers on math/big alone: the literal
// Q = r⁻¹(s·R − e·G) on math/big scalars and the math/big curve, with
// ModSqrt for y and ModInverse for r⁻¹, under the same range and low-S
// rules as RecoverPublicKeyXY.
func recoverOracle(digest []byte, sig Signature) (xy [64]byte, err error) {
	c := S256()
	r, s, ok := sigScalars(sig)
	if !ok {
		return xy, ErrInvalidSignature
	}
	y, ok := c.recoverY(r, sig.V == 1)
	if !ok {
		return xy, ErrInvalidSignature
	}
	rPoint := Point{X: new(big.Int).Set(r), Y: y}
	e := hashToScalar(digest, c)
	rInv := new(big.Int).ModInverse(r, c.N)
	sR := c.ScalarMult(rPoint, s)
	eG := c.ScalarBaseMult(e)
	q := c.ScalarMult(c.Add(sR, c.Neg(eG)), rInv)
	if q.Infinity() || !c.IsOnCurve(q) {
		return xy, ErrInvalidSignature
	}
	return q.xy(), nil
}

// recoverLiteral is the same formula on the kernels' points, without the
// chain recovery runs: R decompressed by setX, s·R and the final r⁻¹·
// multiplication by the 256-doubling wNAF (geScalarMult), −e·G on the
// comb, r⁻¹ and the range rules on math/big. Cheap enough to run on
// every case of the differential test.
func recoverLiteral(digest []byte, sig Signature) (xy [64]byte, err error) {
	c := S256()
	r, s, ok := sigScalars(sig)
	if !ok {
		return xy, ErrInvalidSignature
	}
	var rPoint geAffine
	if x := feFromBig(r); !rPoint.setX(&x, sig.V == 1) {
		return xy, ErrInvalidSignature
	}
	e := hashToScalar(digest, c)
	negE := scFromBig(e.Sub(c.N, e.Mod(e, c.N)))
	ss, rInv := scFromBig(s), scFromBig(new(big.Int).ModInverse(r, c.N))
	d, negEG := geScalarMult(&rPoint, &ss), geScalarBaseMult(&negE)
	geAdd(&d, &d, &negEG)
	da, ok := d.affine()
	if !ok {
		return xy, ErrInvalidSignature
	}
	q := geScalarMult(&da, &rInv)
	pub, ok := q.affine()
	if !ok || !pub.isOnCurve() {
		return xy, ErrInvalidSignature
	}
	return PublicKey{p: pub}.XY(), nil
}

// sigScalars applies the recovery range rules on math/big — R and S in
// [1, n−1], S ≤ ⌊n/2⌋, V ∈ {0, 1} — and returns R and S.
func sigScalars(sig Signature) (r, s *big.Int, ok bool) {
	n := S256().N
	r, s = sig.rBig(), sig.sBig()
	ok = r.Sign() > 0 && s.Sign() > 0 && r.Cmp(n) < 0 && s.Cmp(halfN) <= 0 && sig.V <= 1
	return r, s, ok
}

// sigOf builds a Signature from integers in [0, 2²⁵⁶).
func sigOf(r, s *big.Int, v byte) (sig Signature) {
	r.FillBytes(sig.R[:])
	s.FillBytes(sig.S[:])
	sig.V = v
	return sig
}

func (s Signature) rBig() *big.Int { return new(big.Int).SetBytes(s.R[:]) }
func (s Signature) sBig() *big.Int { return new(big.Int).SetBytes(s.S[:]) }

// serialize returns the 65-byte R ‖ S ‖ V wire form ParseSignature reads.
func (s Signature) serialize() []byte {
	return append(append(append([]byte(nil), s.R[:]...), s.S[:]...), s.V)
}

// agreeWithOracle fails the test unless the kernel and the oracle agree
// on accept/reject and, when both accept, on the key. It returns the
// kernel's key and whether it accepted.
func agreeWithOracle(t testing.TB, oracle func([]byte, Signature) ([64]byte, error), name string, digest []byte, sig Signature) ([64]byte, bool) {
	t.Helper()
	got, gotErr := RecoverPublicKeyXY(digest, sig)
	want, wantErr := oracle(digest, sig)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: kernel err=%v, oracle err=%v\ndigest %x\nR %x\nS %x\nV %d",
			name, gotErr, wantErr, digest, sig.R, sig.S, sig.V)
	}
	if gotErr != nil {
		if !errors.Is(gotErr, ErrInvalidSignature) {
			t.Fatalf("%s: kernel rejected with %v, want ErrInvalidSignature", name, gotErr)
		}
		return got, false
	}
	if got != want {
		t.Fatalf("%s: kernel recovered %x, oracle %x\ndigest %x\nR %x\nS %x\nV %d",
			name, got, want, digest, sig.R, sig.S, sig.V)
	}
	return got, true
}

// randScalar returns a seeded integer in [1, n−1].
func randScalar(rng *rand.Rand) *big.Int {
	buf := make([]byte, 40)
	rng.Read(buf)
	v := new(big.Int).SetBytes(buf)
	v.Mod(v, new(big.Int).Sub(S256().N, big.NewInt(1)))
	return v.Add(v, big.NewInt(1))
}

// offCurveX returns a seeded x < n with no point on the curve (every
// other x, on average).
func offCurveX(rng *rand.Rand) *big.Int {
	for {
		x := randScalar(rng)
		if _, ok := S256().recoverY(x, false); !ok {
			return x
		}
	}
}

// TestRecoverMatchesBigIntOracle is the differential test of the limb
// kernel: 10⁴ seeded keys and digests (10³ under -short), each signature
// recovered as signed or after one mutation, must be accepted or rejected
// exactly as the literal formula Q = r⁻¹(s·R − e·G) does, with the same
// key. Every case runs against that formula on the kernels' points
// (recoverLiteral); one in 32 also runs against it on the math/big curve
// (recoverOracle).
func TestRecoverMatchesBigIntOracle(t *testing.T) {
	cases := 10_000
	if testing.Short() {
		cases = 1_000
	}
	n := S256().N
	rng := rand.New(rand.NewSource(2019))
	accepted, rejected := 0, 0
	for i := 0; i < cases; i++ {
		key := keyOf(randScalar(rng))
		digest := make([]byte, 32)
		rng.Read(digest)
		sig, err := key.Sign(digest)
		if err != nil {
			t.Fatal(err)
		}
		k := big.NewInt(int64(rng.Intn(16) + 1))
		name := ""
		switch i % 12 {
		case 0:
			name = "as signed"
		case 1:
			name, sig.V = "V flipped", sig.V^1
		case 2:
			name, sig = "R + k", sigOf(new(big.Int).Add(sig.rBig(), k), sig.sBig(), sig.V)
		case 3:
			name, sig = "R − k", sigOf(new(big.Int).Sub(sig.rBig(), k), sig.sBig(), sig.V)
		case 4:
			name, sig = "S + 1", sigOf(sig.rBig(), new(big.Int).Add(sig.sBig(), big.NewInt(1)), sig.V)
		case 5:
			name, sig = "S − 1", sigOf(sig.rBig(), new(big.Int).Sub(sig.sBig(), big.NewInt(1)), sig.V)
		case 6:
			name, sig = "high-S twin", sigOf(sig.rBig(), new(big.Int).Sub(n, sig.sBig()), sig.V^1)
		case 7:
			name = "digest bit flipped"
			digest[rng.Intn(32)] ^= 1 << rng.Intn(8)
		case 8:
			name, sig = "R off the curve", sigOf(offCurveX(rng), sig.sBig(), sig.V)
		case 9:
			name, sig.V = "V > 1", byte(2+rng.Intn(254))
		case 10:
			name, sig = "random R, S", sigOf(randScalar(rng), randScalar(rng), byte(rng.Intn(2)))
		case 11:
			name = "digest resized"
			digest = make([]byte, []int{0, 20, 31, 33, 64}[rng.Intn(5)])
			rng.Read(digest)
		}
		got, ok := agreeWithOracle(t, recoverLiteral, name, digest, sig)
		if i%32 == 0 {
			agreeWithOracle(t, recoverOracle, name+" (math/big curve)", digest, sig)
		}
		if ok {
			accepted++
		} else {
			rejected++
		}
		switch name {
		case "as signed":
			if !ok || got != key.Public.XY() {
				t.Fatalf("case %d: a fresh signature did not recover its signer", i)
			}
		case "high-S twin", "R off the curve", "V > 1":
			if ok {
				t.Fatalf("case %d: %s accepted", i, name)
			}
		}
	}
	if accepted < cases/4 || rejected < cases/4 {
		t.Fatalf("%d accepted, %d rejected: the mutations should exercise both outcomes", accepted, rejected)
	}
}

// TestRecoverEdgeCasesMatchOracle walks the corners a random sample never
// reaches, each against the pure math/big curve: e ≡ 0 (so u₁ = 0 and u₁·G
// is the point at infinity), e ≥ n, the two branches of the final addition
// in which u₁·G = ±u₂·R, the low-S boundary, and operands a hostile
// caller could hand in.
func TestRecoverEdgeCasesMatchOracle(t *testing.T) {
	c := S256()
	n := c.N
	key := keyOf(big.NewInt(0x5eed))
	one := big.NewInt(1)

	for name, digest := range map[string][]byte{
		"all-zero digest": make([]byte, 32),
		"digest = n":      be32(n),
		"digest = 2²⁵⁶−1": bytes.Repeat([]byte{0xFF}, 32),
		"empty digest":    nil,
	} {
		signed := make([]byte, 32)
		copy(signed[32-len(digest):], digest) // Sign insists on 32 bytes; same integer
		sig, err := key.Sign(signed)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := agreeWithOracle(t, recoverOracle, name, digest, sig)
		if !ok || got != key.Public.XY() {
			t.Errorf("%s: signer not recovered", name)
		}
	}

	// Forge (r, s) from a chosen nonce k so that u₁·G = −u₂·R (s = e/k:
	// Q is the point at infinity, the "signature" of private key 0) or
	// u₁·G = u₂·R (s = −e/k: the final addition must take its doubling
	// branch). Low-S normalisation keeps both cases in their branch: it
	// negates s and R together.
	digest := sha256.Sum256([]byte("final addition"))
	e := hashToScalar(digest[:], c)
	for i := int64(1); i <= 8; i++ {
		k := big.NewInt(0x1234567 * i)
		rPoint := c.ScalarBaseMult(k)
		eOverK := new(big.Int).ModInverse(k, n)
		eOverK.Mul(eOverK, e).Mod(eOverK, n)
		for name, s := range map[string]*big.Int{
			"u₁G = −u₂R": eOverK,
			"u₁G = u₂R":  new(big.Int).Sub(n, eOverK),
		} {
			v := byte(rPoint.Y.Bit(0))
			if s.Cmp(halfN) > 0 {
				s, v = new(big.Int).Sub(n, s), v^1
			}
			sig := sigOf(new(big.Int).Mod(rPoint.X, n), s, v)
			_, ok := agreeWithOracle(t, recoverOracle, name, digest[:], sig)
			if wantOK := name == "u₁G = u₂R"; ok != wantOK {
				t.Errorf("%s (k=%v): accepted=%v, want %v", name, k, ok, wantOK)
			}
		}
	}

	sig, _ := key.Sign(digest[:])
	r, s, v := sig.rBig(), sig.sBig(), sig.V
	for name, mutated := range map[string]Signature{
		"S = ⌊n/2⌋":     sigOf(r, halfN, v),
		"S = ⌊n/2⌋ + 1": sigOf(r, new(big.Int).Add(halfN, one), v),
		"S = n − 1":     sigOf(r, new(big.Int).Sub(n, one), v),
		"S = 1":         sigOf(r, one, v),
		"S = 0":         sigOf(r, new(big.Int), v),
		"S = n":         sigOf(r, n, v),
		"S = 2²⁵⁶ − 1":  sigOf(r, max256, v),
		"R = 0":         sigOf(new(big.Int), s, v),
		"R = 1":         sigOf(one, s, v),
		"R = n − 1":     sigOf(new(big.Int).Sub(n, one), s, v),
		"R = n":         sigOf(n, s, v),
		"R = p − 1":     sigOf(new(big.Int).Sub(c.P, one), s, v),
		"R = 2²⁵⁶ − 1":  sigOf(max256, s, v),
		"all zero":      {},
	} {
		agreeWithOracle(t, recoverOracle, name, digest[:], mutated)
	}
}

// TestRecoverAllocationBudget pins what a recovery may allocate: nothing,
// from the signature's bytes to the key's (it was 164 allocations on
// math/big, then 4 while a Signature was two big.Ints and the key a
// big.Int point). The one allocation ever made is the generator's GLV
// table, on the first call, which AllocsPerRun makes before it counts.
func TestRecoverAllocationBudget(t *testing.T) {
	key := keyOf(big.NewInt(0xA110C))
	digest := sha256.Sum256([]byte("allocations"))
	signed, _ := key.Sign(digest[:])
	wire := signed.serialize()
	var sig Signature
	if allocs := testing.AllocsPerRun(100, func() { sig, _ = ParseSignature(wire) }); allocs != 0 {
		t.Errorf("ParseSignature allocates %.0f times per call, want 0", allocs)
	}
	if sig != signed {
		t.Fatal("ParseSignature did not return the signed signature")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := RecoverPublicKeyXY(digest[:], sig); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("RecoverPublicKeyXY allocates %.0f times per call, want 0", allocs)
	}
}

// TestScalarMultFullWidthMatchesGeneric runs the GLV/Strauss chain (with
// u₁ = 0) and the affine generator comb on full-width scalars against the
// math/big curve (TestFastPointOpsMatchGeneric covers small scalars only).
func TestScalarMultFullWidthMatchesGeneric(t *testing.T) {
	c := S256()
	rng := rand.New(rand.NewSource(5))
	scalars := []*big.Int{
		big.NewInt(1), big.NewInt(2), big.NewInt(15), big.NewInt(16), big.NewInt(17),
		new(big.Int).Sub(c.N, big.NewInt(1)),
		new(big.Int).Sub(c.N, big.NewInt(2)),
		new(big.Int).Lsh(big.NewInt(1), 255),
	}
	for i := 0; i < 12; i++ {
		scalars = append(scalars, randScalar(rng))
	}
	base := c.ScalarBaseMult(randScalar(rng))
	bp := geFromPoint(base)
	var zero scalar
	for _, k := range scalars {
		ks := scFromBig(k)
		q := geScalarBaseMult(&ks)
		if got, want := gePointOf(&q), c.ScalarBaseMult(k); !got.Equal(want) {
			t.Fatalf("%x·G = %v, want %v", k, got, want)
		}
		q = geMulAdd(&zero, &bp, &ks)
		if got, want := gePointOf(&q), c.ScalarMult(base, k); !got.Equal(want) {
			t.Fatalf("%x·P = %v, want %v", k, got, want)
		}
	}
}

// BenchmarkRecoverPublicKey times the recovery every signed byte a node
// checks goes through: RecoverPublicKeyXY, from the signature's 65 bytes
// to the key's 64.
func BenchmarkRecoverPublicKey(b *testing.B) {
	key := keyOf(big.NewInt(123456789))
	digest := sha256.Sum256([]byte("bench"))
	sig, _ := key.Sign(digest[:])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RecoverPublicKeyXY(digest[:], sig); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzRecoverDifferential feeds digest ‖ 65-byte signature to the kernel
// and to the literal formulation (recoverLiteral); they must agree on
// accept/reject and on the key.
func FuzzRecoverDifferential(f *testing.F) {
	key := keyOf(big.NewInt(7))
	digest := sha256.Sum256([]byte("fuzz"))
	sig, _ := key.Sign(digest[:])
	f.Add(append(digest[:], sig.serialize()...))
	highS := sigOf(sig.rBig(), new(big.Int).Sub(S256().N, sig.sBig()), sig.V^1)
	f.Add(append(digest[:], highS.serialize()...))
	f.Add(append(make([]byte, 32), sig.serialize()...))
	f.Add(bytes.Repeat([]byte{0xFF}, 97))
	f.Add(sig.serialize()) // empty digest
	// digest = n (e ≡ 0, u₁ = 0) and n − 1 (e ≡ −1): signed as such, so
	// both recover the key.
	for _, e := range []*big.Int{S256().N, new(big.Int).Sub(S256().N, big.NewInt(1))} {
		edge := be32(e)
		sig, _ := key.Sign(edge)
		f.Add(append(edge, sig.serialize()...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 65 {
			return
		}
		sig, err := ParseSignature(data[len(data)-65:])
		if err != nil {
			t.Fatalf("ParseSignature refused 65 bytes: %v", err)
		}
		agreeWithOracle(t, recoverLiteral, "fuzz", data[:len(data)-65], sig)
	})
}
