package secp256k1

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// feFromBig builds a fieldVal from a big.Int (reduced mod p).
func feFromBig(v *big.Int) (f fieldVal) {
	f.feSetBytes((*[32]byte)(be32(new(big.Int).Mod(v, S256().P))))
	return f
}

// feToBig converts back for comparison.
func feToBig(f *fieldVal) *big.Int { return limbsToBig(f.n) }

// randomFe derives a pseudo-random field element from four limbs.
func randomFe(a, b, c, d uint64) *big.Int {
	v := new(big.Int).SetUint64(a)
	for _, w := range []uint64{b, c, d} {
		v.Lsh(v, 64)
		v.Or(v, new(big.Int).SetUint64(w))
	}
	return v.Mod(v, S256().P)
}

func TestFieldBytesRoundtrip(t *testing.T) {
	f := func(a, b, c, d uint64) bool {
		v := randomFe(a, b, c, d)
		fe := feFromBig(v)
		return feToBig(&fe).Cmp(v) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFieldSetBytesReduces(t *testing.T) {
	// Loading a value ≥ p must reduce it.
	var fe fieldVal
	fe.feSetBytes((*[32]byte)(be32(new(big.Int).Add(S256().P, big.NewInt(5)))))
	if feToBig(&fe).Cmp(big.NewInt(5)) != 0 {
		t.Errorf("p+5 loaded as %v, want 5", feToBig(&fe))
	}
}

func TestFieldAddSubDifferential(t *testing.T) {
	p := S256().P
	f := func(a1, a2, a3, a4, b1, b2, b3, b4 uint64) bool {
		av, bv := randomFe(a1, a2, a3, a4), randomFe(b1, b2, b3, b4)
		fa, fb := feFromBig(av), feFromBig(bv)

		sum := feFromBig(av) // copy
		sum.feAdd(&fb)
		wantSum := new(big.Int).Add(av, bv)
		wantSum.Mod(wantSum, p)
		if feToBig(&sum).Cmp(wantSum) != 0 {
			return false
		}

		diff := fa
		diff.feSub(&fb)
		wantDiff := new(big.Int).Sub(av, bv)
		wantDiff.Mod(wantDiff, p)
		return feToBig(&diff).Cmp(wantDiff) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFieldMulSqrDifferential(t *testing.T) {
	p := S256().P
	f := func(a1, a2, a3, a4, b1, b2, b3, b4 uint64) bool {
		av, bv := randomFe(a1, a2, a3, a4), randomFe(b1, b2, b3, b4)
		fa, fb := feFromBig(av), feFromBig(bv)

		var prod fieldVal
		feMulInto(&prod, &fa, &fb)
		want := new(big.Int).Mul(av, bv)
		want.Mod(want, p)
		if feToBig(&prod).Cmp(want) != 0 {
			return false
		}

		var sq fieldVal
		feSqrInto(&sq, &fa)
		wantSq := new(big.Int).Mul(av, av)
		wantSq.Mod(wantSq, p)
		return feToBig(&sq).Cmp(wantSq) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFieldNegDifferential(t *testing.T) {
	p := S256().P
	f := func(a1, a2, a3, a4 uint64) bool {
		av := randomFe(a1, a2, a3, a4)
		fe := feFromBig(av)
		fe.feNeg()
		want := new(big.Int).Neg(av)
		want.Mod(want, p)
		return feToBig(&fe).Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFieldInvDifferential(t *testing.T) {
	p := S256().P
	f := func(a1, a2, a3, a4 uint64) bool {
		av := randomFe(a1, a2, a3, a4)
		if av.Sign() == 0 {
			return true
		}
		fe := feFromBig(av)
		var inv fieldVal
		feInvInto(&inv, &fe)
		want := new(big.Int).ModInverse(av, p)
		return feToBig(&inv).Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// fieldEdges are the values where limb arithmetic breaks first: the ends
// of the range, the fold constant and single high bits.
func fieldEdges() []*big.Int {
	p := S256().P
	return []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(p, big.NewInt(1)),
		new(big.Int).Sub(p, big.NewInt(2)),
		new(big.Int).SetUint64(pFold),
		new(big.Int).Lsh(big.NewInt(1), 255),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 192), big.NewInt(1)),
	}
}

// seededFes returns n field elements from a fixed-seed generator, after
// the edge values.
func seededFes(n int) []*big.Int {
	rng := rand.New(rand.NewSource(21))
	out := fieldEdges()
	for i := 0; i < n; i++ {
		out = append(out, randomFe(rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()))
	}
	return out
}

// TestFieldSqrHalveDifferential pins the dedicated squaring and the
// halving against math/big, in place (dst aliasing the operand), which is
// how the addition chains and the doubling formula call them.
func TestFieldSqrHalveDifferential(t *testing.T) {
	p := S256().P
	half := new(big.Int).ModInverse(big.NewInt(2), p)
	for _, av := range seededFes(2000) {
		fe := feFromBig(av)
		feSqrInto(&fe, &fe)
		want := new(big.Int).Mul(av, av)
		want.Mod(want, p)
		if feToBig(&fe).Cmp(want) != 0 {
			t.Fatalf("sqr(%x) = %x, want %x", av, feToBig(&fe), want)
		}
		fe = feFromBig(av)
		fe.feHalve()
		want.Mul(av, half).Mod(want, p)
		if feToBig(&fe).Cmp(want) != 0 {
			t.Fatalf("halve(%x) = %x, want %x", av, feToBig(&fe), want)
		}
		fe, fb := feFromBig(av), feFromBig(want)
		feMulInto(&fe, &fe, &fb) // dst aliases an operand
		want.Mul(av, want).Mod(want, p)
		if feToBig(&fe).Cmp(want) != 0 {
			t.Fatalf("aliased mul(%x) wrong", av)
		}
	}
}

// feInvFermat sets dst = a⁻¹ mod p via Fermat's little theorem, a^(p−2):
// 255 squarings and 15 multiplications along the addition chain
// feSqrtInto shares. It was the production inverse before the binary GCD
// (limbsInvMod) replaced it, and is now that inverse's oracle. The
// inverse of zero is zero.
func feInvFermat(dst, a *fieldVal) {
	x2, x22, x223 := fePow223(a)
	// p − 2 = [223 ones] 0 [22 ones] 0000 1 011 01.
	var t fieldVal
	feSqrMul(&t, &x223, 23, &x22)
	feSqrMul(&t, &t, 5, a)
	feSqrMul(&t, &t, 3, &x2)
	feSqrMul(dst, &t, 2, a)
}

// TestFieldInvChain pins the addition-chain (Fermat) inverse: against
// ModInverse everywhere it is defined, and 0 ↦ 0.
func TestFieldInvChain(t *testing.T) {
	p := S256().P
	for _, av := range seededFes(300) {
		fe := feFromBig(av)
		feInvFermat(&fe, &fe)
		want := new(big.Int)
		if av.Sign() != 0 {
			want.ModInverse(av, p)
		}
		if feToBig(&fe).Cmp(want) != 0 {
			t.Fatalf("inv(%x) = %x, want %x", av, feToBig(&fe), want)
		}
	}
}

// TestFieldInvMatchesFermat: the binary-GCD inverse agrees with the Fermat
// chain on 10⁴ seeded values and the edges (0, 1, p − 1 among them), in
// place as the Jacobian-to-affine conversion calls it.
func TestFieldInvMatchesFermat(t *testing.T) {
	for _, av := range seededFes(10_000) {
		fe := feFromBig(av)
		var want fieldVal
		feInvFermat(&want, &fe)
		feInvInto(&fe, &fe)
		if fe != want {
			t.Fatalf("inv(%x) = %x, Fermat says %x", av, feToBig(&fe), feToBig(&want))
		}
	}
}

// TestBetaEndomorphism pins β to libsecp256k1's value, checks it is a
// nontrivial cube root of unity mod p, and checks it pairs with λ on the
// math/big layer: (β·x, y) of G is λ·G.
func TestBetaEndomorphism(t *testing.T) {
	p := S256().P
	beta := mustHex("7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee")
	if got := feToBig(&feBeta); got.Cmp(beta) != 0 {
		t.Fatalf("feBeta = %x, want %x", got, beta)
	}
	if cube := new(big.Int).Exp(beta, big.NewInt(3), p); cube.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("β³ mod p = %x, want 1", cube)
	}
	g := S256().G
	phiG := Point{X: new(big.Int).Mul(beta, g.X), Y: g.Y}
	phiG.X.Mod(phiG.X, p)
	if lambdaG := S256().ScalarMult(g, scToBig(&scLambda)); !lambdaG.Equal(phiG) {
		t.Errorf("λ·G = %v, want φ(G) = %v", lambdaG, phiG)
	}
}

// TestFieldSqrtDifferential: feSqrtInto agrees with ModSqrt on whether a
// root exists — about half of the seeded values are non-residues — and a
// reported root squares back to its argument.
func TestFieldSqrtDifferential(t *testing.T) {
	p := S256().P
	residues, nonResidues := 0, 0
	for _, av := range seededFes(600) {
		fe := feFromBig(av)
		var root fieldVal
		ok := feSqrtInto(&root, &fe)
		want := new(big.Int).ModSqrt(av, p)
		if ok != (want != nil) {
			t.Fatalf("sqrt(%x): kernel says residue=%v, ModSqrt says %v", av, ok, want != nil)
		}
		if !ok {
			nonResidues++
			continue
		}
		residues++
		got := feToBig(&root)
		if got.Cmp(want) != 0 && got.Cmp(new(big.Int).Sub(p, want)) != 0 {
			t.Fatalf("sqrt(%x) = %x, want ±%x", av, got, want)
		}
	}
	if residues < 200 || nonResidues < 200 {
		t.Fatalf("seeded sample has %d residues and %d non-residues; want both well covered", residues, nonResidues)
	}
}

func TestFieldEdgeValues(t *testing.T) {
	p := S256().P
	edges := fieldEdges()
	for _, a := range edges {
		for _, b := range edges {
			fa, fb := feFromBig(a), feFromBig(b)
			sum := fa
			sum.feAdd(&fb)
			want := new(big.Int).Add(a, b)
			want.Mod(want, p)
			if feToBig(&sum).Cmp(want) != 0 {
				t.Errorf("add(%v, %v) wrong", a, b)
			}
			diff := fa
			diff.feSub(&fb)
			want.Sub(a, b).Mod(want, p)
			if feToBig(&diff).Cmp(want) != 0 {
				t.Errorf("sub(%v, %v) wrong", a, b)
			}
			var prod fieldVal
			feMulInto(&prod, &fa, &fb)
			wantM := new(big.Int).Mul(a, b)
			wantM.Mod(wantM, p)
			if feToBig(&prod).Cmp(wantM) != 0 {
				t.Errorf("mul(%v, %v) wrong", a, b)
			}
		}
	}
}

// TestFastPointOpsMatchGeneric pins the Jacobian kernels — addition,
// mixed addition, doubling and the chain — against the math/big curve on
// random small scalars.
func TestFastPointOpsMatchGeneric(t *testing.T) {
	c := S256()
	var zero scalar
	f := func(ka, kb uint64) bool {
		a := new(big.Int).SetUint64(ka%1_000_000 + 2)
		b := new(big.Int).SetUint64(kb%1_000_000 + 2)
		pa, pb := c.ScalarBaseMult(a), c.ScalarBaseMult(b)
		ga, gb := geFromPoint(pa), geFromPoint(pb)
		ja, jb := ga.jacobian(), gb.jacobian()
		geDouble(&ja, &ja) // a Z ≠ 1 operand for the additions
		twoA := c.Add(pa, pa)

		var sum, mixed, double gePoint
		geAdd(&sum, &ja, &jb)
		geAddMixed(&mixed, &ja, &gb)
		geDouble(&double, &ja)
		as := scFromBig(a)
		mul := geMulAdd(&zero, &gb, &as)

		wantSum := c.Add(twoA, pb)
		return gePointOf(&ja).Equal(twoA) &&
			gePointOf(&sum).Equal(wantSum) && gePointOf(&mixed).Equal(wantSum) &&
			gePointOf(&double).Equal(c.Add(twoA, twoA)) &&
			gePointOf(&mul).Equal(c.ScalarMult(pb, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFastPathInfinityHandling(t *testing.T) {
	g, inf := geG.jacobian(), geInfinity()
	var out gePoint
	if geAdd(&out, &inf, &inf); !out.isInfinity() {
		t.Error("inf + inf != inf")
	}
	if geAddMixed(&out, &inf, &geG); !geEqual(&out, &g) {
		t.Error("inf + G != G in mixed addition")
	}
	// Equal operands take the doubling branch of both additions.
	var twoG gePoint
	geDouble(&twoG, &g)
	if geAdd(&out, &g, &g); !geEqual(&out, &twoG) {
		t.Error("G + G != 2·G")
	}
	if geAddMixed(&out, &g, &geG); !geEqual(&out, &twoG) {
		t.Error("G + G != 2·G in mixed addition")
	}
}

func BenchmarkFieldMul(b *testing.B) {
	fa := feFromBig(randomFe(1, 2, 3, 4))
	fb := feFromBig(randomFe(5, 6, 7, 8))
	var out fieldVal
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		feMulInto(&out, &fa, &fb)
	}
}

func BenchmarkFieldInv(b *testing.B) {
	fa := feFromBig(randomFe(1, 2, 3, 4))
	var out fieldVal
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		feInvInto(&out, &fa)
	}
}
