package secp256k1

import (
	"math/big"
	"math/rand"
	"testing"
)

// scFromBig loads any non-negative integer below 2²⁵⁶, reducing mod n.
func scFromBig(v *big.Int) (s scalar) {
	s.scSetBytes((*[32]byte)(be32(v)))
	return s
}

func scToBig(s *scalar) *big.Int {
	var buf [32]byte
	storeLimbs(&buf, &s.n)
	return new(big.Int).SetBytes(buf[:])
}

func limbsToBig(n [4]uint64) *big.Int {
	return scToBig(&scalar{n: n})
}

// scalarSamples returns the values where reduction mod n breaks first —
// both ends of the range, n itself and its neighbours, the fold constant,
// the low-S boundary, the top of the 256-bit range — followed by count
// seeded random 256-bit integers (about one in 2¹²⁸ of those is ≥ n, so
// the unreduced cases come from the edges).
func scalarSamples(count int) []*big.Int {
	n := S256().N
	two256 := new(big.Int).Lsh(big.NewInt(1), 256)
	out := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(n, big.NewInt(1)),
		new(big.Int).Set(n),
		new(big.Int).Add(n, big.NewInt(1)),
		new(big.Int).Sub(two256, big.NewInt(1)),
		new(big.Int).Sub(two256, n), // c
		new(big.Int).Rsh(n, 1),
		new(big.Int).Add(new(big.Int).Rsh(n, 1), big.NewInt(1)),
		new(big.Int).Lsh(big.NewInt(1), 255),
		new(big.Int).Lsh(big.NewInt(1), 128),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 128), big.NewInt(1)),
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < count; i++ {
		v := new(big.Int)
		for j := 0; j < 4; j++ {
			v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(rng.Uint64()))
		}
		out = append(out, v)
	}
	return out
}

func TestScalarConstants(t *testing.T) {
	n := S256().N
	if got := limbsToBig(nLimbs); got.Cmp(n) != 0 {
		t.Errorf("nLimbs = %x, want n", got)
	}
	c := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), n)
	if got := limbsToBig(nFold); got.Cmp(c) != 0 {
		t.Errorf("nFold = %x, want 2²⁵⁶ − n = %x", got, c)
	}
	if got := limbsToBig(nHalf); got.Cmp(halfN) != 0 {
		t.Errorf("nHalf = %x, want ⌊n/2⌋ = %x", got, halfN)
	}
}

// TestScalarLoadReduces: scSetBytes reduces and reports range, and
// scIsHigh splits the range at ⌊n/2⌋.
func TestScalarLoadReduces(t *testing.T) {
	n := S256().N
	for _, v := range scalarSamples(200) {
		var s scalar
		inRange := s.scSetBytes((*[32]byte)(be32(v)))
		if want := new(big.Int).Mod(v, n); scToBig(&s).Cmp(want) != 0 {
			t.Fatalf("load(%x) = %x, want %x", v, scToBig(&s), want)
		}
		if inRange != (v.Cmp(n) < 0) {
			t.Fatalf("load(%x) reported inRange=%v", v, inRange)
		}
		if want := scToBig(&s).Cmp(halfN) > 0; s.scIsHigh() != want {
			t.Fatalf("scIsHigh(%x) = %v, want %v", scToBig(&s), s.scIsHigh(), want)
		}
	}
}

// TestScalarDigest: scSetDigest is SEC1 bits2int followed by reduction,
// for every digest length hashToScalar accepts.
func TestScalarDigest(t *testing.T) {
	c := S256()
	rng := rand.New(rand.NewSource(7))
	for _, size := range []int{0, 1, 20, 31, 32, 33, 64} {
		for i := 0; i < 20; i++ {
			digest := make([]byte, size)
			rng.Read(digest)
			if i == 0 {
				for j := range digest {
					digest[j] = 0xFF // ≥ n once 32 bytes are present
				}
			}
			var e scalar
			e.scSetDigest(digest)
			want := hashToScalar(digest, c)
			want.Mod(want, c.N)
			if scToBig(&e).Cmp(want) != 0 {
				t.Fatalf("digest %x → %x, want %x", digest, scToBig(&e), want)
			}
		}
	}
}

func TestScalarMulDifferential(t *testing.T) {
	n := S256().N
	samples := scalarSamples(60)
	for _, av := range samples {
		for _, bv := range samples {
			a, b := scFromBig(av), scFromBig(bv)
			var prod scalar
			scMulInto(&prod, &a, &b)
			want := new(big.Int).Mul(av, bv)
			want.Mod(want, n)
			if scToBig(&prod).Cmp(want) != 0 {
				t.Fatalf("mul(%x, %x) = %x, want %x", av, bv, scToBig(&prod), want)
			}
			scMulInto(&a, &a, &b) // dst aliases an operand
			if a != prod {
				t.Fatalf("aliased mul(%x, %x) differs", av, bv)
			}
		}
	}
}

func TestScalarNegSubHalveDifferential(t *testing.T) {
	n := S256().N
	half := new(big.Int).ModInverse(big.NewInt(2), n)
	samples := scalarSamples(60)
	for _, av := range samples {
		a := scFromBig(av)
		a.scNeg()
		want := new(big.Int).Neg(av)
		want.Mod(want, n)
		if scToBig(&a).Cmp(want) != 0 {
			t.Fatalf("neg(%x) = %x, want %x", av, scToBig(&a), want)
		}
		a = scFromBig(av)
		limbsHalveMod(&a.n, &nLimbs)
		want.Mul(av, half).Mod(want, n)
		if scToBig(&a).Cmp(want) != 0 {
			t.Fatalf("halve(%x) = %x, want %x", av, scToBig(&a), want)
		}
		for _, bv := range samples {
			a, b := scFromBig(av), scFromBig(bv)
			a.scSub(&b)
			want.Sub(av, bv).Mod(want, n)
			if scToBig(&a).Cmp(want) != 0 {
				t.Fatalf("sub(%x, %x) = %x, want %x", av, bv, scToBig(&a), want)
			}
			a = scFromBig(av)
			a.scAdd(&b)
			want.Add(av, bv).Mod(want, n)
			if scToBig(&a).Cmp(want) != 0 {
				t.Fatalf("add(%x, %x) = %x, want %x", av, bv, scToBig(&a), want)
			}
		}
	}
}

func TestScalarInvDifferential(t *testing.T) {
	n := S256().N
	for _, av := range scalarSamples(500) {
		a := scFromBig(av)
		var inv scalar
		scInvInto(&inv, &a)
		want := new(big.Int)
		if r := new(big.Int).Mod(av, n); r.Sign() != 0 {
			want.ModInverse(r, n)
		}
		if scToBig(&inv).Cmp(want) != 0 {
			t.Fatalf("inv(%x) = %x, want %x", av, scToBig(&inv), want)
		}
	}
}

// TestScalarWNAF: at both widths geMulAdd uses, the digits reconstruct
// the scalar, every nonzero digit is odd and inside the window, and
// nonzero digits are at least w apart — the three properties the odd
// multiples tables and the chain rely on. Short scalars (below 2¹²⁸, as
// GLV halves are) end where their bits do, carry included.
func TestScalarWNAF(t *testing.T) {
	for _, w := range []int{glvWindowP, glvWindowG} {
		carried := false
		for _, kv := range scalarSamples(500) {
			k := scFromBig(kv)
			var digits [257]int8
			used := k.wnaf(w, &digits)
			carried = carried || used == 257
			sum := new(big.Int)
			last := -w
			for i := 256; i >= 0; i-- {
				sum.Lsh(sum, 1)
				d := int64(digits[i])
				if d == 0 {
					continue
				}
				if i >= used {
					t.Fatalf("wnaf%d(%x): digit %d set beyond the %d reported", w, kv, i, used)
				}
				sum.Add(sum, big.NewInt(d))
				if d&1 == 0 || d >= 1<<(w-1) || d <= -(1<<(w-1)) {
					t.Fatalf("wnaf%d(%x): digit %d = %d is not an odd window value", w, kv, i, d)
				}
			}
			for i := 0; i < 257; i++ {
				if digits[i] == 0 {
					continue
				}
				if i-last < w {
					t.Fatalf("wnaf%d(%x): nonzero digits at %d and %d", w, kv, last, i)
				}
				last = i
			}
			if sum.Cmp(scToBig(&k)) != 0 {
				t.Fatalf("wnaf%d(%x) reconstructs %x", w, scToBig(&k), sum)
			}
			if bl := scToBig(&k).BitLen(); used > bl+1 {
				t.Fatalf("wnaf%d(%x) used %d digits for %d bits", w, kv, used, bl)
			}
		}
		if !carried {
			// n − 1 starts with 127 one-bits, which carry out of bit 255.
			t.Errorf("width %d: no sample used digit 256", w)
		}
	}
}

// TestLambdaConstants pins λ to libsecp256k1's value, checks it is a
// nontrivial cube root of unity mod n, and checks the split's lattice
// constants against their definitions.
func TestLambdaConstants(t *testing.T) {
	n := S256().N
	lambda := mustHex("5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72")
	if got := scToBig(&scLambda); got.Cmp(lambda) != 0 {
		t.Fatalf("scLambda = %x, want %x", got, lambda)
	}
	if cube := new(big.Int).Exp(lambda, big.NewInt(3), n); cube.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("λ³ mod n = %x, want 1", cube)
	}
	// (a₁, b₁) = (b₂, −glvMinusB1) and (a₂, b₂) = (b₂ + glvMinusB1, b₂)
	// are lattice vectors: a + b·λ ≡ 0.
	mb1, b2 := scToBig(&glvMinusB1), scToBig(&glvB2)
	for _, v := range [][2]*big.Int{
		{b2, new(big.Int).Neg(mb1)},
		{new(big.Int).Add(b2, mb1), b2},
	} {
		if r := new(big.Int).Mul(v[1], lambda); r.Add(r, v[0]).Mod(r, n).Sign() != 0 {
			t.Errorf("(%x, %x) is not in the λ lattice", v[0], v[1])
		}
	}
	two384 := new(big.Int).Lsh(big.NewInt(1), 384)
	round := func(num *big.Int) *big.Int {
		q := new(big.Int).Mul(num, two384)
		return q.Add(q, new(big.Int).Rsh(n, 1)).Div(q, n)
	}
	if got := limbsToBig(glvG1); got.Cmp(round(b2)) != 0 {
		t.Errorf("glvG1 = %x, want ⌊2³⁸⁴·b₂/n⌉ = %x", got, round(b2))
	}
	if got := limbsToBig(glvG2); got.Cmp(round(mb1)) != 0 {
		t.Errorf("glvG2 = %x, want ⌊−2³⁸⁴·b₁/n⌉ = %x", got, round(mb1))
	}
}

// checkSplit fails unless splitLambda(k) satisfies k₁ + k₂·λ ≡ k (mod n)
// with both halves below 2¹²⁸ once read as signed (negated when above
// ⌊n/2⌋, as wnafSigned does).
func checkSplit(t testing.TB, kv *big.Int) {
	t.Helper()
	n := S256().N
	k := scFromBig(kv)
	var k1, k2 scalar
	k.splitLambda(&k1, &k2)
	sum := new(big.Int).Mul(scToBig(&k2), scToBig(&scLambda))
	sum.Add(sum, scToBig(&k1)).Mod(sum, n)
	if want := new(big.Int).Mod(kv, n); sum.Cmp(want) != 0 {
		t.Fatalf("split(%x) = (%x, %x): k₁ + k₂·λ = %x", kv, scToBig(&k1), scToBig(&k2), sum)
	}
	for _, half := range []*big.Int{scToBig(&k1), scToBig(&k2)} {
		if half.Cmp(halfN) > 0 {
			half.Sub(n, half)
		}
		if half.BitLen() > 128 {
			t.Fatalf("split(%x): |half| = %x has %d bits", kv, half, half.BitLen())
		}
	}
}

// splitBoundaries returns scalars either side of the point where
// k·g / 2³⁸⁴ rounds the other way — k·g mod 2³⁸⁴ just below and just above
// 2³⁸³ — for both rounding constants.
func splitBoundaries() []*big.Int {
	n := S256().N
	var out []*big.Int
	for _, g := range [][4]uint64{glvG1, glvG2} {
		gv := limbsToBig(g)
		qMax := new(big.Int).Mul(n, gv)
		qMax.Rsh(qMax, 384)
		for j := int64(0); j < 5; j++ {
			// k·g = q·2³⁸⁴ + 2³⁸³ − (less than g) for k = lo, and just
			// over it for lo + 1, with q spread over [0, n·g/2³⁸⁴).
			q := new(big.Int).Mul(qMax, big.NewInt(j))
			q.Div(q, big.NewInt(5))
			target := q.Lsh(q, 1).Add(q, big.NewInt(1)).Lsh(q, 383)
			lo := new(big.Int).Div(target, gv)
			out = append(out, lo, new(big.Int).Add(lo, big.NewInt(1)))
		}
	}
	return out
}

// TestSplitLambda checks the split on 10⁴ seeded scalars, the usual edge
// values, λ and n − λ (which split as (0, ±1)), 2¹²⁸, and the rounding
// boundaries of both c₁ and c₂.
func TestSplitLambda(t *testing.T) {
	n := S256().N
	lambda := scToBig(&scLambda)
	edges := append(scalarSamples(10_000), lambda, new(big.Int).Sub(n, lambda))
	for _, kv := range append(edges, splitBoundaries()...) {
		checkSplit(t, kv)
	}
	// The boundary pairs do straddle the rounding point: the first of each
	// pair rounds down, the second up.
	bounds, two383 := splitBoundaries(), new(big.Int).Lsh(big.NewInt(1), 383)
	mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 384), big.NewInt(1))
	for i := 0; i < len(bounds); i += 2 {
		g := limbsToBig(glvG1)
		if i >= len(bounds)/2 {
			g = limbsToBig(glvG2)
		}
		below := new(big.Int).Mul(bounds[i], g)
		above := new(big.Int).Mul(bounds[i+1], g)
		if below.And(below, mask).Cmp(two383) >= 0 || above.And(above, mask).Cmp(two383) < 0 {
			t.Fatalf("boundary pair %x, %x does not straddle 2³⁸³", bounds[i], bounds[i+1])
		}
	}
}

// FuzzSplitLambda: any 32 bytes, read as a scalar mod n, split into two
// halves that recombine to it and fit in 128 bits, checked on math/big.
func FuzzSplitLambda(f *testing.F) {
	n := S256().N
	for _, v := range []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(n, big.NewInt(1)), scToBig(&scLambda)} {
		f.Add(be32(v))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf [32]byte
		copy(buf[:], data)
		checkSplit(t, new(big.Int).SetBytes(buf[:]))
	})
}
