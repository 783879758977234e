package secp256k1

import (
	"math/big"
	"math/rand"
	"testing"
)

// scFromBig loads any non-negative integer below 2²⁵⁶, reducing mod n.
func scFromBig(v *big.Int) scalar {
	var buf [32]byte
	v.FillBytes(buf[:])
	var s scalar
	s.scSetBytes(&buf)
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

// TestScalarLoadReduces: scSetBytes reduces and reports range; scSetBig
// refuses what is not an integer in [0, n−1] without panicking.
func TestScalarLoadReduces(t *testing.T) {
	n := S256().N
	for _, v := range scalarSamples(200) {
		var buf [32]byte
		v.FillBytes(buf[:])
		var s scalar
		inRange := s.scSetBytes(&buf)
		if want := new(big.Int).Mod(v, n); scToBig(&s).Cmp(want) != 0 {
			t.Fatalf("load(%x) = %x, want %x", v, scToBig(&s), want)
		}
		if inRange != (v.Cmp(n) < 0) {
			t.Fatalf("load(%x) reported inRange=%v", v, inRange)
		}
		if got := s.scSetBig(v); got != inRange {
			t.Fatalf("scSetBig(%x) = %v, want %v", v, got, inRange)
		}
		if want := scToBig(&s).Cmp(halfN) > 0; s.scIsHigh() != want {
			t.Fatalf("scIsHigh(%x) = %v, want %v", scToBig(&s), s.scIsHigh(), want)
		}
	}
	var s scalar
	for name, v := range map[string]*big.Int{
		"nil":      nil,
		"negative": big.NewInt(-1),
		"2^256":    new(big.Int).Lsh(big.NewInt(1), 256),
		"2^4000":   new(big.Int).Lsh(big.NewInt(1), 4000),
	} {
		if s.scSetBig(v) {
			t.Errorf("scSetBig accepted %s", name)
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
		a.scHalve()
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

// TestScalarWNAF: the digits reconstruct the scalar, every nonzero digit
// is odd and inside the window, and nonzero digits are at least wnafWidth
// apart — the three properties geScalarMult's table and loop rely on.
func TestScalarWNAF(t *testing.T) {
	carried := false
	for _, kv := range scalarSamples(500) {
		k := scFromBig(kv)
		var digits [257]int8
		used := k.wnaf(&digits)
		carried = carried || used == 257
		sum := new(big.Int)
		last := -wnafWidth
		for i := 256; i >= 0; i-- {
			sum.Lsh(sum, 1)
			d := int64(digits[i])
			if d == 0 {
				continue
			}
			if i >= used {
				t.Fatalf("wnaf(%x): digit %d set beyond the %d reported", kv, i, used)
			}
			sum.Add(sum, big.NewInt(d))
			if d&1 == 0 || d >= 1<<(wnafWidth-1) || d <= -(1<<(wnafWidth-1)) {
				t.Fatalf("wnaf(%x): digit %d = %d is not an odd window value", kv, i, d)
			}
		}
		for i := 0; i < 257; i++ {
			if digits[i] == 0 {
				continue
			}
			if i-last < wnafWidth {
				t.Fatalf("wnaf(%x): nonzero digits at %d and %d", kv, last, i)
			}
			last = i
		}
		if sum.Cmp(scToBig(&k)) != 0 {
			t.Fatalf("wnaf(%x) reconstructs %x", scToBig(&k), sum)
		}
	}
	if !carried {
		// n − 1 starts with 127 one-bits, which carry out of bit 255.
		t.Error("no sample used digit 256")
	}
}
