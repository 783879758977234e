package secp256k1

import (
	"math/big"
	"math/rand"
	"testing"
)

// geScalarMult computes k·p by plain width-5 wNAF: one doubling per bit of
// k (256 of them) and an addition from the odd-multiples table at each
// nonzero digit. It was the variable-base multiplication of every
// recovery before geMulAdd split the scalars, and is now that chain's
// oracle.
func geScalarMult(p *geAffine, k *scalar) gePoint {
	if k.scIsZero() {
		return geInfinity()
	}
	// table[i] = (2i+1)·p.
	var table [1 << (glvWindowP - 2)]gePoint
	var twoP gePoint
	table[0] = p.jacobian()
	geDouble(&twoP, &table[0])
	for i := 1; i < len(table); i++ {
		geAdd(&table[i], &table[i-1], &twoP)
	}

	var digits [257]int8
	acc := geInfinity()
	for i := k.wnaf(glvWindowP, &digits) - 1; i >= 0; i-- {
		geDouble(&acc, &acc)
		geAddDigit(&acc, &table, digits[i])
	}
	return acc
}

// mulAddOracle is u1·G + u2·p the way recovery computed it before the
// chain: the generator comb, the 256-doubling wNAF, one addition.
func mulAddOracle(u1 *scalar, p *geAffine, u2 *scalar) gePoint {
	q := geScalarMult(p, u2)
	u1G := geScalarBaseMult(u1)
	geAdd(&q, &q, &u1G)
	return q
}

// geEqual reports whether two Jacobian points are the same point.
func geEqual(p, q *gePoint) bool {
	a, aOK := p.affine()
	b, bOK := q.affine()
	return aOK == bOK && a == b
}

// agreeMulAdd fails the test unless geMulAdd and the oracle give the same
// affine point (or both infinity); it reports whether the sum is infinity.
func agreeMulAdd(t *testing.T, name string, u1 *scalar, p *geAffine, u2 *scalar) (infinity bool) {
	t.Helper()
	got, want := geMulAdd(u1, p, u2), mulAddOracle(u1, p, u2)
	ga, gotOK := got.affine()
	wa, wantOK := want.affine()
	if gotOK != wantOK || ga != wa {
		t.Fatalf("%s: u1 = %x, u2 = %x: chain %v (finite %v), oracle %v (finite %v)",
			name, scToBig(u1), scToBig(u2), ga.point(), gotOK, wa.point(), wantOK)
	}
	return !gotOK
}

// TestMulAddMatchesOracle runs the GLV/Strauss chain against the comb plus
// 256-doubling wNAF on seeded full-width scalars and on the corners: u1 = 0
// (a digest ≡ 0 mod n), u2 = 0, halves at the split's edges, and
// u1·G = ±u2·P, where the sum is infinity or the final additions double.
func TestMulAddMatchesOracle(t *testing.T) {
	n := S256().N
	rng := rand.New(rand.NewSource(129))
	samples := scalarSamples(0)
	lambda := scToBig(&scLambda)
	samples = append(samples, lambda, new(big.Int).Sub(n, lambda))
	samples = append(samples, splitBoundaries()...)
	for i := 0; i < 200; i++ {
		samples = append(samples, randScalar(rng))
	}

	k := randScalar(rng)
	ks, p := scFromBig(k), geFromPoint(S256().ScalarBaseMult(k))
	var zero scalar
	for i, v := range samples {
		u := scFromBig(v)
		other := scFromBig(samples[(i*7+3)%len(samples)])
		agreeMulAdd(t, "random pair", &u, &p, &other)
		agreeMulAdd(t, "u1 = 0", &zero, &p, &u)
		agreeMulAdd(t, "u2 = 0", &u, &p, &zero)

		// u1 = ∓u2·k makes u1·G = ∓u2·P.
		var u1 scalar
		scMulInto(&u1, &u, &ks)
		if agreeMulAdd(t, "u1G = u2P", &u1, &p, &u) && !u.scIsZero() {
			t.Fatalf("u1G = u2P with u2 = %x gave infinity", v)
		}
		u1.scNeg()
		if !agreeMulAdd(t, "u1G = −u2P", &u1, &p, &u) {
			t.Fatalf("u1G = −u2P with u2 = %x is not infinity", v)
		}
	}
	if !agreeMulAdd(t, "both zero", &zero, &p, &zero) {
		t.Fatal("0·G + 0·P is not infinity")
	}
}

// TestGlvTable: row 0 of the generator table holds (2i+1)·G and row 1 its
// image λ·(2i+1)·G, checked on the math/big curve.
func TestGlvTable(t *testing.T) {
	table := geGlv()
	lambda := scToBig(&scLambda)
	for i := range table[0] {
		m := big.NewInt(int64(2*i + 1))
		if want := S256().ScalarBaseMult(m); !table[0][i].point().Equal(want) {
			t.Fatalf("table[0][%d] = %v, want %v·G", i, table[0][i].point(), m)
		}
		m.Mul(m, lambda)
		if want := S256().ScalarBaseMult(m); !table[1][i].point().Equal(want) {
			t.Fatalf("table[1][%d] = %v, want λ·%d·G", i, table[1][i].point(), 2*i+1)
		}
	}
}
