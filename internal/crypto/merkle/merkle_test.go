package merkle

import (
	"fmt"
	"testing"
	"testing/quick"
)

// Root is the root over leaf payloads: Fold of their leaf hashes, the way
// a block's transaction root is built.
func Root(leaves [][]byte) Hash {
	level := make([]Hash, len(leaves))
	for i, l := range leaves {
		level[i] = LeafHash(l)
	}
	return Fold(level)
}

func makeLeaves(n int) [][]byte {
	leaves := make([][]byte, n)
	for i := range leaves {
		leaves[i] = []byte(fmt.Sprintf("report-%d", i))
	}
	return leaves
}

func TestEmptyRootStable(t *testing.T) {
	if Root(nil) != EmptyRoot {
		t.Error("Root(nil) != EmptyRoot")
	}
	if Root([][]byte{}) != EmptyRoot {
		t.Error("Root(empty) != EmptyRoot")
	}
}

func TestSingleLeaf(t *testing.T) {
	leaves := makeLeaves(1)
	root := Root(leaves)
	if root == EmptyRoot {
		t.Error("single-leaf root equals empty root")
	}
	p, err := Prove(leaves, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(root, leaves[0], p) {
		t.Error("single-leaf proof rejected")
	}
}

func TestProveVerifyAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 100} {
		leaves := makeLeaves(n)
		root := Root(leaves)
		for i := 0; i < n; i++ {
			p, err := Prove(leaves, i)
			if err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			if !Verify(root, leaves[i], p) {
				t.Errorf("n=%d i=%d: valid proof rejected", n, i)
			}
		}
	}
}

func TestVerifyRejectsWrongLeaf(t *testing.T) {
	leaves := makeLeaves(10)
	root := Root(leaves)
	p, _ := Prove(leaves, 3)
	if Verify(root, []byte("forged-report"), p) {
		t.Error("proof verified a leaf that is not in the tree")
	}
	if Verify(root, leaves[4], p) {
		t.Error("proof for index 3 verified leaf 4")
	}
}

func TestVerifyRejectsTamperedProof(t *testing.T) {
	leaves := makeLeaves(8)
	root := Root(leaves)
	p, _ := Prove(leaves, 2)
	p.Steps[1].Sibling[0] ^= 0xFF
	if Verify(root, leaves[2], p) {
		t.Error("tampered proof accepted")
	}
}

func TestVerifyRejectsWrongRoot(t *testing.T) {
	leaves := makeLeaves(8)
	p, _ := Prove(leaves, 2)
	other := Root(makeLeaves(9))
	if Verify(other, leaves[2], p) {
		t.Error("proof verified under a different tree's root")
	}
}

func TestProveOutOfRange(t *testing.T) {
	leaves := makeLeaves(4)
	for _, idx := range []int{-1, 4, 100} {
		if _, err := Prove(leaves, idx); err == nil {
			t.Errorf("Prove accepted index %d for 4 leaves", idx)
		}
	}
}

func TestVerifyRejectsBogusMetadata(t *testing.T) {
	leaves := makeLeaves(4)
	root := Root(leaves)
	p, _ := Prove(leaves, 1)
	p.LeafCount = 0
	if Verify(root, leaves[1], p) {
		t.Error("accepted proof with zero leaf count")
	}
}

// TestRootSensitivity: changing any single leaf must change the root.
func TestRootSensitivity(t *testing.T) {
	leaves := makeLeaves(16)
	base := Root(leaves)
	for i := range leaves {
		mutated := makeLeaves(16)
		mutated[i] = append(mutated[i], 'X')
		if Root(mutated) == base {
			t.Errorf("mutating leaf %d did not change root", i)
		}
	}
}

// TestLeafNodeDomainSeparation: a crafted interior-node payload must not
// verify as a leaf (second-preimage resistance across levels).
func TestLeafNodeDomainSeparation(t *testing.T) {
	a, b := LeafHash([]byte("a")), LeafHash([]byte("b"))
	crafted := append([]byte{nodePrefix}, append(a[:], b[:]...)...)
	two := Root([][]byte{[]byte("a"), []byte("b")})
	one := Root([][]byte{crafted[1:]}) // strip prefix; leaf hashing re-adds leafPrefix
	if one == two {
		t.Error("interior node forged as leaf: domain separation broken")
	}
}

// TestOrderSensitivity: Merkle roots must depend on leaf order.
func TestOrderSensitivity(t *testing.T) {
	leaves := makeLeaves(6)
	base := Root(leaves)
	swapped := makeLeaves(6)
	swapped[0], swapped[5] = swapped[5], swapped[0]
	if Root(swapped) == base {
		t.Error("swapping leaves did not change root")
	}
}

func TestQuickRandomTrees(t *testing.T) {
	f := func(raw [][]byte, pick uint8) bool {
		if len(raw) == 0 {
			return Root(raw) == EmptyRoot
		}
		idx := int(pick) % len(raw)
		root := Root(raw)
		p, err := Prove(raw, idx)
		if err != nil {
			return false
		}
		return Verify(root, raw[idx], p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestProofLengthLogarithmic(t *testing.T) {
	leaves := makeLeaves(1024)
	p, err := Prove(leaves, 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 10 {
		t.Errorf("proof over 1024 leaves has %d steps, want 10", len(p.Steps))
	}
}

func BenchmarkRoot1000(b *testing.B) {
	leaves := makeLeaves(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Root(leaves)
	}
}

func BenchmarkProveVerify1000(b *testing.B) {
	leaves := makeLeaves(1000)
	root := Root(leaves)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, _ := Prove(leaves, i%1000)
		if !Verify(root, leaves[i%1000], p) {
			b.Fatal("verify failed")
		}
	}
}
