package critbit

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

func key(i int) Key { return sha256.Sum256([]byte(fmt.Sprintf("key-%d", i))) }

func count[V any](n *Node[V]) (c int) {
	Walk(n, func(Key, V) { c++ })
	return c
}

// TestPersistence exercises the trie directly: lookups, overwrites,
// deletes, and — the property everything else rests on — old roots
// staying bit-exact snapshots across later mutations.
func TestPersistence(t *testing.T) {
	const n = 512
	var root *Node[int]
	roots := []*Node[int]{root}
	for i := 0; i < n; i++ {
		root = Set(root, key(i), i)
		roots = append(roots, root)
	}
	if got := count(root); got != n {
		t.Fatalf("count = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if v, ok := Get(root, key(i)); !ok || v != i {
			t.Fatalf("Get(key-%d) = %d,%v, want %d,true", i, v, ok, i)
		}
	}
	if _, ok := Get(root, key(n)); ok {
		t.Fatal("Get found a key never inserted")
	}

	// Overwrite half, delete a quarter; the final trie reflects it.
	mutated := root
	for i := 0; i < n/2; i++ {
		mutated = Set(mutated, key(i), i+1000)
	}
	for i := 0; i < n/4; i++ {
		mutated = Delete(mutated, key(n-1-i))
	}
	if got := count(mutated); got != n-n/4 {
		t.Fatalf("after deletes count = %d, want %d", got, n-n/4)
	}
	for i := 0; i < n/2; i++ {
		if v, _ := Get(mutated, key(i)); v != i+1000 {
			t.Fatalf("overwrite lost: Get(key-%d) = %d", i, v)
		}
	}
	if _, ok := Get(mutated, key(n-1)); ok {
		t.Fatal("deleted key still present")
	}
	if Delete(mutated, key(n+7)) != mutated {
		t.Fatal("deleting an absent key rebuilt the trie")
	}
	if Delete[int](nil, key(0)) != nil {
		t.Fatal("deleting from the empty trie produced a node")
	}

	// Every historical root still answers exactly as it did when captured.
	for step, r := range roots {
		if got := count(r); got != step {
			t.Fatalf("root %d: count = %d, want %d", step, got, step)
		}
		for i := 0; i < step; i++ {
			if v, ok := Get(r, key(i)); !ok || v != i {
				t.Fatalf("root %d: Get(key-%d) = %d,%v, want %d,true", step, i, v, ok, i)
			}
		}
		if step < n {
			if _, ok := Get(r, key(step)); ok {
				t.Fatalf("root %d sees a key inserted later", step)
			}
		}
	}
}

// TestWalkAscending checks in-order traversal on keys that share long
// prefixes (padded short keys) as well as well-spread ones.
func TestWalkAscending(t *testing.T) {
	var root *Node[int]
	for i := 0; i < 300; i++ {
		root = Set(root, key(i), i)
		short := key(i + 1000) // 20 significant bytes, zero padding
		clear(short[20:])
		root = Set(root, short, i)
	}
	var prev Key
	seen := 0
	Walk(root, func(k Key, _ int) {
		if seen > 0 && bytes.Compare(prev[:], k[:]) >= 0 {
			t.Fatalf("walk not ascending at %d: %x then %x", seen, prev, k)
		}
		prev = k
		seen++
	})
	if seen != 600 {
		t.Fatalf("walk visited %d keys, want 600", seen)
	}
}

// shapeSum sums a trie with functions that fold in every key, value and
// branch bit, so equal sums mean equal shape and contents.
func shapeSum(n *Node[int], calls *int) [32]byte {
	return Sum(n,
		func(k Key, v int) [32]byte {
			*calls++
			return sha256.Sum256(append(k[:], byte(v), byte(v>>8)))
		},
		func(bit int16, l, r [32]byte) [32]byte {
			*calls++
			return sha256.Sum256(append(append([]byte{byte(bit >> 8), byte(bit)}, l[:]...), r[:]...))
		})
}

// TestShapeIsInsertionOrderIndependent builds the same key set in
// shuffled orders, and through detours of extra keys later deleted, and
// requires one sum.
func TestShapeIsInsertionOrderIndependent(t *testing.T) {
	const n = 200
	var calls int
	var want [32]byte
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var root *Node[int]
		for _, i := range rng.Perm(n + 50) {
			root = Set(root, key(i), i)
		}
		for _, i := range rng.Perm(50) {
			root = Delete(root, key(n+i))
		}
		got := shapeSum(root, &calls)
		if seed == 0 {
			want = got
		} else if got != want {
			t.Fatalf("seed %d: sum %x, want %x", seed, got, want)
		}
	}
}

// TestSumIsIncremental pins the memo: a second Sum calls nothing, and a
// Sum after one write calls only along that write's path — while the old
// root keeps its own sum.
func TestSumIsIncremental(t *testing.T) {
	const n = 1024
	var root *Node[int]
	for i := 0; i < n; i++ {
		root = Set(root, key(i), i)
	}
	var calls int
	before := shapeSum(root, &calls)
	if calls != 2*n-1 {
		t.Fatalf("first Sum made %d calls, want %d (every leaf and branch)", calls, 2*n-1)
	}
	calls = 0
	if shapeSum(root, &calls) != before || calls != 0 {
		t.Fatalf("Sum of an unchanged trie made %d calls", calls)
	}
	next := Set(root, key(7), -1)
	after := shapeSum(next, &calls)
	if after == before {
		t.Fatal("a write did not change the sum")
	}
	if calls < 2 || calls > 64 {
		t.Fatalf("Sum after one write made %d calls, want one path's worth", calls)
	}
	calls = 0
	if shapeSum(root, &calls) != before || calls != 0 {
		t.Fatal("the old root's sum moved")
	}
}

// TestNodeIs64Bytes pins the layout Set's cost rests on: a node is one
// cache line whatever the value type, because only leaves carry a binding
// and they carry it out of line. The three shapes are the tree's own — the
// account trie's pointer, the storage trie's word, and a struct the size
// of the transaction index's location record.
func TestNodeIs64Bytes(t *testing.T) {
	type wide struct{ _ [56]byte }
	for name, size := range map[string]uintptr{
		"Node[*T]":       unsafe.Sizeof(Node[*wide]{}),
		"Node[[32]byte]": unsafe.Sizeof(Node[[32]byte]{}),
		"Node[56 bytes]": unsafe.Sizeof(Node[wide]{}),
	} {
		if size != 64 {
			t.Errorf("%s is %d bytes, want 64", name, size)
		}
	}
	// A leaf stays a single allocation.
	var root *Node[wide]
	k := key(1)
	if n := testing.AllocsPerRun(100, func() { root = Set(nil, k, wide{}) }); n != 1 {
		t.Errorf("Set of a first leaf made %v allocations, want 1", n)
	}
	_ = root
}
