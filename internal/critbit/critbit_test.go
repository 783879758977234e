package critbit

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
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
		root = Set(root, key(i), i, 0)
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
		mutated = Set(mutated, key(i), i+1000, 0)
	}
	for i := 0; i < n/4; i++ {
		mutated = Delete(mutated, key(n-1-i), 0)
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
	if Delete(mutated, key(n+7), 0) != mutated {
		t.Fatal("deleting an absent key rebuilt the trie")
	}
	if Delete[int](nil, key(0), 0) != nil {
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
		root = Set(root, key(i), i, 0)
		short := key(i + 1000) // 20 significant bytes, zero padding
		clear(short[20:])
		root = Set(root, short, i, 0)
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
			root = Set(root, key(i), i, 0)
		}
		for _, i := range rng.Perm(50) {
			root = Delete(root, key(n+i), 0)
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
		root = Set(root, key(i), i, 0)
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
	next := Set(root, key(7), -1, 0)
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
	if n := testing.AllocsPerRun(100, func() { root = Set(nil, k, wide{}, 0) }); n != 1 {
		t.Errorf("Set of a first leaf made %v allocations, want 1", n)
	}
	_ = root
}

// fuzzKeys is a universe of 48 keys: 32 well-spread ones and 16 that
// share a 31-byte prefix, so the trie has deep branches as well as
// shallow ones.
var fuzzKeys = func() (ks [48]Key) {
	for i := range ks {
		if i < 32 {
			ks[i] = key(i)
		} else {
			ks[i] = key(1000)
			ks[i][31] = byte(i)
		}
	}
	return ks
}()

// build is the reference: the model's bindings inserted one by one with
// generation 0, the plain path copy.
func build(model map[Key]int) *Node[int] {
	var root *Node[int]
	for k, v := range model {
		root = Set(root, k, v, 0)
	}
	return root
}

// contents walks a trie into a map.
func contents(n *Node[int]) map[Key]int {
	out := map[Key]int{}
	Walk(n, func(k Key, v int) { out[k] = v })
	return out
}

// holds reports whether the trie holds exactly the bindings of want.
func holds(n *Node[int], want map[Key]int) bool {
	seen, ok := 0, true
	Walk(n, func(k Key, v int) {
		seen++
		if w, found := want[k]; !found || w != v {
			ok = false
		}
	})
	return ok && seen == len(want)
}

// sameShape compares two tries node by node.
func sameShape(a, b *Node[int]) bool {
	switch {
	case a == nil || b == nil:
		return a == b
	case a.bit != b.bit:
		return false
	case a.bit < 0:
		return a.key == b.key && a.val == b.val
	}
	return sameShape(a.left, b.left) && sameShape(a.right, b.right)
}

// FuzzTrieWriterDifferential drives one writer through Set, Delete, Set
// with generation 0, freeze points (a fresh NewGen), "keep this root" (a
// freeze point that also records the root and what it holds) and Sum of
// the live root, against a map. Every kept root must still walk to what
// it held when kept, whatever the writer did since, and the live root
// must hold the map and sum like a fresh generation-0 build of it — a
// stale sum memo on a node rewritten after Sum would show there.
func FuzzTrieWriterDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 3, 0, 2, 3, 6, 1, 2, 0, 1, 9, 4, 0, 5, 0, 1, 7})
	f.Add([]byte("set set keep delete sum set freeze zero set delete keep"))
	long := make([]byte, 300)
	rand.New(rand.NewSource(1)).Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 900 {
			ops = ops[:900] // every op re-walks the live trie
		}
		type kept struct {
			root *Node[int]
			want map[Key]int
		}
		var (
			root  *Node[int]
			model = map[Key]int{}
			keeps []kept
			gen   = NewGen()
			calls int
		)
		for i := 0; i+2 < len(ops); i += 3 {
			k, v := fuzzKeys[int(ops[i+1])%len(fuzzKeys)], int(ops[i+2])
			switch ops[i] % 7 {
			case 0, 1:
				root = Set(root, k, v, gen)
				model[k] = v
			case 2:
				root = Delete(root, k, gen)
				delete(model, k)
			case 3:
				root = Set(root, k, v, 0)
				model[k] = v
			case 4:
				gen = NewGen()
			case 5:
				gen = NewGen()
				keeps = append(keeps, kept{root, contents(root)})
			case 6:
				if root != nil {
					shapeSum(root, &calls)
				}
			}
			want, bound := model[k]
			if got, ok := Get(root, k); ok != bound || got != want {
				t.Fatalf("op %d: the live trie reads %d,%v for the key just touched, model %d,%v", i/3, got, ok, want, bound)
			}
		}
		if !holds(root, model) {
			t.Fatalf("the live trie does not hold the model's %d bindings", len(model))
		}
		for j, kp := range keeps {
			if !holds(kp.root, kp.want) {
				t.Fatalf("kept root %d no longer holds what it held", j)
			}
		}
		if root == nil {
			return
		}
		if shapeSum(root, &calls) != shapeSum(build(model), &calls) {
			t.Fatal("the live trie's shape or sum differs from a fresh build's")
		}
		for j, kp := range keeps {
			if !sameShape(kp.root, build(kp.want)) {
				t.Fatalf("kept root %d's shape differs from a fresh build's", j)
			}
		}
	})
}

// TestOwnedWritesRewriteInPlace pins what a generation buys: after the
// first write of a window, rewriting the same key allocates nothing and
// returns the same root, while a generation-0 writer, a fresh generation
// and a summed trie all copy.
func TestOwnedWritesRewriteInPlace(t *testing.T) {
	var root *Node[int]
	for i := 0; i < 1024; i++ {
		root = Set(root, key(i), i, 0)
	}
	gen, k := NewGen(), key(7)
	owned := Set(root, k, -1, gen)
	if owned == root {
		t.Fatal("the first owned write did not copy the frozen path")
	}
	if n := testing.AllocsPerRun(100, func() { owned = Set(owned, k, -2, gen) }); n != 0 {
		t.Errorf("rewriting an owned leaf made %v allocations, want 0", n)
	}
	if v, _ := Get(root, k); v != 7 {
		t.Errorf("the frozen root reads %d for key 7, want 7", v)
	}
	for name, g := range map[string]uint32{"generation 0": 0, "a fresh generation": NewGen()} {
		if Set(owned, k, -3, g) == owned {
			t.Errorf("%s rewrote another writer's nodes", name)
		}
	}
	var calls int
	shapeSum(owned, &calls)
	if Set(owned, k, -4, gen) == owned {
		t.Error("a summed trie was rewritten in place")
	}
}

// TestNewGenSaturates: once the counter is exhausted NewGen hands out 0
// for good, and every write path-copies, rather than wrapping onto
// generations live nodes may still carry.
func TestNewGenSaturates(t *testing.T) {
	saved := lastGen.Load()
	t.Cleanup(func() { lastGen.Store(saved) })
	lastGen.Store(math.MaxUint32 - 1)
	if g := NewGen(); g != math.MaxUint32 {
		t.Fatalf("last generation = %d, want %d", g, uint32(math.MaxUint32))
	}
	var root *Node[int]
	for i := 0; i < 3; i++ {
		g := NewGen()
		if g != 0 {
			t.Fatalf("NewGen after exhaustion = %d, want 0", g)
		}
		next := Set(root, key(0), i, g)
		if next == root {
			t.Fatal("a write after exhaustion rewrote a node in place")
		}
		if v, ok := Get(root, key(0)); root != nil && (!ok || v != i-1) {
			t.Fatalf("write %d changed the previous root", i)
		}
		root = next
	}
}

var setSink *Node[int]

// BenchmarkSetOwned makes the same 64 writes to a 10,000-key trie with
// generation 0 (each a path copy) and under one generation (the first
// write to a path copies it, the rest rewrite).
func BenchmarkSetOwned(b *testing.B) {
	const n = 10_000
	var base *Node[int]
	for i := 0; i < n; i++ {
		base = Set(base, key(i), i, 0)
	}
	for _, owned := range []bool{false, true} {
		b.Run(fmt.Sprintf("owned=%v", owned), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var gen uint32
				if owned {
					gen = NewGen()
				}
				root := base
				for j := 0; j < 64; j++ {
					root = Set(root, key((i*64+j)%n), j, gen)
				}
				setSink = root
			}
		})
	}
}

// TestGenerationsGauge: the exported gauge is the last generation handed
// out, so an operator reads the distance to exhaustion off /metrics.
func TestGenerationsGauge(t *testing.T) {
	g := NewGen()
	if got := mGenerations.Value(); got != int64(g) {
		t.Errorf("gauge %d after NewGen() = %d", got, g)
	}
}
