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

// trie is the summed kind of trie, the kind the state's tries are.
type trie = Node[int, [32]byte]

func count[V any, S Slot](n *Node[V, S]) (c int) {
	Walk(n, func(Key, V) { c++ })
	return c
}

// TestPersistence exercises the trie directly: lookups, overwrites,
// deletes, and — the property everything else rests on — old roots
// staying bit-exact snapshots across later mutations.
func TestPersistence(t *testing.T) {
	const n = 512
	var root *trie
	roots := []*trie{root}
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
	if Delete[int, [32]byte](nil, key(0), 0) != nil {
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
	var root *trie
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
func shapeSum(n *trie, calls *int) [32]byte {
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
		var root *trie
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
	var root *trie
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

// TestNodeSizes pins the layout Set's cost rests on: a path copy makes
// O(depth) branches per leaf it writes, and a branch is a bare node,
// whatever the value type, because only leaves carry a binding and they
// carry it out of line. A node with a [32]byte sum slot is one cache line;
// one with the empty slot is half of one, because the slot sits before
// the pointers and adds no padding. The leaves the state and the index
// allocate are pinned where their value types live.
func TestNodeSizes(t *testing.T) {
	type loc struct{ _, _ uint64 }
	for _, c := range []struct {
		name       string
		size, want uintptr
	}{
		{"Node[[32]byte, [32]byte]", unsafe.Sizeof(Node[[32]byte, [32]byte]{}), 64},
		{"Node[16 bytes, [32]byte]", unsafe.Sizeof(Node[loc, [32]byte]{}), 64},
		{"Node[[32]byte, struct{}]", unsafe.Sizeof(Node[[32]byte, struct{}]{}), 32},
		{"Node[16 bytes, struct{}]", unsafe.Sizeof(Node[loc, struct{}]{}), 32},
	} {
		if c.size != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.size, c.want)
		}
	}
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
func build[S Slot](model map[Key]int) *Node[int, S] {
	var root *Node[int, S]
	for k, v := range model {
		root = Set(root, k, v, 0)
	}
	return root
}

// contents walks a trie into a map.
func contents[S Slot](n *Node[int, S]) map[Key]int {
	out := map[Key]int{}
	Walk(n, func(k Key, v int) { out[k] = v })
	return out
}

// holds reports whether the trie holds exactly the bindings of want.
func holds[S Slot](n *Node[int, S], want map[Key]int) bool {
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
func sameShape[S Slot](a, b *Node[int, S]) bool {
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
// must hold the map and have the shape and sum of a fresh generation-0
// build of it — a stale sum memo on a node rewritten after Sum would show
// there. The script runs on both kinds of trie: generic code is compiled
// once per GC shape, so the unsummed index trie is a body of its own, and
// its kept-root check is the immutability a published view's index
// relies on.
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
		var calls int
		runWriter(t, ops, func(n *trie) [32]byte { return shapeSum(n, &calls) })
		runWriter[struct{}](t, ops, nil)
	})
}

// runWriter is FuzzTrieWriterDifferential's op script on one kind of
// trie; sum is nil for the kind nothing sums, whose sum op does nothing.
func runWriter[S Slot](t *testing.T, ops []byte, sum func(*Node[int, S]) [32]byte) {
	type kept struct {
		root *Node[int, S]
		want map[Key]int
	}
	var (
		root  *Node[int, S]
		model = map[Key]int{}
		keeps []kept
		gen   = NewGen()
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
			if root != nil && sum != nil {
				sum(root)
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
	fresh := build[S](model)
	if !sameShape(root, fresh) || sum != nil && sum(root) != sum(fresh) {
		t.Fatal("the live trie's shape or sum differs from a fresh build's")
	}
	for j, kp := range keeps {
		if !sameShape(kp.root, build[S](kp.want)) {
			t.Fatalf("kept root %d's shape differs from a fresh build's", j)
		}
	}
}

// TestOwnedWritesRewriteInPlace pins what a generation buys: after the
// first write of a window, rewriting the same key allocates nothing and
// returns the same root, while a generation-0 writer, a fresh generation
// and a summed trie all copy.
func TestOwnedWritesRewriteInPlace(t *testing.T) {
	var root *trie
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
	var root *trie
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

var setSink *trie

// BenchmarkSetOwned makes the same 64 writes to a 10,000-key trie with
// generation 0 (each a path copy) and under one generation (the first
// write to a path copies it, the rest rewrite).
func BenchmarkSetOwned(b *testing.B) {
	const n = 10_000
	var base *trie
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
