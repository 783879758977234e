// Package critbit is the module's one persistent crit-bit (compressed
// binary radix) trie. The account state, each account's storage and the
// chain's transaction and detection indexes are all instances of it.
//
// A trie is a root pointer (nil = empty). Set and Delete share every
// subtree they do not change with the trie they started from, so a root
// that has passed a freeze point keeps describing exactly the key set it
// described then. Copying a trie is copying its root pointer, and a reader
// holding a frozen root needs no lock however many writes happen since.
//
// A writer passes a generation (NewGen) to Set and Delete. Nodes it makes
// carry that generation, and until the writer's next freeze point — where
// it drops the generation and takes a fresh one for its next write —
// nothing but its own live root reaches them, so it rewrites them in place
// instead of path-copying them again. Every other node is path-copied:
// those of an older or another writer's generation, those of generation 0
// (which means "copy always"), and summed ones. Two rules keep old roots
// exact:
//
//  1. The sum memo is written once (see Sum).
//  2. A node is otherwise written only by the writer whose generation it
//     carries, and only before that writer's next freeze point.
//
// What a freeze point is belongs to the caller (state.DB: Snapshot,
// RevertToSnapshot, Root; the chain's indexes: each published view); the
// rule it must keep is that a root is saved, copied or handed to another
// goroutine only at one.
//
// The shape is a pure function of the key set — crit-bit tries are
// insertion-order independent — which is what lets a hash summed over
// the structure (Sum) serve as a commitment to the contents.
package critbit

import (
	"math"
	"math/bits"
	"sync/atomic"

	"github.com/smartcrowd/smartcrowd/internal/telemetry"
)

// Key is the fixed key width. Callers with shorter keys right-pad them:
// padding cannot be the first bit on which two distinct keys differ, so
// it moves no branch.
type Key = [32]byte

// Node is one trie node. A leaf has bit == -1 and points at its binding;
// a branch carries the index of the first bit on which its two subtrees
// disagree (left = 0, right = 1). The key and value sit out of line so
// that a node is 64 bytes whatever V is: a path copy makes O(depth)
// branches for every leaf it writes, and a branch has no use for either.
type Node[V any] struct {
	bit int16
	// summed and sum memoise Sum over this subtree (see Sum for the rule
	// that makes writing them safe). A summed node is never rewritten.
	summed bool
	// gen is the generation of the writer that made the node; 0 for none.
	gen         uint32
	left, right *Node[V]
	*binding[V]
	sum [32]byte
}

// binding is a leaf's key and value.
type binding[V any] struct {
	key Key
	val V
}

// leafNode is how Set allocates a leaf: the node and the binding it points
// at in one object, so a leaf still costs one allocation.
type leafNode[V any] struct {
	Node[V]
	b binding[V]
}

// lastGen is the last generation NewGen handed out, process-wide: a
// generation must never be handed out twice, because nothing but a
// generation's uniqueness stops a writer from rewriting a node of an
// unsummed trie (a storage trie, an index) that a frozen root still
// reaches.
var lastGen atomic.Uint32

// mGenerations exports lastGen, so an operator can see how far the
// counter is from exhaustion.
var mGenerations = telemetry.GetGauge("smartcrowd_critbit_generations")

func init() {
	telemetry.SetHelp("smartcrowd_critbit_generations", "Trie writer generations handed out process-wide; at 4294967295 every write path-copies")
}

// NewGen returns a generation no other writer has held. When the counter
// is exhausted it returns 0 from then on — every write path-copies —
// rather than wrap onto generations live nodes may still carry.
func NewGen() uint32 {
	for {
		g := lastGen.Load()
		if g == math.MaxUint32 {
			return 0
		}
		if lastGen.CompareAndSwap(g, g+1) {
			mGenerations.Set(int64(g) + 1)
			return g + 1
		}
	}
}

// owned reports whether a writer holding gen may rewrite n in place.
func (n *Node[V]) owned(gen uint32) bool {
	return gen != 0 && n.gen == gen && !n.summed
}

// with returns n with the given children: n itself, rewritten, when the
// writer holding gen owns it, otherwise a copy carrying gen.
func with[V any](n, left, right *Node[V], gen uint32) *Node[V] {
	if n.owned(gen) {
		n.left, n.right = left, right
		return n
	}
	return &Node[V]{bit: n.bit, gen: gen, left: left, right: right}
}

func newLeaf[V any](key *Key, val V, gen uint32) *Node[V] {
	l := &leafNode[V]{Node: Node[V]{bit: -1, gen: gen}, b: binding[V]{*key, val}}
	l.binding = &l.b
	return &l.Node
}

// keyBit returns bit i of k, counting from the most significant bit of
// k[0] — the order in which keys compare lexicographically.
func keyBit(k *Key, i int16) int {
	return int(k[i>>3]>>(7-uint(i&7))) & 1
}

// firstDiffBit returns the index of the first bit on which a and b
// differ; a and b must not be equal.
func firstDiffBit(a, b *Key) int16 {
	for i := range a {
		if x := a[i] ^ b[i]; x != 0 {
			return int16(i*8 + bits.LeadingZeros8(x))
		}
	}
	panic("critbit: firstDiffBit on equal keys")
}

// find walks to the only leaf key can collide with: the one at the end
// of key's own bit path. n must not be nil.
func find[V any](n *Node[V], key *Key) *Node[V] {
	for n.bit >= 0 {
		if keyBit(key, n.bit) == 0 {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n
}

// Get returns the value bound to key, if any.
func Get[V any](n *Node[V], key Key) (V, bool) {
	if n != nil {
		if leaf := find(n, &key); leaf.key == key {
			return leaf.val, true
		}
	}
	var zero V
	return zero, false
}

// Set returns the trie with key bound to val, written by the holder of
// gen (0: path-copy everything). Nodes the writer owns are rewritten in
// place; everything else on the path is copied and every other subtree
// shared.
func Set[V any](n *Node[V], key Key, val V, gen uint32) *Node[V] {
	if n == nil {
		return newLeaf(&key, val, gen)
	}
	if cand := find(n, &key); cand.key != key {
		return split(n, newLeaf(&key, val, gen), firstDiffBit(&key, &cand.key), gen)
	}
	return replace(n, &key, val, gen)
}

// replace binds val to the existing leaf with key, walking down.
func replace[V any](n *Node[V], key *Key, val V, gen uint32) *Node[V] {
	if n.bit < 0 {
		if n.owned(gen) {
			n.val = val
			return n
		}
		return newLeaf(key, val, gen)
	}
	if keyBit(key, n.bit) == 0 {
		return with(n, replace(n.left, key, val, gen), n.right, gen)
	}
	return with(n, n.left, replace(n.right, key, val, gen), gen)
}

// split inserts a new leaf whose first divergence from the existing keys
// on its path is at bit d: the new branch lands above the first node that
// branches at or past d.
func split[V any](n, leaf *Node[V], d int16, gen uint32) *Node[V] {
	if n.bit < 0 || n.bit > d {
		if keyBit(&leaf.key, d) == 0 {
			return &Node[V]{bit: d, gen: gen, left: leaf, right: n}
		}
		return &Node[V]{bit: d, gen: gen, left: n, right: leaf}
	}
	if keyBit(&leaf.key, n.bit) == 0 {
		return with(n, split(n.left, leaf, d, gen), n.right, gen)
	}
	return with(n, n.left, split(n.right, leaf, d, gen), gen)
}

// Delete returns the trie without key, written by the holder of gen as
// Set is; deleting an absent key returns the original root pointer.
func Delete[V any](n *Node[V], key Key, gen uint32) *Node[V] {
	if n == nil {
		return nil
	}
	if n.bit < 0 {
		if n.key == key {
			return nil
		}
		return n
	}
	if keyBit(&key, n.bit) == 0 {
		child := Delete(n.left, key, gen)
		switch {
		case child == n.left:
			return n
		case child == nil:
			return n.right // branch collapses onto its sibling
		}
		return with(n, child, n.right, gen)
	}
	child := Delete(n.right, key, gen)
	switch {
	case child == n.right:
		return n
	case child == nil:
		return n.left
	}
	return with(n, n.left, child, gen)
}

// Walk calls fn for every binding in ascending key order.
func Walk[V any](n *Node[V], fn func(key Key, val V)) {
	if n == nil {
		return
	}
	if n.bit < 0 {
		fn(n.key, n.val)
		return
	}
	Walk(n.left, fn)
	Walk(n.right, fn)
}

// Sum folds the trie bottom-up — leaf over each binding, branch over a
// crit bit and its two child sums — and memoises the result in every node
// it visits, so a later Sum costs only the nodes written since: O(writes
// · depth) calls, none at all on an unchanged trie. n must not be nil (an
// empty trie has no nodes to sum; the caller picks that constant), and
// every Sum over tries that share nodes must pass the same two functions.
//
// The memo is written once — a summed node, and so every node below it,
// is never rewritten — and it is not synchronised. The owner of a trie
// therefore sums it before the root becomes reachable from a second
// goroutine; from then on Sum on that root only reads.
func Sum[V any](n *Node[V], leaf func(key Key, val V) [32]byte, branch func(bit int16, left, right [32]byte) [32]byte) [32]byte {
	if !n.summed {
		if n.bit < 0 {
			n.sum = leaf(n.key, n.val)
		} else {
			n.sum = branch(n.bit, Sum(n.left, leaf, branch), Sum(n.right, leaf, branch))
		}
		n.summed = true
	}
	return n.sum
}
