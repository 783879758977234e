// Package critbit is the module's one persistent crit-bit (compressed
// binary radix) trie. The account state, each account's storage and the
// chain's transaction and detection indexes are all instances of it.
//
// A trie is a root pointer (nil = empty). Nodes are immutable: Set and
// Delete path-copy the O(depth) nodes between the changed leaf and the
// root and share every other subtree with the trie they started from, so
// an old root keeps describing exactly the key set it described when it
// was current. Copying a trie is copying its root pointer, and a reader
// holding a root needs no lock however many writes have happened since.
//
// The shape is a pure function of the key set — crit-bit tries are
// insertion-order independent — which is what lets a hash summed over
// the structure (Sum) serve as a commitment to the contents.
package critbit

import "math/bits"

// Key is the fixed key width. Callers with shorter keys right-pad them:
// padding cannot be the first bit on which two distinct keys differ, so
// it moves no branch.
type Key = [32]byte

// Node is one immutable node. A leaf has bit == -1 and points at its
// binding; a branch carries the index of the first bit on which its two
// subtrees disagree (left = 0, right = 1). The key and value sit out of
// line so that a node is 64 bytes whatever V is: Set path-copies O(depth)
// branches for every leaf it writes, and a branch has no use for either.
type Node[V any] struct {
	bit int16
	// summed and sum memoise Sum over this subtree — the only fields
	// written after construction (see Sum for the rule that makes that
	// safe).
	summed      bool
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

// Set returns the trie with key bound to val. The original is untouched;
// unchanged subtrees are shared.
func Set[V any](n *Node[V], key Key, val V) *Node[V] {
	l := &leafNode[V]{Node: Node[V]{bit: -1}, b: binding[V]{key, val}}
	l.binding = &l.b
	leaf := &l.Node
	if n == nil {
		return leaf
	}
	if cand := find(n, &key); cand.key != key {
		return split(n, leaf, firstDiffBit(&key, &cand.key))
	}
	return replace(n, leaf)
}

// replace swaps leaf in for the existing leaf with its key, path-copying
// down.
func replace[V any](n, leaf *Node[V]) *Node[V] {
	if n.bit < 0 {
		return leaf
	}
	if keyBit(&leaf.key, n.bit) == 0 {
		return &Node[V]{bit: n.bit, left: replace(n.left, leaf), right: n.right}
	}
	return &Node[V]{bit: n.bit, left: n.left, right: replace(n.right, leaf)}
}

// split inserts a new leaf whose first divergence from the existing keys
// on its path is at bit d: the new branch lands above the first node that
// branches at or past d.
func split[V any](n, leaf *Node[V], d int16) *Node[V] {
	if n.bit < 0 || n.bit > d {
		if keyBit(&leaf.key, d) == 0 {
			return &Node[V]{bit: d, left: leaf, right: n}
		}
		return &Node[V]{bit: d, left: n, right: leaf}
	}
	if keyBit(&leaf.key, n.bit) == 0 {
		return &Node[V]{bit: n.bit, left: split(n.left, leaf, d), right: n.right}
	}
	return &Node[V]{bit: n.bit, left: n.left, right: split(n.right, leaf, d)}
}

// Delete returns the trie without key; deleting an absent key returns the
// original root pointer.
func Delete[V any](n *Node[V], key Key) *Node[V] {
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
		child := Delete(n.left, key)
		switch {
		case child == n.left:
			return n
		case child == nil:
			return n.right // branch collapses onto its sibling
		}
		return &Node[V]{bit: n.bit, left: child, right: n.right}
	}
	child := Delete(n.right, key)
	switch {
	case child == n.right:
		return n
	case child == nil:
		return n.left
	}
	return &Node[V]{bit: n.bit, left: n.left, right: child}
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
// The memo is the only write a node ever sees after construction, and it
// is not synchronised. The owner of a trie therefore sums it before the
// root becomes reachable from a second goroutine; from then on Sum on
// that root only reads.
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
