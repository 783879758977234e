// Package merkle implements the binary Merkle tree SmartCrowd blocks use to
// organize detection results (Fig. 2 of the paper: "block i contains ω_i
// detection results, organized based on the Merkle tree structure like the
// transaction organization in Bitcoin").
//
// Leaves are hashed with Keccak-256 under a leaf domain prefix, interior
// nodes under a node domain prefix (preventing second-preimage attacks that
// confuse leaves with interior nodes). An odd node at any level is paired
// with itself, Bitcoin-style.
package merkle

import (
	"errors"
	"fmt"

	"github.com/smartcrowd/smartcrowd/internal/crypto/keccak"
)

// HashSize is the size in bytes of tree hashes.
const HashSize = keccak.Size

// Domain prefixes for leaf and interior hashing.
const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// Hash is a Merkle tree hash.
type Hash = [HashSize]byte

// EmptyRoot is the root of a tree over zero leaves: the Keccak-256 of the
// empty string under the node prefix.
var EmptyRoot = keccak.Sum256Concat([]byte{nodePrefix})

// LeafHash hashes a single leaf payload.
func LeafHash(data []byte) Hash {
	return keccak.Sum256Concat([]byte{leafPrefix}, data)
}

// nodeHash combines two child hashes.
func nodeHash(left, right Hash) Hash {
	return keccak.Sum256Concat([]byte{nodePrefix}, left[:], right[:])
}

// Fold returns the root of the tree whose leaf hashes (LeafHash) are
// level, folding it in place: each level's nodes overwrite the front of
// the one below, so level is scratch afterwards and nothing is allocated.
func Fold(level []Hash) Hash {
	if len(level) == 0 {
		return EmptyRoot
	}
	for n := len(level); n > 1; n = (n + 1) / 2 {
		for i := 0; i < n; i += 2 {
			level[i/2] = nodeHash(level[i], level[min(i+1, n-1)]) // an odd node pairs with itself
		}
	}
	return level[0]
}

// ProofStep is one sibling hash on an inclusion path.
type ProofStep struct {
	Sibling Hash
	// Right reports whether the sibling sits to the right of the running
	// hash (i.e. the running hash is the left input).
	Right bool
}

// Proof is a Merkle inclusion proof for a single leaf.
type Proof struct {
	LeafIndex int
	LeafCount int
	Steps     []ProofStep
}

// ErrIndexOutOfRange is returned when a proof is requested for a leaf index
// beyond the tree.
var ErrIndexOutOfRange = errors.New("merkle: leaf index out of range")

// Prove builds an inclusion proof for leaves[index].
func Prove(leaves [][]byte, index int) (Proof, error) {
	if index < 0 || index >= len(leaves) {
		return Proof{}, fmt.Errorf("%w: index %d, %d leaves", ErrIndexOutOfRange, index, len(leaves))
	}
	level := make([]Hash, len(leaves))
	for i, l := range leaves {
		level[i] = LeafHash(l)
	}
	proof := Proof{LeafIndex: index, LeafCount: len(leaves)}
	pos := index
	for n := len(level); n > 1; n = (n + 1) / 2 {
		sib := min(pos^1, n-1) // an odd last node is its own sibling
		proof.Steps = append(proof.Steps, ProofStep{
			Sibling: level[sib],
			Right:   sib >= pos, // a duplicated node hashes as (h, h)
		})
		for i := 0; i < n; i += 2 { // Fold's step
			level[i/2] = nodeHash(level[i], level[min(i+1, n-1)])
		}
		pos /= 2
	}
	return proof, nil
}

// Verify checks that leaf data sits at the proof's position under root.
func Verify(root Hash, leaf []byte, proof Proof) bool {
	if proof.LeafCount <= 0 || proof.LeafIndex < 0 || proof.LeafIndex >= proof.LeafCount {
		return false
	}
	h := LeafHash(leaf)
	for _, step := range proof.Steps {
		if step.Right {
			h = nodeHash(h, step.Sibling)
		} else {
			h = nodeHash(step.Sibling, h)
		}
	}
	return h == root
}
