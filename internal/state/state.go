// Package state implements the account state of the SmartCrowd chain:
// balances (in gwei), nonces and contract storage. No account holds code:
// the one contract is Go-native (package contract) and keeps its state in
// the storage of contract.Address.
//
// The state is one persistent structure: a crit-bit trie (package
// critbit) from address to an immutable account record, whose storage is
// another such trie. A mutator builds a modified copy of the one record
// it touches and installs it in the trie. Snapshot, RevertToSnapshot and
// Root (and so Copy) are the DB's freeze points: the first write after
// one path-copies what it touches, so every root saved or shared at a
// freeze point still describes the world as it was, and later writes
// until the next freeze point rewrite the nodes that copy made instead of
// copying them again — a transaction's five writes to three accounts cost
// about three paths, not five. Copy, Snapshot and RevertToSnapshot stay
// pointer assignments — what failed transactions (which revert), fork
// execution and block building need, at O(1) — and the trie doubles as
// the commitment: Root sums it with the account and branch hashes,
// re-hashing only the accounts written since the previous Root plus their
// O(log n) paths.
package state

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/smartcrowd/smartcrowd/internal/critbit"
	"github.com/smartcrowd/smartcrowd/internal/crypto/keccak"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// account is the record for one address. Records are immutable once
// installed in a trie: mutators copy, modify and reinstall.
type account struct {
	balance types.Amount
	nonce   uint64
	storage *critbit.Node[types.Hash]
	// slots counts storage's bindings: the account digest and the snapshot
	// record both write the count before the slots.
	slots uint32
}

// empty reports whether the account holds no value or state. Empty
// accounts are not kept in the trie.
func (a *account) empty() bool {
	return a.balance == 0 && a.nonce == 0 && a.slots == 0
}

// State errors.
var (
	ErrInsufficientBalance = errors.New("state: insufficient balance")
	ErrBalanceOverflow     = errors.New("state: balance overflow")
	ErrBadSnapshot         = errors.New("state: invalid snapshot id")
)

// DB is the in-memory account state. A DB is not safe for concurrent
// mutation, but a DB that is only read — accessors, Root, Serialize, Copy
// — may be shared by any number of goroutines once Root has been called
// on it (see Copy).
type DB struct {
	root *critbit.Node[*account]
	// saved holds the root as of each open snapshot.
	saved []*critbit.Node[*account]
	// gen is the critbit generation this DB's writes own, 0 from a freeze
	// point until the next write takes a fresh one (writeGen).
	gen uint32
}

// New creates an empty state.
func New() *DB {
	return &DB{}
}

// Copy returns an independent state sharing this one's trie: O(1), and
// whichever side writes next path-copies only what it touches.
//
// Copy is where a trie becomes reachable from a second DB, and so from a
// second goroutine, so it is where critbit's two rules are enforced: Root
// sums the trie and freezes this DB, after which neither side ever writes
// to a shared node again.
func (db *DB) Copy() *DB {
	db.Root()
	return &DB{root: db.root}
}

// trieKey right-pads an address to the trie's key width.
func trieKey(addr types.Address) (k critbit.Key) {
	copy(k[:], addr[:])
	return k
}

// get returns a copy of addr's record, the zero record when absent.
// Mutators modify the copy and hand it to put.
func (db *DB) get(addr types.Address) account {
	if acc, ok := critbit.Get(db.root, trieKey(addr)); ok {
		return *acc
	}
	return account{}
}

// writeGen returns the generation this DB's writes use, taking a fresh
// one after a freeze point.
func (db *DB) writeGen() uint32 {
	if db.gen == 0 {
		db.gen = critbit.NewGen()
	}
	return db.gen
}

// freeze is a freeze point: the nodes written so far become read-only.
// Readers call Root on shared DBs concurrently, and a shared DB is
// already frozen, so freeze writes only when there is a generation to
// drop.
func (db *DB) freeze() {
	if db.gen != 0 {
		db.gen = 0
	}
}

// put installs acc as addr's record; an empty record leaves the trie.
func (db *DB) put(addr types.Address, acc account) {
	if acc.empty() {
		db.root = critbit.Delete(db.root, trieKey(addr), db.writeGen())
		return
	}
	db.root = critbit.Set(db.root, trieKey(addr), &acc, db.writeGen())
}

// Snapshot opens a revert point and returns its id. It is a freeze point.
func (db *DB) Snapshot() int {
	db.freeze()
	db.saved = append(db.saved, db.root)
	return len(db.saved) - 1
}

// RevertToSnapshot undoes every mutation made after the snapshot was taken.
// Snapshots opened after id are discarded. It is a freeze point.
func (db *DB) RevertToSnapshot(id int) error {
	if id < 0 || id >= len(db.saved) {
		return fmt.Errorf("%w: %d", ErrBadSnapshot, id)
	}
	db.freeze()
	db.root = db.saved[id]
	db.saved = db.saved[:id]
	return nil
}

// DiscardSnapshots commits all outstanding snapshots (keeps the
// mutations). Called at block boundaries.
func (db *DB) DiscardSnapshots() {
	clear(db.saved) // drop the references so superseded nodes can be collected
	db.saved = db.saved[:0]
}

// Balance returns the balance of addr (zero for unknown accounts).
func (db *DB) Balance(addr types.Address) types.Amount {
	return db.get(addr).balance
}

// Nonce returns the next expected transaction nonce for addr.
func (db *DB) Nonce(addr types.Address) uint64 {
	return db.get(addr).nonce
}

// SetNonce sets the account nonce.
func (db *DB) SetNonce(addr types.Address, nonce uint64) {
	acc := db.get(addr)
	acc.nonce = nonce
	db.put(addr, acc)
}

// Credit adds value to addr's balance.
func (db *DB) Credit(addr types.Address, value types.Amount) error {
	acc := db.get(addr)
	if acc.balance+value < acc.balance {
		return fmt.Errorf("%w: %s", ErrBalanceOverflow, addr)
	}
	acc.balance += value
	db.put(addr, acc)
	return nil
}

// Debit removes value from addr's balance, failing without mutation if the
// balance is insufficient.
func (db *DB) Debit(addr types.Address, value types.Amount) error {
	acc := db.get(addr)
	if acc.balance < value {
		return fmt.Errorf("%w: %s has %s, needs %s", ErrInsufficientBalance,
			addr, acc.balance, value)
	}
	acc.balance -= value
	db.put(addr, acc)
	return nil
}

// Transfer moves value from one account to another atomically.
func (db *DB) Transfer(from, to types.Address, value types.Amount) error {
	if err := db.Debit(from, value); err != nil {
		return err
	}
	return db.Credit(to, value)
}

// GetStorage reads a contract storage slot.
func (db *DB) GetStorage(addr types.Address, key types.Hash) types.Hash {
	v, _ := critbit.Get(db.get(addr).storage, key)
	return v
}

// SetStorage writes a contract storage slot. Writing the zero hash deletes
// the slot.
func (db *DB) SetStorage(addr types.Address, key, value types.Hash) {
	acc := db.get(addr)
	_, had := critbit.Get(acc.storage, key)
	switch {
	case !value.IsZero():
		acc.storage = critbit.Set(acc.storage, key, value, db.writeGen())
		if !had {
			acc.slots++
		}
	case had:
		acc.storage = critbit.Delete(acc.storage, key, db.writeGen())
		acc.slots--
	default:
		return // deleting an absent slot
	}
	db.put(addr, acc)
}

// Domain-separation tags for the commitment's node hashes.
const (
	trieTagLeaf   = 0x00
	trieTagBranch = 0x01
	trieTagEmpty  = 0x02
)

// emptyStateRoot commits to the state with no non-empty accounts.
var emptyStateRoot = types.HashBytes([]byte{trieTagEmpty})

// emptyCodeHash is the code hash every account digest carries, c5d2…a470.
// No account holds code; the field stays so that every root is the one an
// account without code has always had.
var emptyCodeHash = keccak.Sum256(nil)

// accountDigest commits to one account: address, balance, nonce, the
// empty code hash and the storage slots in key order — the per-account
// serialization the commitment hashes into its leaves.
func accountDigest(addr []byte, acc *account) types.Hash {
	h := keccak.Get256()
	defer keccak.Put(h)
	var buf [2 * types.HashSize]byte
	writeU64 := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:8], v)
		_, _ = h.Write(buf[:8])
	}
	_, _ = h.Write(addr)
	writeU64(uint64(acc.balance))
	writeU64(acc.nonce)
	_, _ = h.Write(emptyCodeHash[:])
	writeU64(uint64(acc.slots))
	critbit.Walk(acc.storage, func(k critbit.Key, v types.Hash) {
		copy(buf[:types.HashSize], k[:])
		copy(buf[types.HashSize:], v[:])
		_, _ = h.Write(buf[:])
	})
	return keccak.Finalize256(h)
}

// Root computes the deterministic commitment to the entire state: the
// account trie summed with a leaf hash over (address, account digest) and
// a branch hash over (crit bit, left, right). Empty accounts are not in
// the trie. Only accounts written since the previous Root() are
// re-hashed, so the cost is O(written · log accounts), not O(world state).
// Root is a freeze point.
func (db *DB) Root() types.Hash {
	db.freeze()
	if db.root == nil {
		return emptyStateRoot
	}
	digested, hashed := uint64(0), false
	t0 := now()
	root := critbit.Sum(db.root,
		func(k critbit.Key, acc *account) [32]byte {
			digested++
			addr := k[:wallet.AddressSize]
			digest := accountDigest(addr, acc)
			return keccak.Sum256Concat([]byte{trieTagLeaf}, addr, digest[:])
		},
		func(bit int16, left, right [32]byte) [32]byte {
			hashed = true
			return keccak.Sum256Concat([]byte{trieTagBranch, byte(bit >> 8), byte(bit)}, left[:], right[:])
		})
	// Clean roots are free and frequent; only rehash work is observed.
	if hashed || digested > 0 {
		mRootDirtyAccounts.Observe(digested)
		mRootNs.ObserveDuration(since(t0))
	}
	return root
}
