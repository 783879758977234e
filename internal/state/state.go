// Package state implements the account state of the SmartCrowd chain:
// balances (in gwei), nonces and contract storage. No account holds code:
// the one contract is Go-native (package contract) and keeps its state in
// the storage of contract.Address.
//
// The state is one persistent structure: a crit-bit trie (package
// critbit) from address to an account record, held by value in its leaf,
// whose storage is another such trie. A mutator reads a copy of the one
// record it touches, modifies it and writes it back. Root (and so Copy)
// is the DB's one freeze point: the first write after it path-copies what
// it touches, leaf included, so every root summed or shared there still
// describes the world as it was, and later writes until the next Root
// rewrite the nodes that copy made instead of copying them again — a
// block's transactions, which write the same sender, recipients and
// miner, share one set of paths, and rewrite their records in the leaves.
// RootUnfrozen sums without freezing, so the blocks of a chain import run
// share those paths too.
// Snapshot does not freeze: it marks an undo journal, every write while a
// snapshot is open journals its pre-image, and RevertToSnapshot writes
// those back in reverse. Copy is a pointer assignment — what fork
// execution and block building need, at O(1) — and the trie doubles as
// the commitment: Root sums it with the account and branch hashes, and
// each account's storage trie with the same node rule, re-hashing only
// the accounts and storage slots written since the previous Root plus
// their O(log n) paths.
package state

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"github.com/smartcrowd/smartcrowd/internal/critbit"
	"github.com/smartcrowd/smartcrowd/internal/crypto/keccak"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// account is the record for one address, held by value in its leaf of
// the account trie: mutators read a copy, modify it and write it back
// (put), which rewrites a leaf the DB's generation owns in place and
// path-copies any other.
type account struct {
	balance types.Amount
	nonce   uint64
	storage *critbit.Node[types.Hash, [32]byte]
	// slots counts storage's bindings: the snapshot record writes the
	// count before the slots.
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
	root *critbit.Node[account, [32]byte]
	// j is the undo journal, non-nil exactly while a snapshot is open.
	j *journal
	// gen is the critbit generation this DB's writes own, 0 from a freeze
	// point until the next write takes a fresh one (writeGen).
	gen uint32
}

// journal is the undo log behind Snapshot: the pre-image of every write
// made while a snapshot is open, and where each open snapshot starts in
// it. Journals are pooled, so a block's worth of entries is allocated
// once per process, not once per block.
type journal struct {
	accts []acctUndo
	slots []slotUndo
	marks []mark
}

// acctUndo is an account's balance and nonce before a write.
type acctUndo struct {
	addr    types.Address
	balance types.Amount
	nonce   uint64
}

// slotUndo is a storage slot's value before a write (zero: absent).
type slotUndo struct {
	addr      types.Address
	key, prev types.Hash
}

// mark is where a snapshot starts: the journal's lengths when it opened.
type mark struct{ accts, slots int }

var journals = sync.Pool{New: func() any { return new(journal) }}

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
	acc, _ := critbit.Get(db.root, trieKey(addr))
	return acc
}

// writeGen returns the generation this DB's writes use, taking a fresh
// one after a freeze point.
func (db *DB) writeGen() uint32 {
	if db.gen == 0 {
		db.gen = critbit.NewGen()
	}
	return db.gen
}

// logAccount journals acc as addr's pre-image when a snapshot is open.
func (db *DB) logAccount(addr types.Address, acc *account) {
	if db.j != nil {
		db.j.accts = append(db.j.accts, acctUndo{addr, acc.balance, acc.nonce})
	}
}

// put writes acc as addr's record; an empty record leaves the trie.
func (db *DB) put(addr types.Address, acc account) {
	if acc.empty() {
		db.root = critbit.Delete(db.root, trieKey(addr), db.writeGen())
		return
	}
	db.root = critbit.Set(db.root, trieKey(addr), acc, db.writeGen())
}

// Snapshot opens a revert point and returns its id. It marks the undo
// journal and freezes nothing, so the writes on either side of it share
// their path copies.
func (db *DB) Snapshot() int {
	if db.j == nil {
		db.j = journals.Get().(*journal)
	}
	db.j.marks = append(db.j.marks, mark{len(db.j.accts), len(db.j.slots)})
	return len(db.j.marks) - 1
}

// RevertToSnapshot undoes every mutation made after the snapshot was taken
// by writing the journaled pre-images back, newest first, through the
// ordinary write path; a crit-bit trie's shape is a function of its key
// set, so the result is the state (and root) the snapshot saw. It costs
// O(writes since the snapshot). Snapshots opened after id are discarded.
func (db *DB) RevertToSnapshot(id int) error {
	j := db.j
	if j == nil || id < 0 || id >= len(j.marks) {
		return fmt.Errorf("%w: %d", ErrBadSnapshot, id)
	}
	m := j.marks[id]
	db.j = nil // the write-backs are not journaled
	for i := len(j.slots) - 1; i >= m.slots; i-- {
		e := &j.slots[i]
		db.SetStorage(e.addr, e.key, e.prev)
	}
	for i := len(j.accts) - 1; i >= m.accts; i-- {
		e := &j.accts[i]
		acc := db.get(e.addr)
		acc.balance, acc.nonce = e.balance, e.nonce
		db.put(e.addr, acc)
	}
	j.accts, j.slots, j.marks = j.accts[:m.accts], j.slots[:m.slots], j.marks[:id]
	db.j = j
	if id == 0 {
		db.DiscardSnapshots()
	}
	return nil
}

// DiscardSnapshots commits all outstanding snapshots (keeps the
// mutations) and returns the journal to the pool. Called at block
// boundaries.
func (db *DB) DiscardSnapshots() {
	if j := db.j; j != nil {
		j.accts, j.slots, j.marks = j.accts[:0], j.slots[:0], j.marks[:0]
		journals.Put(j)
		db.j = nil
	}
}

// Balance returns the balance of addr (zero for unknown accounts).
func (db *DB) Balance(addr types.Address) types.Amount {
	return db.get(addr).balance
}

// Balances calls fn with every account's address and balance, in key
// order. The DB is only read.
func (db *DB) Balances(fn func(addr types.Address, balance types.Amount)) {
	critbit.Walk(db.root, func(k critbit.Key, acc account) {
		fn(types.Address(k[:len(types.Address{})]), acc.balance)
	})
}

// Nonce returns the next expected transaction nonce for addr.
func (db *DB) Nonce(addr types.Address) uint64 {
	return db.get(addr).nonce
}

// SetNonce sets the account nonce.
func (db *DB) SetNonce(addr types.Address, nonce uint64) {
	acc := db.get(addr)
	db.logAccount(addr, &acc)
	acc.nonce = nonce
	db.put(addr, acc)
}

// Credit adds value to addr's balance.
func (db *DB) Credit(addr types.Address, value types.Amount) error {
	acc := db.get(addr)
	if acc.balance+value < acc.balance {
		return fmt.Errorf("%w: %s", ErrBalanceOverflow, addr)
	}
	db.logAccount(addr, &acc)
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
	db.logAccount(addr, &acc)
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
	prev, had := critbit.Get(acc.storage, key)
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
	if db.j != nil {
		db.j.slots = append(db.j.slots, slotUndo{addr, key, prev})
	}
	db.put(addr, acc)
}

// Domain-separation tags for the commitment's node hashes.
const (
	trieTagLeaf   = 0x00
	trieTagBranch = 0x01
	trieTagEmpty  = 0x02
)

// emptyRoot commits to an empty trie: the state with no non-empty
// accounts, and the storage of an account that holds no slots.
var emptyRoot = types.HashBytes([]byte{trieTagEmpty})

// leafHash is the commitment's leaf rule, over a key (an address, or a
// storage slot key) and the 32 bytes bound to it.
func leafHash(key []byte, val types.Hash) [32]byte {
	var buf [1 + 32 + 32]byte
	buf[0] = trieTagLeaf
	n := 1 + copy(buf[1:], key)
	n += copy(buf[n:], val[:])
	return keccak.Sum256(buf[:n])
}

// branchHash is the commitment's branch rule, over a crit bit and the two
// child sums.
func branchHash(bit int16, left, right [32]byte) [32]byte {
	var buf [3 + 2*32]byte
	buf[0], buf[1], buf[2] = trieTagBranch, byte(bit>>8), byte(bit)
	copy(buf[3:], left[:])
	copy(buf[35:], right[:])
	return keccak.Sum256(buf[:])
}

// slotLeaf is the storage trie's leaf: leafHash over (slot key, value).
func slotLeaf(k critbit.Key, v types.Hash) [32]byte {
	return leafHash(k[:], v)
}

// storageRoot commits to an account's storage: the storage trie summed
// with the account trie's node rule, emptyRoot when it holds no slot. The
// sum is memoised in the trie, so only paths written since the last Root
// are hashed again.
func storageRoot(acc *account) types.Hash {
	if acc.storage == nil {
		return emptyRoot
	}
	return critbit.Sum(acc.storage, slotLeaf, branchHash)
}

// accountDigest commits to one account: address, balance, nonce and
// storage root — the value the commitment's account leaf binds.
func accountDigest(addr []byte, acc *account) types.Hash {
	var buf [wallet.AddressSize + 8 + 8 + types.HashSize]byte
	n := copy(buf[:], addr)
	binary.BigEndian.PutUint64(buf[n:], uint64(acc.balance))
	binary.BigEndian.PutUint64(buf[n+8:], acc.nonce)
	sr := storageRoot(acc)
	copy(buf[n+16:], sr[:])
	return keccak.Sum256(buf[:])
}

// Root computes the deterministic commitment to the entire state: the
// account trie summed with a leaf hash over (address, account digest) and
// a branch hash over (crit bit, left, right). Empty accounts are not in
// the trie. Only accounts and storage slots written since the previous
// Root() are re-hashed, so the cost is O(written · log size), not
// O(world state) and not O(slots of a written account). Root is the
// freeze point: the nodes written so far become read-only. Readers call
// Root on shared DBs concurrently, and a shared DB is already frozen, so
// Root writes the generation only when there is one to drop.
func (db *DB) Root() types.Hash {
	if db.gen != 0 {
		db.gen = 0
	}
	return db.RootUnfrozen()
}

// RootUnfrozen is Root without the freeze point: the DB keeps its
// generation, so the next write rewrites in place what the writes so far
// made, summed or not, and clears the memos on its path (critbit's rule
// 1). The chain's import run alone calls it, to hold each block of a run
// to its header's root while the next block writes on in the same
// generation; nothing may keep, copy or share the DB until a Root.
func (db *DB) RootUnfrozen() types.Hash {
	if db.root == nil {
		return emptyRoot
	}
	digested, hashed := uint64(0), false
	t0 := now()
	root := critbit.Sum(db.root,
		func(k critbit.Key, acc account) [32]byte {
			digested++
			addr := k[:wallet.AddressSize]
			return leafHash(addr, accountDigest(addr, &acc))
		},
		func(bit int16, left, right [32]byte) [32]byte {
			hashed = true
			return branchHash(bit, left, right)
		})
	// Clean roots are free and frequent; only rehash work is observed.
	if hashed || digested > 0 {
		mRootDirtyAccounts.Observe(digested)
		mRootNs.ObserveDuration(since(t0))
	}
	return root
}
