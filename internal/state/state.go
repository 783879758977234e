// Package state implements the account state of the SmartCrowd chain:
// balances (in gwei), nonces, contract code and contract storage, with a
// journal that supports cheap snapshot/revert — required both by the SCVM
// (failed calls revert their effects) and by chain reorganizations.
//
// Two properties make the hot paths cheap at scale:
//
//   - Copies are copy-on-write. DB.Copy clones only the address→account
//     pointer map; account records (and their code and storage) stay
//     shared and immutable until one side writes, at which point that
//     side clones the one account it is touching. Fork execution and
//     block building no longer deep-copy the world state per block.
//
//   - The root is incremental. Each non-empty account's digest lives in a
//     persistent commitment trie (trie.go); mutations mark the account
//     dirty and Root() rehashes only dirty accounts plus their O(log n)
//     trie paths instead of re-hashing every account and storage slot.
package state

import (
	"errors"
	"fmt"
	"sort"

	"github.com/smartcrowd/smartcrowd/internal/crypto/keccak"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// Account is the record for one address. Accounts reachable from more
// than one DB (after Copy) are treated as immutable; DB clones an account
// before its first mutation.
type Account struct {
	Balance types.Amount
	Nonce   uint64
	Code    []byte
	Storage map[types.Hash]types.Hash
	// storageShared marks Storage as referenced by another account record
	// (a clone ancestor); the map is copied before the first write.
	storageShared bool
}

// shallowClone copies the scalar fields and shares code and storage with
// the source. Code slices are never mutated in place (SetCode installs a
// fresh slice), so sharing them is safe unconditionally; the storage map
// is flagged for copy-on-write.
func (a *Account) shallowClone() *Account {
	return &Account{
		Balance:       a.Balance,
		Nonce:         a.Nonce,
		Code:          a.Code,
		Storage:       a.Storage,
		storageShared: a.Storage != nil,
	}
}

// empty reports whether the account holds no value, code or state and can
// be pruned from the root computation.
func (a *Account) empty() bool {
	return a.Balance == 0 && a.Nonce == 0 && len(a.Code) == 0 && len(a.Storage) == 0
}

// State errors.
var (
	ErrInsufficientBalance = errors.New("state: insufficient balance")
	ErrBalanceOverflow     = errors.New("state: balance overflow")
	ErrBadSnapshot         = errors.New("state: invalid snapshot id")
)

// Journal entry kinds. The journal records field-level undo actions, so a
// revert restores exactly the mutated fields instead of whole accounts.
const (
	jCreate  = iota // account created; undo deletes it
	jOwn            // shared account cloned for writing; undo restores the shared record
	jBalance        // undo restores prevAmount
	jNonce          // undo restores prevU64
	jCode           // undo restores prevCode
	jStorage        // undo restores key → prevVal (or deletes if !existed)
)

// journalEntry records how to undo one mutation.
type journalEntry struct {
	kind       uint8
	addr       types.Address
	prevAcc    *Account // jOwn
	prevAmount types.Amount
	prevU64    uint64
	prevCode   []byte
	key        types.Hash
	prevVal    types.Hash
	existed    bool
}

// DB is the in-memory account state. The zero value is not usable; call
// New. DB is not safe for concurrent use; each owner serializes access
// (the chain holds its write lock across Copy).
type DB struct {
	accounts map[types.Address]*Account
	// owned maps an address to the epoch in which this DB cloned (or
	// created) its account record. An account is writable in place only
	// when owned[addr] == epoch; Copy bumps epoch, disowning everything
	// at once without walking the map.
	owned map[types.Address]uint64
	epoch uint64
	// dirty holds addresses whose trie digest is stale.
	dirty map[types.Address]struct{}
	// trie is the persistent commitment trie over account digests,
	// current as of the last Root() minus the dirty set.
	trie      *trieNode
	journal   []journalEntry
	snapshots []int // journal lengths for open snapshots
}

// New creates an empty state.
func New() *DB {
	return &DB{
		accounts: make(map[types.Address]*Account),
		owned:    make(map[types.Address]uint64),
		epoch:    1,
		dirty:    make(map[types.Address]struct{}),
	}
}

// Copy returns a logically independent copy in O(accounts) pointer
// copies: account records, code, storage and the commitment trie are
// shared copy-on-write. Both sides may keep mutating; whichever side
// touches a shared account first clones just that account.
func (db *DB) Copy() *DB {
	// Disown every account: the source must also clone before its next
	// in-place write, since its records are now shared with the copy.
	db.epoch++
	cp := &DB{
		accounts: make(map[types.Address]*Account, len(db.accounts)),
		owned:    make(map[types.Address]uint64),
		epoch:    1,
		dirty:    make(map[types.Address]struct{}, len(db.dirty)),
		trie:     db.trie,
	}
	for addr, acc := range db.accounts {
		cp.accounts[addr] = acc
	}
	for addr := range db.dirty {
		cp.dirty[addr] = struct{}{}
	}
	return cp
}

// mutable returns addr's account ready for in-place mutation, creating or
// clone-on-touch copying it as needed, and marks it dirty for the next
// Root(). Every mutator goes through here before journaling field undos.
func (db *DB) mutable(addr types.Address) *Account {
	acc, ok := db.accounts[addr]
	switch {
	case !ok:
		acc = &Account{}
		db.accounts[addr] = acc
		db.owned[addr] = db.epoch
		db.journal = append(db.journal, journalEntry{kind: jCreate, addr: addr})
	case db.owned[addr] != db.epoch:
		shared := acc
		acc = shared.shallowClone()
		db.accounts[addr] = acc
		db.owned[addr] = db.epoch
		db.journal = append(db.journal, journalEntry{kind: jOwn, addr: addr, prevAcc: shared})
	}
	db.dirty[addr] = struct{}{}
	return acc
}

// undoTarget returns addr's account for a journal undo, re-cloning it if
// a Copy taken since the mutation left the record shared.
func (db *DB) undoTarget(addr types.Address) *Account {
	acc := db.accounts[addr]
	if db.owned[addr] != db.epoch {
		acc = acc.shallowClone()
		db.accounts[addr] = acc
		db.owned[addr] = db.epoch
	}
	return acc
}

// storageForWrite returns the account's storage map safe for writing,
// copying it first when it is still shared with a clone ancestor.
func storageForWrite(acc *Account) map[types.Hash]types.Hash {
	if acc.storageShared {
		m := make(map[types.Hash]types.Hash, len(acc.Storage))
		for k, v := range acc.Storage {
			m[k] = v
		}
		acc.Storage = m
		acc.storageShared = false
	}
	if acc.Storage == nil {
		acc.Storage = make(map[types.Hash]types.Hash)
	}
	return acc.Storage
}

// Snapshot opens a revert point and returns its id.
func (db *DB) Snapshot() int {
	db.snapshots = append(db.snapshots, len(db.journal))
	return len(db.snapshots) - 1
}

// RevertToSnapshot undoes every mutation made after the snapshot was taken.
// Snapshots opened after id are discarded.
func (db *DB) RevertToSnapshot(id int) error {
	if id < 0 || id >= len(db.snapshots) {
		return fmt.Errorf("%w: %d", ErrBadSnapshot, id)
	}
	target := db.snapshots[id]
	for len(db.journal) > target {
		e := db.journal[len(db.journal)-1]
		db.journal = db.journal[:len(db.journal)-1]
		switch e.kind {
		case jCreate:
			delete(db.accounts, e.addr)
			delete(db.owned, e.addr)
		case jOwn:
			db.accounts[e.addr] = e.prevAcc
			delete(db.owned, e.addr)
		case jBalance:
			db.undoTarget(e.addr).Balance = e.prevAmount
		case jNonce:
			db.undoTarget(e.addr).Nonce = e.prevU64
		case jCode:
			db.undoTarget(e.addr).Code = e.prevCode
		case jStorage:
			acc := db.undoTarget(e.addr)
			if e.existed {
				storageForWrite(acc)[e.key] = e.prevVal
			} else if acc.Storage != nil {
				delete(storageForWrite(acc), e.key)
			}
		}
		db.dirty[e.addr] = struct{}{}
	}
	db.snapshots = db.snapshots[:id]
	return nil
}

// DiscardSnapshots commits all outstanding snapshots (keeps the mutations)
// and clears the journal. Called at block boundaries.
func (db *DB) DiscardSnapshots() {
	db.journal = db.journal[:0]
	db.snapshots = db.snapshots[:0]
}

// Balance returns the balance of addr (zero for unknown accounts).
func (db *DB) Balance(addr types.Address) types.Amount {
	if acc, ok := db.accounts[addr]; ok {
		return acc.Balance
	}
	return 0
}

// Nonce returns the next expected transaction nonce for addr.
func (db *DB) Nonce(addr types.Address) uint64 {
	if acc, ok := db.accounts[addr]; ok {
		return acc.Nonce
	}
	return 0
}

// SetNonce sets the account nonce.
func (db *DB) SetNonce(addr types.Address, nonce uint64) {
	acc := db.mutable(addr)
	db.journal = append(db.journal, journalEntry{kind: jNonce, addr: addr, prevU64: acc.Nonce})
	acc.Nonce = nonce
}

// Credit adds value to addr's balance.
func (db *DB) Credit(addr types.Address, value types.Amount) error {
	acc := db.mutable(addr)
	if acc.Balance+value < acc.Balance {
		return fmt.Errorf("%w: %s", ErrBalanceOverflow, addr)
	}
	db.journal = append(db.journal, journalEntry{kind: jBalance, addr: addr, prevAmount: acc.Balance})
	acc.Balance += value
	return nil
}

// Debit removes value from addr's balance, failing without mutation if the
// balance is insufficient.
func (db *DB) Debit(addr types.Address, value types.Amount) error {
	if db.Balance(addr) < value {
		return fmt.Errorf("%w: %s has %s, needs %s", ErrInsufficientBalance,
			addr, db.Balance(addr), value)
	}
	acc := db.mutable(addr)
	db.journal = append(db.journal, journalEntry{kind: jBalance, addr: addr, prevAmount: acc.Balance})
	acc.Balance -= value
	return nil
}

// Transfer moves value from one account to another atomically.
func (db *DB) Transfer(from, to types.Address, value types.Amount) error {
	if err := db.Debit(from, value); err != nil {
		return err
	}
	return db.Credit(to, value)
}

// Code returns a copy of the contract code at addr (nil for plain
// accounts). Copying keeps callers from mutating consensus state.
func (db *DB) Code(addr types.Address) []byte {
	if acc, ok := db.accounts[addr]; ok && acc.Code != nil {
		return append([]byte(nil), acc.Code...)
	}
	return nil
}

// SetCode installs contract code at addr.
func (db *DB) SetCode(addr types.Address, code []byte) {
	acc := db.mutable(addr)
	db.journal = append(db.journal, journalEntry{kind: jCode, addr: addr, prevCode: acc.Code})
	acc.Code = append([]byte(nil), code...)
}

// GetStorage reads a contract storage slot.
func (db *DB) GetStorage(addr types.Address, key types.Hash) types.Hash {
	if acc, ok := db.accounts[addr]; ok && acc.Storage != nil {
		return acc.Storage[key]
	}
	return types.Hash{}
}

// SetStorage writes a contract storage slot. Writing the zero hash deletes
// the slot.
func (db *DB) SetStorage(addr types.Address, key, value types.Hash) {
	acc := db.mutable(addr)
	if value.IsZero() && len(acc.Storage) == 0 {
		return // deleting from empty storage: nothing to undo
	}
	st := storageForWrite(acc)
	prev, existed := st[key]
	db.journal = append(db.journal, journalEntry{
		kind: jStorage, addr: addr, key: key, prevVal: prev, existed: existed,
	})
	if value.IsZero() {
		delete(st, key)
		return
	}
	st[key] = value
}

// Accounts returns all non-empty addresses in deterministic order.
func (db *DB) Accounts() []types.Address {
	out := make([]types.Address, 0, len(db.accounts))
	for addr, acc := range db.accounts {
		if !acc.empty() {
			out = append(out, addr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return lessAddr(out[i], out[j]) })
	return out
}

func lessAddr(a, b types.Address) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// accountDigest commits to one account: address, balance, nonce, code
// hash and the sorted storage slots — the per-account serialization the
// commitment trie stores at its leaves.
func accountDigest(addr types.Address, acc *Account) types.Hash {
	h := keccak.Get256()
	defer keccak.Put(h)
	var u64 [8]byte
	writeU64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			u64[i] = byte(v >> (56 - 8*i))
		}
		_, _ = h.Write(u64[:])
	}
	_, _ = h.Write(addr[:])
	writeU64(uint64(acc.Balance))
	writeU64(acc.Nonce)
	codeHash := keccak.Sum256(acc.Code)
	_, _ = h.Write(codeHash[:])
	keys := make([]types.Hash, 0, len(acc.Storage))
	for k := range acc.Storage {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return lessHash(keys[i], keys[j]) })
	writeU64(uint64(len(keys)))
	for _, k := range keys {
		v := acc.Storage[k]
		_, _ = h.Write(k[:])
		_, _ = h.Write(v[:])
	}
	var d types.Hash
	copy(d[:], h.Sum(nil))
	return d
}

// Root computes the deterministic commitment to the entire state: the
// root of the crit-bit trie over per-account digests (empty accounts are
// excluded). Only accounts touched since the previous Root() are
// re-hashed, so the cost is O(dirty · log accounts), not O(world state).
func (db *DB) Root() types.Hash {
	if n := len(db.dirty); n > 0 {
		// Clean roots are free and frequent; only rehash work is observed.
		mRootDirtyAccounts.Observe(uint64(n))
		t0 := now()
		defer func() { mRootNs.ObserveDuration(since(t0)) }()
	}
	for addr := range db.dirty {
		if acc, ok := db.accounts[addr]; ok && !acc.empty() {
			db.trie = trieUpsert(db.trie, addr, accountDigest(addr, acc))
		} else {
			db.trie = trieDelete(db.trie, addr)
		}
	}
	clear(db.dirty)
	if db.trie == nil {
		return emptyStateRoot
	}
	return db.trie.hash
}

func lessHash(a, b types.Hash) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
