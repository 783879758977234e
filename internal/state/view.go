// Recording execution views for optimistic parallel transaction
// execution. A RecordingView is a copy-on-write overlay over a base DB
// that buffers every mutation privately and records which accounts the
// transaction read and wrote. The chain's parallel executor runs each
// transaction of a block against its own view concurrently (the base is
// only ever read), then commits the buffered writes in canonical
// transaction order, using the recorded sets to detect read-after-write
// and write-after-write conflicts with earlier transactions.
//
// Granularity is the account: a transaction that touches an address in
// any way (balance, nonce, code or any storage slot) conflicts with any
// earlier transaction that wrote that address. That is coarser than
// per-slot tracking but makes the conflict check a cheap set
// intersection, and SmartCrowd's dominant traffic (transfers, detector
// reports against per-detector commitments) is disjoint at exactly this
// granularity.
package state

import (
	"fmt"
	"sort"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// viewUndo journal entry kinds, mirroring the DB journal: field-level
// undos so snapshot/revert restores exactly the mutated fields.
const (
	vEnter   = iota // account entered the overlay; undo removes it
	vBalance        // undo restores prevAmount
	vNonce          // undo restores prevU64
	vCode           // undo restores prevCode
	vStorage        // undo restores key → prevVal (or deletes if !existed)
)

// viewUndo records how to undo one overlay mutation.
type viewUndo struct {
	kind       uint8
	addr       types.Address
	prevAmount types.Amount
	prevU64    uint64
	prevCode   []byte
	key        types.Hash
	prevVal    types.Hash
	existed    bool
}

// RecordingView overlays a base DB with private write buffers and
// read/write account tracking. It satisfies the same execution surface
// as *DB (the chain executor, the SCVM and the SmartCrowd contract all
// operate through interfaces both types implement).
//
// A view never mutates its base: reads fall through to the base's
// account records, the first write to an address clones the record into
// the overlay (storage maps copy-on-write, exactly like DB.Copy
// descendants). Concurrent views over one base are safe as long as the
// base itself is not mutated while they execute; CommitTo applies a
// view's buffered writes back to the base afterwards, serially.
type RecordingView struct {
	base *DB
	// accts holds the private clones of every written account.
	accts map[types.Address]*Account
	// reads and writes are the recorded conflict-detection sets. writes
	// is a superset of live overlay entries: a reverted write stays
	// recorded, which can only make conflict detection more conservative.
	reads     map[types.Address]struct{}
	writes    map[types.Address]struct{}
	journal   []viewUndo
	snapshots []int
}

// NewRecordingView creates an empty overlay over base. The base must not
// be mutated while the view executes; it may be shared read-only by any
// number of concurrent views.
func NewRecordingView(base *DB) *RecordingView {
	return &RecordingView{
		base:   base,
		accts:  make(map[types.Address]*Account),
		reads:  make(map[types.Address]struct{}),
		writes: make(map[types.Address]struct{}),
	}
}

// account resolves addr (overlay first, then base) and records the read.
func (v *RecordingView) account(addr types.Address) *Account {
	v.reads[addr] = struct{}{}
	if acc, ok := v.accts[addr]; ok {
		return acc
	}
	if acc, ok := v.base.accounts[addr]; ok {
		return acc
	}
	return nil
}

// mutable returns addr's private overlay account ready for mutation,
// cloning it from the base (or creating it) on first touch.
func (v *RecordingView) mutable(addr types.Address) *Account {
	v.writes[addr] = struct{}{}
	if acc, ok := v.accts[addr]; ok {
		return acc
	}
	var acc *Account
	if shared, ok := v.base.accounts[addr]; ok {
		acc = shared.shallowClone()
	} else {
		acc = &Account{}
	}
	v.accts[addr] = acc
	v.journal = append(v.journal, viewUndo{kind: vEnter, addr: addr})
	return acc
}

// Snapshot opens a revert point and returns its id.
func (v *RecordingView) Snapshot() int {
	v.snapshots = append(v.snapshots, len(v.journal))
	return len(v.snapshots) - 1
}

// RevertToSnapshot undoes every overlay mutation made after the snapshot
// was taken. The recorded read/write sets are intentionally NOT rolled
// back: a reverted touch still ordered this transaction against others,
// and keeping it only errs toward detecting more conflicts.
func (v *RecordingView) RevertToSnapshot(id int) error {
	if id < 0 || id >= len(v.snapshots) {
		return fmt.Errorf("%w: %d", ErrBadSnapshot, id)
	}
	target := v.snapshots[id]
	for len(v.journal) > target {
		e := v.journal[len(v.journal)-1]
		v.journal = v.journal[:len(v.journal)-1]
		switch e.kind {
		case vEnter:
			delete(v.accts, e.addr)
		case vBalance:
			v.accts[e.addr].Balance = e.prevAmount
		case vNonce:
			v.accts[e.addr].Nonce = e.prevU64
		case vCode:
			v.accts[e.addr].Code = e.prevCode
		case vStorage:
			acc := v.accts[e.addr]
			if e.existed {
				storageForWrite(acc)[e.key] = e.prevVal
			} else if acc.Storage != nil {
				delete(storageForWrite(acc), e.key)
			}
		}
	}
	v.snapshots = v.snapshots[:id]
	return nil
}

// Balance returns the balance of addr (zero for unknown accounts).
func (v *RecordingView) Balance(addr types.Address) types.Amount {
	if acc := v.account(addr); acc != nil {
		return acc.Balance
	}
	return 0
}

// Nonce returns the next expected transaction nonce for addr.
func (v *RecordingView) Nonce(addr types.Address) uint64 {
	if acc := v.account(addr); acc != nil {
		return acc.Nonce
	}
	return 0
}

// SetNonce sets the account nonce.
func (v *RecordingView) SetNonce(addr types.Address, nonce uint64) {
	acc := v.mutable(addr)
	v.journal = append(v.journal, viewUndo{kind: vNonce, addr: addr, prevU64: acc.Nonce})
	acc.Nonce = nonce
}

// Credit adds value to addr's balance.
func (v *RecordingView) Credit(addr types.Address, value types.Amount) error {
	acc := v.mutable(addr)
	if acc.Balance+value < acc.Balance {
		return fmt.Errorf("%w: %s", ErrBalanceOverflow, addr)
	}
	v.journal = append(v.journal, viewUndo{kind: vBalance, addr: addr, prevAmount: acc.Balance})
	acc.Balance += value
	return nil
}

// Debit removes value from addr's balance, failing without mutation if
// the balance is insufficient.
func (v *RecordingView) Debit(addr types.Address, value types.Amount) error {
	if v.Balance(addr) < value {
		return fmt.Errorf("%w: %s has %s, needs %s", ErrInsufficientBalance,
			addr, v.Balance(addr), value)
	}
	acc := v.mutable(addr)
	v.journal = append(v.journal, viewUndo{kind: vBalance, addr: addr, prevAmount: acc.Balance})
	acc.Balance -= value
	return nil
}

// Transfer moves value from one account to another atomically.
func (v *RecordingView) Transfer(from, to types.Address, value types.Amount) error {
	if err := v.Debit(from, value); err != nil {
		return err
	}
	return v.Credit(to, value)
}

// Code returns a copy of the contract code at addr (nil for plain
// accounts), mirroring DB.Code's defensive copy.
func (v *RecordingView) Code(addr types.Address) []byte {
	if acc := v.account(addr); acc != nil && acc.Code != nil {
		return append([]byte(nil), acc.Code...)
	}
	return nil
}

// SetCode installs contract code at addr.
func (v *RecordingView) SetCode(addr types.Address, code []byte) {
	acc := v.mutable(addr)
	v.journal = append(v.journal, viewUndo{kind: vCode, addr: addr, prevCode: acc.Code})
	acc.Code = append([]byte(nil), code...)
}

// GetStorage reads a contract storage slot.
func (v *RecordingView) GetStorage(addr types.Address, key types.Hash) types.Hash {
	if acc := v.account(addr); acc != nil && acc.Storage != nil {
		return acc.Storage[key]
	}
	return types.Hash{}
}

// SetStorage writes a contract storage slot. Writing the zero hash
// deletes the slot, exactly like DB.SetStorage.
func (v *RecordingView) SetStorage(addr types.Address, key, value types.Hash) {
	acc := v.mutable(addr)
	if value.IsZero() && len(acc.Storage) == 0 {
		return // deleting from empty storage: nothing to undo
	}
	st := storageForWrite(acc)
	prev, existed := st[key]
	v.journal = append(v.journal, viewUndo{
		kind: vStorage, addr: addr, key: key, prevVal: prev, existed: existed,
	})
	if value.IsZero() {
		delete(st, key)
		return
	}
	st[key] = value
}

// Touches reports whether any account this view read or wrote is in set
// — the conflict predicate against the union of earlier transactions'
// write sets (read-after-write and write-after-write alike).
func (v *RecordingView) Touches(set map[types.Address]struct{}) bool {
	if len(set) == 0 {
		return false
	}
	// Iterate the smaller side; both are pure membership tests, so map
	// order cannot leak into any output.
	if len(v.reads)+len(v.writes) <= len(set) {
		for addr := range v.reads {
			if _, ok := set[addr]; ok {
				return true
			}
		}
		for addr := range v.writes {
			if _, ok := set[addr]; ok {
				return true
			}
		}
		return false
	}
	for addr := range set {
		if _, ok := v.reads[addr]; ok {
			return true
		}
		if _, ok := v.writes[addr]; ok {
			return true
		}
	}
	return false
}

// AddWritesTo unions this view's write set into set (order-insensitive).
func (v *RecordingView) AddWritesTo(set map[types.Address]struct{}) {
	for addr := range v.writes {
		set[addr] = struct{}{}
	}
}

// CommitTo applies the view's buffered writes to db in deterministic
// address order. db is normally the view's own base after all concurrent
// views finished executing; accounts are installed through db's
// copy-on-write ownership path so epoch sharing and dirty tracking (for
// the incremental Root) stay exact. Field-level journal entries are not
// emitted: commits happen between transactions, outside any snapshot,
// and a failing block discards the whole working state.
func (v *RecordingView) CommitTo(db *DB) {
	addrs := make([]types.Address, 0, len(v.accts))
	for addr := range v.accts {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return lessAddr(addrs[i], addrs[j]) })
	for _, addr := range addrs {
		acc := v.accts[addr]
		dst := db.mutable(addr)
		dst.Balance = acc.Balance
		dst.Nonce = acc.Nonce
		dst.Code = acc.Code
		if !acc.storageShared && acc.Storage != nil {
			// The view wrote storage, so acc.Storage is a private full
			// copy of the base map plus the changes; the view is
			// discarded after commit, so the map moves wholesale.
			dst.Storage = acc.Storage
			dst.storageShared = false
		}
	}
}
