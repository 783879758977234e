package state

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/crypto/keccak"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// referenceRoot recomputes the state commitment from scratch, from the
// DB's snapshot bytes alone: modelRoot over the accounts and slots
// Serialize lists.
func referenceRoot(db *DB) types.Hash {
	blob := db.Serialize()
	accounts := make(map[types.Address]*modelAcct)
	off := 4 + 1 + 8
	for i := binary.BigEndian.Uint64(blob[5:13]); i > 0; i-- {
		var a types.Address
		copy(a[:], blob[off:])
		acc := &modelAcct{
			balance: types.Amount(binary.BigEndian.Uint64(blob[off+20:])),
			nonce:   binary.BigEndian.Uint64(blob[off+28:]),
			storage: make(map[types.Hash]types.Hash),
		}
		off += 20 + 8 + 8 + 4
		slots := int(binary.BigEndian.Uint32(blob[off:]))
		off += 4
		for ; slots > 0; slots-- {
			acc.storage[types.Hash(blob[off:off+32])] = types.Hash(blob[off+32 : off+64])
			off += 64
		}
		accounts[a] = acc
	}
	return modelRoot(accounts)
}

// modelRoot is the commitment the state root format defines, built from
// plain maps: every non-empty account in sorted order, each storage root
// from its sorted slots, and both tries built recursively from the sorted
// keys. It shares no code with the incremental path (critbit's path
// copies and memoised Sum, the DB's node hashes), so agreement across
// random histories is strong evidence the incremental root equals a full
// rehash.
func modelRoot(accounts map[types.Address]*modelAcct) types.Hash {
	var keys [][]byte
	for a, acc := range accounts {
		if acc.balance != 0 || acc.nonce != 0 || len(acc.storage) > 0 {
			keys = append(keys, append([]byte(nil), a[:]...))
		}
	}
	return refTrie(keys, func(addr []byte) []byte {
		acc := accounts[types.Address(addr)]
		var slots [][]byte
		for k := range acc.storage {
			slots = append(slots, append([]byte(nil), k[:]...))
		}
		storageRoot := refTrie(slots, func(k []byte) []byte {
			v := acc.storage[types.Hash(k)]
			return v[:]
		})
		h := keccak.New256()
		_, _ = h.Write(addr)
		_ = binary.Write(h, binary.BigEndian, uint64(acc.balance))
		_ = binary.Write(h, binary.BigEndian, acc.nonce)
		_, _ = h.Write(storageRoot[:])
		return h.Sum(nil)
	})
}

// refTrie is the crit-bit commitment over a key set: keccak(0x02) when
// empty, otherwise the keys sorted and split recursively.
func refTrie(keys [][]byte, value func(key []byte) []byte) types.Hash {
	if len(keys) == 0 {
		return types.HashBytes([]byte{0x02})
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	return refBuild(keys, value)
}

func refBuild(keys [][]byte, value func(key []byte) []byte) types.Hash {
	h := keccak.New256()
	if len(keys) == 1 {
		_, _ = h.Write([]byte{0x00})
		_, _ = h.Write(keys[0])
		_, _ = h.Write(value(keys[0]))
		return types.Hash(h.Sum(nil))
	}
	// The branch bit is the first bit on which the sorted group disagrees
	// — i.e. the first differing bit of its extremes. Sorted order means
	// the group splits into a bit-0 prefix and a bit-1 suffix.
	lo, hi := keys[0], keys[len(keys)-1]
	d := 0
	for refBit(lo, d) == refBit(hi, d) {
		d++
	}
	split := sort.Search(len(keys), func(i int) bool { return refBit(keys[i], d) == 1 })
	left := refBuild(keys[:split], value)
	right := refBuild(keys[split:], value)
	_, _ = h.Write([]byte{0x01, byte(d >> 8), byte(d)})
	_, _ = h.Write(left[:])
	_, _ = h.Write(right[:])
	return types.Hash(h.Sum(nil))
}

// refBit returns bit i of k, most significant bit of k[0] first.
func refBit(k []byte, i int) byte {
	return k[i/8] >> (7 - i%8) & 1
}

// modelAcct is the naive shadow model of one account.
type modelAcct struct {
	balance types.Amount
	nonce   uint64
	storage map[types.Hash]types.Hash
}

func (m *modelAcct) clone() *modelAcct {
	cp := &modelAcct{balance: m.balance, nonce: m.nonce}
	cp.storage = make(map[types.Hash]types.Hash, len(m.storage))
	for k, v := range m.storage {
		cp.storage[k] = v
	}
	return cp
}

// model shadows a DB with eager deep copies: snapshots store the whole
// world, so its revert semantics are trivially correct.
type model struct {
	accounts  map[types.Address]*modelAcct
	snapshots []map[types.Address]*modelAcct
}

func newModel() *model {
	return &model{accounts: make(map[types.Address]*modelAcct)}
}

func (m *model) clone() map[types.Address]*modelAcct {
	cp := make(map[types.Address]*modelAcct, len(m.accounts))
	for a, acc := range m.accounts {
		cp[a] = acc.clone()
	}
	return cp
}

func (m *model) copyModel() *model {
	return &model{accounts: m.clone()}
}

func (m *model) get(a types.Address) *modelAcct {
	acc, ok := m.accounts[a]
	if !ok {
		acc = &modelAcct{storage: make(map[types.Hash]types.Hash)}
		m.accounts[a] = acc
	}
	return acc
}

// checkAgainst compares the DB with the model field by field, plus the
// incremental root against the reference rebuild.
func checkAgainst(t *testing.T, step int, db *DB, m *model) {
	t.Helper()
	for a, acc := range m.accounts {
		if got := db.Balance(a); got != acc.balance {
			t.Fatalf("step %d: balance[%s] = %d, model %d", step, a, got, acc.balance)
		}
		if got := db.Nonce(a); got != acc.nonce {
			t.Fatalf("step %d: nonce[%s] = %d, model %d", step, a, got, acc.nonce)
		}
		for k, v := range acc.storage {
			if got := db.GetStorage(a, k); got != v {
				t.Fatalf("step %d: storage[%s][%s] = %s, model %s", step, a, k.Short(), got.Short(), v.Short())
			}
		}
	}
	if got, want := db.Root(), modelRoot(m.accounts); got != want {
		t.Fatalf("step %d: incremental root %s != model root %s", step, got.Short(), want.Short())
	}
	if got, want := db.Root(), referenceRoot(db); got != want {
		t.Fatalf("step %d: incremental root %s != reference root %s", step, got.Short(), want.Short())
	}
}

// TestRootMatchesReferenceUnderRandomHistories drives long random
// mutate/snapshot/revert/copy/root sequences — snapshots nest, and Roots
// and Copies land between a Snapshot and its revert — against both the
// CoW DB and a naive deep-copy model and requires (a) identical
// observable state, (b) the incrementally maintained Root to equal the
// from-scratch reference root at every checkpoint, (c) a revert to
// restore the exact bytes the state serialized to when its snapshot was
// taken, and (d) every copied root to still serialize to the bytes it
// serialized to when it was taken — the writes after a freeze point,
// the journal's write-backs included, rewrite only nodes made since.
func TestRootMatchesReferenceUnderRandomHistories(t *testing.T) {
	universe := make([]types.Address, 12)
	for i := range universe {
		h := types.HashBytes([]byte{byte(i), 0xA7})
		copy(universe[i][:], h[:20])
	}
	// Storage goes to a few accounts over many keys, so their storage
	// tries grow deep enough for path copies and partial re-sums.
	contracts := universe[:3]
	keys := make([]types.Hash, 40)
	for i := range keys {
		keys[i] = types.HashBytes([]byte{0x55, byte(i)})
	}

	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			db := New()
			m := newModel()
			// held keeps the most recent forks alive, so a fork taken
			// between a Snapshot and its Revert is re-checked after the
			// original has reverted past the point it was taken.
			type fork struct {
				db *DB
				m  *model
			}
			var held []fork
			// saved holds what the state serialized to as each open
			// snapshot was taken; copied pairs each recent copy with the
			// bytes it serialized to when taken.
			type taken struct {
				root  *DB
				bytes []byte
			}
			var saved [][]byte
			var copied []taken
			for step := 0; step < 600; step++ {
				a := universe[rng.Intn(len(universe))]
				op := rng.Intn(13)
				switch op {
				case 0, 1, 2: // credit
					v := types.Amount(rng.Intn(1000))
					if db.Credit(a, v) == nil {
						m.get(a).balance += v
					}
				case 3, 4: // debit
					v := types.Amount(rng.Intn(1000))
					if db.Debit(a, v) == nil {
						m.get(a).balance -= v
					}
				case 5, 6: // nonce
					n := rng.Uint64() % 50
					db.SetNonce(a, n)
					m.get(a).nonce = n
				case 7, 8: // storage write (zero value deletes)
					a := contracts[rng.Intn(len(contracts))]
					k := keys[rng.Intn(len(keys))]
					var v types.Hash
					if rng.Intn(3) != 0 {
						v = types.HashBytes([]byte{byte(rng.Intn(5))})
					}
					db.SetStorage(a, k, v)
					if v.IsZero() {
						delete(m.get(a).storage, k)
					} else {
						m.get(a).storage[k] = v
					}
				case 9: // snapshot
					id := db.Snapshot()
					if id != len(m.snapshots) {
						t.Fatalf("step %d: snapshot id %d, model expects %d", step, id, len(m.snapshots))
					}
					m.snapshots = append(m.snapshots, m.clone())
					saved = append(saved, db.Serialize())
				case 10: // revert to a random open snapshot
					if len(m.snapshots) == 0 {
						continue
					}
					id := rng.Intn(len(m.snapshots))
					if err := db.RevertToSnapshot(id); err != nil {
						t.Fatalf("step %d: revert: %v", step, err)
					}
					m.accounts = m.snapshots[id]
					m.snapshots = m.snapshots[:id]
					if !bytes.Equal(db.Serialize(), saved[id]) {
						t.Fatalf("step %d: reverting to snapshot %d did not restore its bytes", step, id)
					}
					saved = saved[:id]
				case 11: // copy: fork both sides, mutate the fork, then
					// verify isolation in both directions
					cp := db.Copy()
					cpm := m.copyModel()
					if copied = append(copied, taken{&DB{root: cp.root}, cp.Serialize()}); len(copied) > 8 {
						copied = copied[1:]
					}
					for i := 0; i < 8; i++ {
						b := universe[rng.Intn(len(universe))]
						switch rng.Intn(3) {
						case 0:
							v := types.Amount(rng.Intn(500))
							if cp.Credit(b, v) == nil {
								cpm.get(b).balance += v
							}
						case 1:
							b = contracts[rng.Intn(len(contracts))]
							k := keys[rng.Intn(len(keys))]
							var v types.Hash
							if rng.Intn(3) != 0 {
								v = types.HashBytes([]byte{0xCC, byte(i)})
							}
							cp.SetStorage(b, k, v)
							if v.IsZero() {
								delete(cpm.get(b).storage, k)
							} else {
								cpm.get(b).storage[k] = v
							}
						case 2:
							n := uint64(100 + i)
							cp.SetNonce(b, n)
							cpm.get(b).nonce = n
						}
					}
					checkAgainst(t, step, cp, cpm)
					// Mutating the copy must not have leaked anywhere.
					checkAgainst(t, step, db, m)
					if held = append(held, fork{cp, cpm}); len(held) > 4 {
						held = held[1:]
					}
				case 12: // root inside whatever snapshots are open: the
					// writes and write-backs after it must path-copy
					if got, want := db.Root(), modelRoot(m.accounts); got != want {
						t.Fatalf("step %d: root %s, model %s", step, got.Short(), want.Short())
					}
				}
				for i, tk := range copied {
					if !bytes.Equal(tk.root.Serialize(), tk.bytes) {
						t.Fatalf("step %d: copied root %d no longer serializes as it did when taken", step, i)
					}
				}
				if step%37 == 0 || op == 10 {
					checkAgainst(t, step, db, m)
					for _, f := range held {
						checkAgainst(t, step, f.db, f.m)
					}
				}
			}
			db.DiscardSnapshots()
			m.snapshots = nil
			checkAgainst(t, -1, db, m)
		})
	}
}

// TestCopyOriginalKeepsMutatingSafely covers the direction the seed's
// deep copy got for free and CoW must earn: mutating the ORIGINAL after
// taking a copy must not leak into the copy.
func TestCopyOriginalKeepsMutatingSafely(t *testing.T) {
	db := New()
	a := addr("a")
	k := types.HashBytes([]byte("k"))
	_ = db.Credit(a, 100)
	db.SetStorage(a, k, types.HashBytes([]byte("v1")))
	db.SetNonce(a, 1)
	wantRoot := db.Root()

	cp := db.Copy()
	_ = db.Credit(a, 900)
	db.SetStorage(a, k, types.HashBytes([]byte("v2")))
	db.SetNonce(a, 2)

	if cp.Balance(a) != 100 {
		t.Error("original mutation leaked balance into copy")
	}
	if cp.GetStorage(a, k) != types.HashBytes([]byte("v1")) {
		t.Error("original mutation leaked storage into copy")
	}
	if cp.Nonce(a) != 1 {
		t.Error("original mutation leaked nonce into copy")
	}
	if cp.Root() != wantRoot {
		t.Error("copy root drifted after original mutated")
	}
	if db.Root() == wantRoot {
		t.Error("original root failed to change")
	}
}

// TestRevertAfterCopyDoesNotCorruptCopy reverts the original past the
// point where a copy was taken: the undo path must clone-on-write rather
// than mutate records the copy still references.
func TestRevertAfterCopyDoesNotCorruptCopy(t *testing.T) {
	db := New()
	a, b := addr("a"), addr("b")
	k := types.HashBytes([]byte("k"))
	_ = db.Credit(a, 50)
	snap := db.Snapshot()
	_ = db.Transfer(a, b, 20)
	db.SetStorage(b, k, types.HashBytes([]byte("v")))

	cp := db.Copy() // sees the post-transfer world
	if err := db.RevertToSnapshot(snap); err != nil {
		t.Fatal(err)
	}

	if db.Balance(a) != 50 || db.Balance(b) != 0 {
		t.Error("revert did not restore the original")
	}
	if cp.Balance(a) != 30 || cp.Balance(b) != 20 {
		t.Error("reverting the original corrupted the copy")
	}
	if cp.GetStorage(b, k) != types.HashBytes([]byte("v")) {
		t.Error("reverting the original corrupted the copy's storage")
	}
	if got, want := cp.Root(), referenceRoot(cp); got != want {
		t.Errorf("copy root %s != reference %s after original revert", got.Short(), want.Short())
	}
	if got, want := db.Root(), referenceRoot(db); got != want {
		t.Errorf("original root %s != reference %s after revert", got.Short(), want.Short())
	}
}

// TestCopyChains exercises grandchild copies: each generation mutates a
// shared account and all generations must stay isolated.
func TestCopyChains(t *testing.T) {
	db := New()
	a := addr("a")
	_ = db.Credit(a, 1)
	c1 := db.Copy()
	c2 := c1.Copy()
	c3 := c2.Copy()
	_ = c1.Credit(a, 10)
	_ = c2.Credit(a, 100)
	_ = c3.Credit(a, 1000)
	_ = db.Credit(a, 10000)

	for i, tc := range []struct {
		db   *DB
		want types.Amount
	}{{db, 10001}, {c1, 11}, {c2, 101}, {c3, 1001}} {
		if got := tc.db.Balance(a); got != tc.want {
			t.Errorf("gen %d balance = %d, want %d", i, got, tc.want)
		}
		if got, want := tc.db.Root(), referenceRoot(tc.db); got != want {
			t.Errorf("gen %d root %s != reference %s", i, got.Short(), want.Short())
		}
	}
}

// FuzzStateRootDifferential runs a byte-driven sequence of SetStorage,
// Credit, Snapshot, RevertToSnapshot, Copy and Root against the deep-copy
// model, and requires every Root to equal modelRoot over the model's maps
// and every revert to restore the bytes its snapshot saw. Op 6 continues
// on a copy; op 7 forks one off and keeps writing the original, whose
// open snapshots the fork's Root does not close, and the fork must still
// serialize as it did when taken after the original reverts past it.
// Each op takes three bytes: the op, an account (of four) or snapshot
// choice, and a slot (of sixteen) with the value in its high nibble, 0
// deleting.
func FuzzStateRootDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0x11, 0, 0, 0x22, 5, 0, 0})
	f.Add([]byte{0, 1, 0x13, 3, 0, 0, 0, 1, 0x03, 1, 1, 0x40, 4, 0, 0, 5, 0, 0})
	f.Add([]byte{2, 2, 0x70, 0, 2, 0x5F, 6, 0, 0, 0, 2, 0x0F, 5, 0, 0, 3, 0, 0, 1, 3, 0x31, 4, 0, 0, 5, 0, 0})
	universe := make([]types.Address, 4)
	for i := range universe {
		universe[i] = benchAddr(i)
	}
	slotKey := func(i byte) types.Hash { return types.HashBytes([]byte{0xF5, i}) }
	f.Add([]byte{2, 0, 0x10, 3, 0, 0, 2, 1, 0x20, 0, 0, 0x31, 3, 0, 0, 7, 0, 0, 2, 0, 0x05, 5, 0, 0, 1, 0, 0x30, 4, 1, 0, 4, 0, 0, 7, 0, 0, 5, 0, 0})
	type fork struct {
		db    *DB
		m     *model
		bytes []byte
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		db, m := New(), newModel()
		var saved [][]byte
		var forks []fork
		for i := 0; i+3 <= len(ops); i += 3 {
			op, who, arg := ops[i]%8, ops[i+1], ops[i+2]
			a := universe[who%4]
			switch op {
			case 0, 1:
				k := slotKey(arg & 0x0F)
				var v types.Hash
				if arg>>4 != 0 {
					v = types.HashBytes([]byte{arg >> 4})
				}
				db.SetStorage(a, k, v)
				if v.IsZero() {
					delete(m.get(a).storage, k)
				} else {
					m.get(a).storage[k] = v
				}
			case 2:
				if db.Credit(a, types.Amount(arg)) == nil {
					m.get(a).balance += types.Amount(arg)
				}
			case 3:
				db.Snapshot()
				m.snapshots = append(m.snapshots, m.clone())
				saved = append(saved, db.Serialize())
			case 4:
				if len(m.snapshots) == 0 {
					continue
				}
				id := int(who) % len(m.snapshots)
				if err := db.RevertToSnapshot(id); err != nil {
					t.Fatal(err)
				}
				m.accounts = m.snapshots[id]
				m.snapshots = m.snapshots[:id]
				if !bytes.Equal(db.Serialize(), saved[id]) {
					t.Fatalf("op %d: reverting to snapshot %d did not restore its bytes", i/3, id)
				}
				saved = saved[:id]
			case 5:
				if got, want := db.Root(), modelRoot(m.accounts); got != want {
					t.Fatalf("op %d: root %s, model %s", i/3, got.Short(), want.Short())
				}
			case 6:
				db, m, saved = db.Copy(), m.copyModel(), nil
			case 7:
				cp := db.Copy()
				forks = append(forks, fork{cp, m.copyModel(), cp.Serialize()})
			}
		}
		checkAgainst(t, len(ops)/3, db, m)
		for _, f := range forks {
			if !bytes.Equal(f.db.Serialize(), f.bytes) {
				t.Fatal("a fork no longer serializes as it did when taken")
			}
			checkAgainst(t, len(ops)/3, f.db, f.m)
		}
	})
}
