package state

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/critbit"
	"github.com/smartcrowd/smartcrowd/internal/crypto/keccak"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// referenceRoot recomputes the state commitment from scratch: it gathers
// every non-empty account in sorted order and builds the crit-bit
// structure recursively from the sorted slice, hashing all of it. It
// shares no code with the incremental path (critbit's path copies and
// memoised Sum), so agreement across random histories is strong evidence
// the incremental root equals a full rehash.
func referenceRoot(db *DB) types.Hash {
	addrs := db.Accounts()
	if len(addrs) == 0 {
		return emptyStateRoot
	}
	return refBuild(db, addrs)
}

func refBuild(db *DB, addrs []types.Address) types.Hash {
	if len(addrs) == 1 {
		h := keccak.New256()
		_, _ = h.Write([]byte{trieTagLeaf})
		_, _ = h.Write(addrs[0][:])
		acc, _ := critbit.Get(db.root, trieKey(addrs[0]))
		d := accountDigest(addrs[0][:], acc)
		_, _ = h.Write(d[:])
		var out types.Hash
		copy(out[:], h.Sum(nil))
		return out
	}
	// The branch bit is the first bit on which the sorted group disagrees
	// — i.e. the first differing bit of its extremes. Sorted order means
	// the group splits into a bit-0 prefix and a bit-1 suffix.
	lo, hi := addrs[0], addrs[len(addrs)-1]
	d := 0
	for refBit(lo, d) == refBit(hi, d) {
		d++
	}
	split := sort.Search(len(addrs), func(i int) bool { return refBit(addrs[i], d) == 1 })
	left := refBuild(db, addrs[:split])
	right := refBuild(db, addrs[split:])
	h := keccak.New256()
	_, _ = h.Write([]byte{trieTagBranch, byte(d >> 8), byte(d)})
	_, _ = h.Write(left[:])
	_, _ = h.Write(right[:])
	var out types.Hash
	copy(out[:], h.Sum(nil))
	return out
}

// refBit returns bit i of a, most significant bit of a[0] first.
func refBit(a types.Address, i int) byte {
	return a[i/8] >> (7 - i%8) & 1
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
	if got, want := db.Root(), referenceRoot(db); got != want {
		t.Fatalf("step %d: incremental root %s != reference root %s", step, got.Short(), want.Short())
	}
}

// TestRootMatchesReferenceUnderRandomHistories drives long random
// mutate/snapshot/revert/copy sequences against both the CoW DB and a
// naive deep-copy model and requires (a) identical observable state, (b)
// the incrementally maintained Root to equal the from-scratch reference
// root at every checkpoint, and (c) every saved and copied root to still
// serialize to the bytes it serialized to when it was taken — the writes
// after a freeze point rewrite only nodes made since.
func TestRootMatchesReferenceUnderRandomHistories(t *testing.T) {
	universe := make([]types.Address, 12)
	for i := range universe {
		h := types.HashBytes([]byte{byte(i), 0xA7})
		copy(universe[i][:], h[:20])
	}
	keys := make([]types.Hash, 5)
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
			// saved and copied pair each open snapshot and each recent copy
			// with its root and the bytes that root serialized to when taken.
			type taken struct {
				root  *DB
				bytes []byte
			}
			var saved, copied []taken
			take := func(root *DB) taken { return taken{root, root.Serialize()} }
			for step := 0; step < 600; step++ {
				a := universe[rng.Intn(len(universe))]
				op := rng.Intn(12)
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
					saved = append(saved, take(&DB{root: db.saved[id]}))
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
					if !bytes.Equal(db.Serialize(), saved[id].bytes) {
						t.Fatalf("step %d: reverting to snapshot %d did not restore its bytes", step, id)
					}
					saved = saved[:id]
				case 11: // copy: fork both sides, mutate the fork, then
					// verify isolation in both directions
					cp := db.Copy()
					cpm := m.copyModel()
					if copied = append(copied, take(&DB{root: cp.root})); len(copied) > 8 {
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
							k := keys[rng.Intn(len(keys))]
							v := types.HashBytes([]byte{0xCC, byte(i)})
							cp.SetStorage(b, k, v)
							cpm.get(b).storage[k] = v
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
				}
				for i, tk := range append(saved[:len(saved):len(saved)], copied...) {
					if !bytes.Equal(tk.root.Serialize(), tk.bytes) {
						t.Fatalf("step %d: taken root %d no longer serializes as it did when taken", step, i)
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
