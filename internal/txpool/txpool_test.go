package txpool

import (
	"errors"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// fakeState is a StateReader with fixed values.
type fakeState struct {
	nonces   map[types.Address]uint64
	balances map[types.Address]types.Amount
}

func (f *fakeState) Nonce(a types.Address) uint64 { return f.nonces[a] }
func (f *fakeState) Balance(a types.Address) types.Amount {
	if f.balances == nil {
		return types.EtherAmount(1_000_000)
	}
	return f.balances[a]
}

func newFakeState() *fakeState {
	return &fakeState{nonces: make(map[types.Address]uint64)}
}

func signedTx(t *testing.T, w *wallet.Wallet, nonce uint64, gasPrice types.Amount) *types.Transaction {
	t.Helper()
	tx := &types.Transaction{
		Kind:     types.TxTransfer,
		Nonce:    nonce,
		To:       types.Address{1},
		Value:    1,
		GasLimit: 21_000,
		GasPrice: gasPrice,
	}
	if err := types.SignTx(tx, w); err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestAddAndPending(t *testing.T) {
	p := New()
	st := newFakeState()
	alice := wallet.NewDeterministic("alice")
	tx := signedTx(t, alice, 0, 50)
	if err := p.Add(tx, st); err != nil {
		t.Fatal(err)
	}
	if p.Get(tx.Hash()) != tx || p.Len() != 1 {
		t.Error("pool does not hold the tx")
	}
	got := p.Pending(st, 10)
	if len(got) != 1 || got[0].Hash() != tx.Hash() {
		t.Error("Pending did not return the tx")
	}
}

func TestAddRejectsDuplicates(t *testing.T) {
	p := New()
	st := newFakeState()
	alice := wallet.NewDeterministic("alice")
	tx := signedTx(t, alice, 0, 50)
	if err := p.Add(tx, st); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(tx, st); !errors.Is(err, ErrKnownTx) {
		t.Errorf("err = %v, want ErrKnownTx", err)
	}
}

func TestAddRejectsInvalid(t *testing.T) {
	p := New()
	alice := wallet.NewDeterministic("alice")
	tampered := types.Edited(signedTx(t, alice, 0, 50), func(tx *types.Transaction) {
		tx.Value = 999 // break signature
	})
	// Kind 2, contract creation, is retired: signed and well formed, but
	// not a transaction any more.
	create := &types.Transaction{Kind: types.TxKind(2), GasLimit: 500_000, GasPrice: 50, Data: []byte{0x60, 0x00, 0x60, 0x00, 0xf3}}
	if err := types.SignTx(create, alice); err != nil {
		t.Fatal(err)
	}
	for name, tx := range map[string]*types.Transaction{"tampered": tampered, "contract creation": create} {
		if err := p.Add(tx, newFakeState()); !errors.Is(err, ErrInvalidTx) {
			t.Errorf("%s: Add err = %v, want ErrInvalidTx", name, err)
		}
		if errs := p.AddAllTraced([]*types.Transaction{tx}, newFakeState(), telemetry.TraceContext{}); !errors.Is(errs[0], ErrInvalidTx) {
			t.Errorf("%s: AddAllTraced err = %v, want ErrInvalidTx", name, errs[0])
		}
	}
	if p.Len() != 0 {
		t.Errorf("the pool holds %d transactions", p.Len())
	}
}

func TestAddRejectsStaleNonce(t *testing.T) {
	p := New()
	st := newFakeState()
	alice := wallet.NewDeterministic("alice")
	st.nonces[alice.Address()] = 5
	if err := p.Add(signedTx(t, alice, 4, 50), st); !errors.Is(err, ErrNonceTooLow) {
		t.Errorf("err = %v, want ErrNonceTooLow", err)
	}
}

func TestAddRejectsUnaffordable(t *testing.T) {
	p := New()
	alice := wallet.NewDeterministic("alice")
	st := &fakeState{
		nonces:   map[types.Address]uint64{},
		balances: map[types.Address]types.Amount{alice.Address(): 10},
	}
	if err := p.Add(signedTx(t, alice, 0, 50), st); !errors.Is(err, ErrUnaffordable) {
		t.Errorf("err = %v, want ErrUnaffordable", err)
	}
}

func TestReplacementNeedsPriceBump(t *testing.T) {
	p := New()
	st := newFakeState()
	alice := wallet.NewDeterministic("alice")
	if err := p.Add(signedTx(t, alice, 0, 100), st); err != nil {
		t.Fatal(err)
	}
	// +5% is not enough.
	if err := p.Add(signedTx(t, alice, 0, 105), st); !errors.Is(err, ErrUnderpriced) {
		t.Errorf("err = %v, want ErrUnderpriced", err)
	}
	// +10% replaces.
	better := signedTx(t, alice, 0, 110)
	if err := p.Add(better, st); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 1 {
		t.Errorf("pool has %d txs after replacement, want 1", p.Len())
	}
	got := p.Pending(st, 1)
	if got[0].GasPrice != 110 {
		t.Error("replacement not effective")
	}
}

func TestCapacity(t *testing.T) {
	p := New()
	p.capacity = 2
	st := newFakeState()
	alice := wallet.NewDeterministic("alice")
	if err := p.Add(signedTx(t, alice, 0, 50), st); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(signedTx(t, alice, 1, 50), st); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(signedTx(t, alice, 2, 50), st); !errors.Is(err, ErrPoolFull) {
		t.Errorf("err = %v, want ErrPoolFull", err)
	}
}

func TestPendingRespectsNonceOrderWithinSender(t *testing.T) {
	p := New()
	st := newFakeState()
	alice := wallet.NewDeterministic("alice")
	// Insert out of order, with the later nonce priced higher.
	tx1 := signedTx(t, alice, 1, 500)
	tx0 := signedTx(t, alice, 0, 10)
	if err := p.Add(tx1, st); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(tx0, st); err != nil {
		t.Fatal(err)
	}
	got := p.Pending(st, 10)
	if len(got) != 2 || got[0].Nonce != 0 || got[1].Nonce != 1 {
		t.Errorf("pending order broken: %v", []uint64{got[0].Nonce, got[1].Nonce})
	}
}

func TestPendingSkipsGappedNonces(t *testing.T) {
	p := New()
	st := newFakeState()
	alice := wallet.NewDeterministic("alice")
	if err := p.Add(signedTx(t, alice, 2, 50), st); err != nil { // gap: 0,1 missing
		t.Fatal(err)
	}
	if got := p.Pending(st, 10); len(got) != 0 {
		t.Errorf("gapped tx selected: %d", len(got))
	}
}

func TestPendingPrefersHigherFeeAcrossSenders(t *testing.T) {
	p := New()
	st := newFakeState()
	alice := wallet.NewDeterministic("alice")
	bob := wallet.NewDeterministic("bob")
	if err := p.Add(signedTx(t, alice, 0, 10), st); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(signedTx(t, bob, 0, 90), st); err != nil {
		t.Fatal(err)
	}
	got := p.Pending(st, 1)
	if got[0].From != bob.Address() {
		t.Error("lower-fee tx selected first")
	}
}

func TestPendingLimit(t *testing.T) {
	p := New()
	st := newFakeState()
	alice := wallet.NewDeterministic("alice")
	for n := uint64(0); n < 5; n++ {
		if err := p.Add(signedTx(t, alice, n, 50), st); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Pending(st, 3); len(got) != 3 {
		t.Errorf("limit ignored: %d", len(got))
	}
	if got := p.Pending(st, 0); len(got) != 5 {
		t.Errorf("unlimited pending = %d, want 5", len(got))
	}
}

func TestRemoveAndPrune(t *testing.T) {
	p := New()
	st := newFakeState()
	alice := wallet.NewDeterministic("alice")
	tx0 := signedTx(t, alice, 0, 50)
	tx1 := signedTx(t, alice, 1, 50)
	if err := p.Add(tx0, st); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(tx1, st); err != nil {
		t.Fatal(err)
	}

	p.Remove(tx0.Hash())
	if p.Get(tx0.Hash()) != nil || p.Len() != 1 {
		t.Error("Remove failed")
	}

	// The chain advanced: alice's confirmed nonce is now 2.
	st.nonces[alice.Address()] = 2
	p.Prune(st)
	if p.Len() != 0 {
		t.Errorf("Prune left %d stale txs", p.Len())
	}
}

// TestArrivalTracksPool pins the senders' runs to the hash index: every
// way a transaction leaves the pool — Remove after sealing, same-nonce
// replacement, Prune after a block — must drop it from both, with the
// same arrival number in each while it stays, or a sealing node grows
// the pool by one entry per transaction it ever mined.
func TestArrivalTracksPool(t *testing.T) {
	p := New()
	st := newFakeState()
	alice := wallet.NewDeterministic("alice")
	check := func(step string) {
		t.Helper()
		checkRuns(t, p, step)
	}
	tx0 := signedTx(t, alice, 0, 50)
	if err := p.Add(tx0, st); err != nil {
		t.Fatal(err)
	}
	p.Remove(tx0.Hash())
	check("add → remove")

	if err := p.Add(signedTx(t, alice, 0, 50), st); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(signedTx(t, alice, 0, 100), st); err != nil {
		t.Fatal(err)
	}
	check("add → replace")

	st.nonces[alice.Address()] = 1
	p.Prune(st)
	check("add → prune")
	if len(p.byHash) != 0 {
		t.Fatalf("pool still holds %d txs", len(p.byHash))
	}
}

func TestPendingDeterministic(t *testing.T) {
	build := func() []*types.Transaction {
		p := New()
		st := newFakeState()
		for i := 0; i < 6; i++ {
			w := wallet.NewDeterministic(string(rune('a' + i)))
			if err := p.Add(signedTx(t, w, 0, 50), st); err != nil {
				t.Fatal(err)
			}
		}
		return p.Pending(st, 0)
	}
	a, b := build(), build()
	for i := range a {
		if a[i].Hash() != b[i].Hash() {
			t.Fatal("Pending order is not deterministic")
		}
	}
}

func TestAddAllBatchAdmission(t *testing.T) {
	p := New()
	st := newFakeState()
	alice := wallet.NewDeterministic("alice")
	bob := wallet.NewDeterministic("bob")

	txs := []*types.Transaction{
		signedTx(t, alice, 0, 50),
		signedTx(t, alice, 1, 50),
		signedTx(t, bob, 0, 60),
	}
	for i, err := range p.AddAllTraced(txs, st, telemetry.TraceContext{}) {
		if err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
	}
	if p.Len() != 3 {
		t.Fatalf("pool holds %d txs, want 3", p.Len())
	}
	// Batch admission must be indistinguishable from sequential Add calls:
	// Pending ordering (price desc, arrival tie-break) matches slice order.
	got := p.Pending(st, 10)
	if len(got) != 3 || got[0].Hash() != txs[2].Hash() ||
		got[1].Hash() != txs[0].Hash() || got[2].Hash() != txs[1].Hash() {
		t.Error("Pending order does not match sequential-Add semantics")
	}
}

func TestAddAllReportsPerTxErrors(t *testing.T) {
	p := New()
	st := newFakeState()
	alice := wallet.NewDeterministic("alice")
	bob := wallet.NewDeterministic("bob")

	dup := signedTx(t, alice, 0, 50)
	if err := p.Add(dup, st); err != nil {
		t.Fatal(err)
	}
	bad := types.Edited(signedTx(t, bob, 1, 50), func(tx *types.Transaction) {
		tx.Value = 999 // breaks the signature
	})

	txs := []*types.Transaction{
		dup,                       // 0: already pooled
		bad,                       // 1: invalid signature
		signedTx(t, bob, 0, 50),   // 2: fine
		signedTx(t, alice, 1, 50), // 3: fine
	}
	errs := p.AddAllTraced(txs, st, telemetry.TraceContext{})
	if !errors.Is(errs[0], ErrKnownTx) {
		t.Errorf("errs[0] = %v, want ErrKnownTx", errs[0])
	}
	if !errors.Is(errs[1], ErrInvalidTx) {
		t.Errorf("errs[1] = %v, want ErrInvalidTx", errs[1])
	}
	if errs[2] != nil || errs[3] != nil {
		t.Errorf("valid txs rejected: %v, %v", errs[2], errs[3])
	}
	if p.Len() != 3 {
		t.Fatalf("pool holds %d txs, want 3", p.Len())
	}
}

func TestAddAllEmpty(t *testing.T) {
	p := New()
	if errs := p.AddAllTraced(nil, newFakeState(), telemetry.TraceContext{}); len(errs) != 0 {
		t.Fatalf("nil batch returned %d errors", len(errs))
	}
}

// checkRuns fails unless the senders' runs and the hash index hold the
// same transactions with the same arrival numbers, each run sorted by
// nonce with one transaction per nonce.
func checkRuns(t *testing.T, p *Pool, step string) {
	t.Helper()
	n := 0
	for sender, run := range p.bySender {
		if len(run) == 0 {
			t.Fatalf("after %s: sender %s kept with an empty run", step, sender)
		}
		for i, e := range run {
			if e.tx.From != sender || (i > 0 && run[i-1].tx.Nonce >= e.tx.Nonce) {
				t.Fatalf("after %s: sender %s's run out of order at %d", step, sender, i)
			}
			if p.byHash[e.tx.Hash()] != e {
				t.Fatalf("after %s: run entry %d of %s is not the indexed one", step, i, sender)
			}
		}
		n += len(run)
	}
	if n != len(p.byHash) {
		t.Fatalf("after %s: %d run entries for %d pooled txs", step, n, len(p.byHash))
	}
}

// pendingBySort is the selection Pending made before its heap, kept as
// the oracle: every round re-sorts the senders' runnable queues by head
// gas price descending, then head arrival, and takes the first head.
func pendingBySort(p *Pool, st StateReader, maxTxs int) []*types.Transaction {
	type queue struct {
		txs []*types.Transaction
	}
	var queues []*queue
	for sender, run := range p.bySender {
		bucket := make(map[uint64]*types.Transaction, len(run))
		for _, e := range run {
			bucket[e.tx.Nonce] = e.tx
		}
		q := &queue{}
		for n := st.Nonce(sender); bucket[n] != nil; n++ {
			q.txs = append(q.txs, bucket[n])
		}
		if len(q.txs) > 0 {
			queues = append(queues, q)
		}
	}
	var out []*types.Transaction
	for len(out) < maxTxs || maxTxs <= 0 {
		sort.Slice(queues, func(i, j int) bool {
			a, b := queues[i].txs[0], queues[j].txs[0]
			if a.GasPrice != b.GasPrice {
				return a.GasPrice > b.GasPrice
			}
			return p.byHash[a.Hash()].seq < p.byHash[b.Hash()].seq
		})
		if len(queues) == 0 {
			break
		}
		out = append(out, queues[0].txs[0])
		queues[0].txs = queues[0].txs[1:]
		if len(queues[0].txs) == 0 {
			queues = queues[1:]
		}
	}
	return out
}

// TestPendingMatchesSortOracle drives seeded random pools — few senders,
// three gas prices so ties are common, nonce gaps, replacements, removals
// and prunes — and compares Pending with the sort it replaced, for
// several limits and confirmed nonces.
func TestPendingMatchesSortOracle(t *testing.T) {
	senders := make([]*wallet.Wallet, 6)
	for i := range senders {
		senders[i] = wallet.NewDeterministic("sender-" + strconv.Itoa(i))
	}
	rounds := 30
	if testing.Short() {
		rounds = 6
	}
	for seed := int64(0); seed < int64(rounds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := New()
		admit := newFakeState()
		var added []*types.Transaction
		for op := 0; op < 40; op++ {
			switch r := rng.Intn(10); {
			case r < 8 || len(added) == 0:
				w := senders[rng.Intn(len(senders))]
				tx := signedTx(t, w, uint64(rng.Intn(8)), types.Amount(1+rng.Intn(3))*types.GWei)
				if p.Add(tx, admit) == nil {
					added = append(added, tx)
				}
			case r == 8:
				p.Remove(added[rng.Intn(len(added))].Hash())
			default:
				st := newFakeState()
				st.nonces[senders[rng.Intn(len(senders))].Address()] = uint64(rng.Intn(4))
				p.Prune(st)
			}
		}
		checkRuns(t, p, "seed "+strconv.FormatInt(seed, 10))
		st := newFakeState()
		for _, w := range senders {
			st.nonces[w.Address()] = uint64(rng.Intn(3))
		}
		for _, limit := range []int{0, 1, 3, 7, 1000} {
			got, want := p.Pending(st, limit), pendingBySort(p, st, limit)
			if len(got) != len(want) {
				t.Fatalf("seed %d, limit %d: %d transactions, oracle %d", seed, limit, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d, limit %d: transaction %d differs from the oracle's", seed, limit, i)
				}
			}
		}
	}
}
