package chain

import (
	"errors"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/light"
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// ruleChain returns an empty chain under rule whose genesis funds alice.
func ruleChain(t *testing.T, rule pow.Rule, alice types.Address) *Chain {
	t.Helper()
	verifier := contract.VerifierFunc(func(types.Hash, types.Finding) bool { return true })
	cfg := DefaultConfig(contract.New(contract.DefaultParams(), verifier))
	cfg.Rule = rule
	cfg.Alloc = map[types.Address]types.Amount{alice: types.EtherAmount(1000)}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// grind sets h's nonce to the first one from h.Nonce whose hash meets h's
// difficulty (sealed) or fails it (!sealed).
func grind(h *types.Header, sealed bool) {
	for h.MeetsPoW() != sealed {
		h.Nonce++
	}
}

// TestHeaderRuleVerdicts is the one table of header faults: each is run
// under each rule through the chain's InsertBlock, the light client's
// AddHeader and the chain's snapshot prefix (AdoptSnapshot), which must
// give the same verdict and wrap the same pow sentinel — save that a
// prefix that does not link to itself is ErrSnapshotChain. Every faulty
// header is sealed again after its edit, so its one fault is the named
// one.
func TestHeaderRuleVerdicts(t *testing.T) {
	retarget := pow.Rule{Retarget: liveRetarget}
	rules := []struct {
		name string
		rule pow.Rule
	}{{"Declared", pow.Declared}, {"Sampled", pow.Sampled}, {"Retarget", retarget}}
	faults := []struct {
		name   string
		edit   func(parent, h *types.Header)
		unseal bool     // grind a nonce that fails, not one that meets
		want   [3]error // by rule, in rules' order
	}{
		{"none", func(_, _ *types.Header) {}, false, [3]error{}},
		{"number", func(_, h *types.Header) { h.Number++ }, false,
			[3]error{pow.ErrBadNumber, pow.ErrBadNumber, pow.ErrBadNumber}},
		{"equal time", func(p, h *types.Header) { h.Time = p.Time }, false,
			[3]error{pow.ErrBadTimestamp, pow.ErrBadTimestamp, pow.ErrBadTimestamp}},
		{"earlier time", func(p, h *types.Header) { h.Time = p.Time - 1 }, false,
			[3]error{pow.ErrBadTimestamp, pow.ErrBadTimestamp, pow.ErrBadTimestamp}},
		{"time 0", func(_, h *types.Header) { h.Time = 0 }, false,
			[3]error{pow.ErrBadTimestamp, pow.ErrBadTimestamp, pow.ErrBadTimestamp}},
		{"off retarget", func(_, h *types.Header) { h.Difficulty++ }, false,
			[3]error{nil, nil, pow.ErrBadDifficulty}},
		{"unsealed", func(_, _ *types.Header) {}, true,
			[3]error{pow.ErrBadPoW, nil, pow.ErrBadPoW}},
		{"unknown parent", func(_, h *types.Header) { h.ParentID = types.HashBytes([]byte("ghost")) }, false,
			[3]error{pow.ErrUnknownParent, pow.ErrUnknownParent, pow.ErrUnknownParent}},
	}
	alice := wallet.NewDeterministic("alice").Address()
	miner := wallet.NewDeterministic("miner").Address()
	for r, rc := range rules {
		t.Run(rc.name, func(t *testing.T) {
			// Two sealed blocks under the rule, held by a chain and a light
			// client; every fault is a third block on the second.
			src := ruleChain(t, rc.rule, alice)
			hc := light.NewHeaderChain(src.Genesis().Header, rc.rule)
			build := func(parent *types.Header) *types.Block {
				t.Helper()
				ts := parent.Time + 15_000
				blk, err := src.BuildBlock(parent.ID(), miner, ts, retarget.Next(parent, ts), nil)
				if err != nil {
					t.Fatal(err)
				}
				return blk
			}
			var prefix []*types.Block
			for parent := src.Genesis(); len(prefix) < 2; parent = prefix[len(prefix)-1] {
				blk := types.Edited(build(&parent.Header), func(b *types.Block) { grind(&b.Header, true) })
				if _, err := src.InsertBlock(blk); err != nil {
					t.Fatal(err)
				}
				if err := hc.AddHeader(blk.Header); err != nil {
					t.Fatal(err)
				}
				prefix = append(prefix, blk)
			}
			parent := &prefix[1].Header
			// Every fault leaves the state the honest block commits to.
			honest := types.Edited(build(parent), func(b *types.Block) { grind(&b.Header, true) })
			if _, err := src.InsertBlock(honest); err != nil {
				t.Fatal(err)
			}
			state := src.SnapshotNow().State

			for _, f := range faults {
				t.Run(f.name, func(t *testing.T) {
					blk := types.Edited(build(parent), func(b *types.Block) {
						f.edit(parent, &b.Header)
						b.Header.Nonce = honest.Header.Nonce + 1 // never the honest block
						grind(&b.Header, !f.unseal)
					})
					want := f.want[r]
					_, chainErr := src.InsertBlock(blk)
					lightErr := hc.AddHeader(blk.Header)
					dst := ruleChain(t, rc.rule, alice)
					snapErr := dst.AdoptSnapshot(recordsOf(append(prefix[:2:2], blk)), state)
					snapWant := want
					if want == pow.ErrUnknownParent {
						snapWant = ErrSnapshotChain
					}
					if !errors.Is(chainErr, want) {
						t.Errorf("InsertBlock: %v, want %v", chainErr, want)
					}
					if !errors.Is(lightErr, want) {
						t.Errorf("AddHeader: %v, want %v", lightErr, want)
					}
					if !errors.Is(snapErr, snapWant) {
						t.Errorf("AdoptSnapshot: %v, want %v", snapErr, snapWant)
					}
				})
			}
		})
	}
}

// TestBadSealOrRootCostsNoRecovery: a gossiped block whose seal or tx
// root is wrong is refused before any of its senders is recovered. Its
// transactions are decoded from bytes, so none has a sender memoized.
func TestBadSealOrRootCostsNoRecovery(t *testing.T) {
	alice := wallet.NewDeterministic("alice")
	c := ruleChain(t, pow.Declared, alice.Address())
	txs := make([]*types.Transaction, 64)
	for i := range txs {
		txs[i] = &types.Transaction{Kind: types.TxTransfer, Nonce: uint64(i), To: types.Address{0xb0},
			Value: 1, GasLimit: 21_000, GasPrice: testGasPrice}
		if err := types.SignTx(txs[i], alice); err != nil {
			t.Fatal(err)
		}
	}
	genesis := c.Genesis()
	misses := telemetry.GetCounter("smartcrowd_types_sender_cache_total", telemetry.L("outcome", "miss"))
	for _, tc := range []struct {
		name string
		edit func(*types.Header)
		want error
	}{
		{"unsealed", func(h *types.Header) { h.Difficulty = 1 << 40; grind(h, false) }, pow.ErrBadPoW},
		{"wrong tx root", func(h *types.Header) { h.TxRoot[0] ^= 1; grind(h, true) }, types.ErrBlockBadTxRoot},
	} {
		t.Run(tc.name, func(t *testing.T) {
			built, err := c.BuildBlock(genesis.ID(), alice.Address(), genesis.Header.Time+15_000, 16, txs)
			if err != nil {
				t.Fatal(err)
			}
			blk, err := types.DecodeBlock(types.EncodeBlock(types.Edited(built, func(b *types.Block) { tc.edit(&b.Header) })))
			if err != nil {
				t.Fatal(err)
			}
			before := misses.Value()
			if _, err := c.InsertBlock(blk); !errors.Is(err, tc.want) {
				t.Fatalf("InsertBlock: %v, want %v", err, tc.want)
			}
			if got := misses.Value() - before; got != 0 {
				t.Errorf("refusing the block recovered %d senders, want 0", got)
			}
		})
	}
}
