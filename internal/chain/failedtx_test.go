package chain

import (
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// overflowSink is a genesis account one gwei short of the largest Amount:
// any larger credit overflows, which is the one way a transfer that passed
// the affordability check can still fail.
var overflowSink = types.Address{0x0f, 0xf0}

// failedTxHarness is newHarness plus overflowSink and, released in block 1,
// an SRA whose detection window is still open.
func failedTxHarness(t *testing.T) (*harness, types.Hash) {
	t.Helper()
	h := &harness{
		t:        t,
		provider: wallet.NewDeterministic("provider"),
		detector: wallet.NewDeterministic("detector"),
		miner:    wallet.NewDeterministic("miner"),
		nonces:   make(map[types.Address]uint64),
	}
	verifier := contract.VerifierFunc(func(types.Hash, types.Finding) bool { return true })
	cfg := DefaultConfig(contract.New(contract.DefaultParams(), verifier))
	cfg.SkipPoWCheck = true
	cfg.Alloc = map[types.Address]types.Amount{
		h.provider.Address(): types.EtherAmount(5000),
		h.detector.Address(): types.EtherAmount(50),
		overflowSink:         ^types.Amount(0) - 1,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.chain = c

	sraTx, sra := h.sraTx(types.EtherAmount(1000), types.EtherAmount(5))
	h.extend(sraTx)
	r, err := h.chain.ReceiptOf(sraTx.Hash())
	if err != nil || !r.Success {
		t.Fatalf("releasing the SRA: receipt %+v, err %v", r, err)
	}
	return h, sra.ID
}

// TestFailedTxKeepsTheNonceBumpAndNothingElse owns what applyTx's fail()
// leaves behind. The snapshot is taken before the sender's nonce is
// bumped, so fail() reverts and writes the bump again; all a
// failed transaction changes is that nonce and the burned gas limit moving
// from the sender to the miner. The expected post-state is built by hand
// from the pre-state with exactly those writes, and the executed block
// must land on the same root. (TestExecutionGolden pins the absolute
// roots of a chain with failures in it.)
func TestFailedTxKeepsTheNonceBumpAndNothingElse(t *testing.T) {
	h, sraID := failedTxHarness(t)
	// Each case is executed on its own copy of the head state, so each
	// transaction carries its sender's current nonce.
	resign := func(tx *types.Transaction, nonce uint64, w *wallet.Wallet) *types.Transaction {
		tx.Nonce = nonce
		if err := types.SignTx(tx, w); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	_, detailed := h.reportPair(types.HashBytes([]byte("no-such-sra")), "V-1")
	providerNonce := h.chain.State().Nonce(h.provider.Address())
	cases := []struct {
		name   string
		tx     *types.Transaction
		sender *wallet.Wallet
	}{
		{"refund before the window opens, carrying value 7", resign(&types.Transaction{
			Kind: types.TxContractCall, To: contract.Address, Value: 7, GasLimit: 200_000, GasPrice: testGasPrice,
			Data: contract.RefundInput(sraID),
		}, providerNonce, h.provider), h.provider},
		{"R* against an unknown SRA", resign(detailed, 0, h.detector), h.detector},
		{"transfer that overflows the recipient", resign(&types.Transaction{
			Kind: types.TxTransfer, To: overflowSink, Value: 2, GasLimit: 21_000, GasPrice: testGasPrice,
		}, providerNonce, h.provider), h.provider},
	}
	cfg := h.chain.Config()
	head := h.chain.Head()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sender := tc.sender.Address()
			blk := &types.Block{
				Header: types.Header{ParentID: head.ID(), Number: head.Header.Number + 1, Time: head.Header.Time + 15_350, Miner: h.miner.Address()},
				Txs:    []*types.Transaction{tc.tx},
			}
			got := h.chain.State()
			receipts, err := execBlock(cfg, got, blk)
			if err != nil {
				t.Fatal(err)
			}

			fee := types.Amount(tc.tx.GasLimit) * tc.tx.GasPrice
			r := receipts[0]
			if r.Success || r.Err == "" || r.GasUsed != tc.tx.GasLimit || r.Fee != fee ||
				r.TxHash != tc.tx.Hash() || r.Kind != tc.tx.Kind || r.Payout.Paid != 0 {
				t.Errorf("receipt %+v: want a failure that burned the gas limit (fee %s) and paid nothing", r, fee)
			}

			want := h.chain.State()
			want.SetNonce(sender, tc.tx.Nonce+1)
			if err := want.Debit(sender, fee); err != nil {
				t.Fatal(err)
			}
			if err := want.Credit(h.miner.Address(), fee+cfg.BlockReward); err != nil {
				t.Fatal(err)
			}
			if got.Nonce(sender) != tc.tx.Nonce+1 {
				t.Errorf("sender nonce %d after the failure, want %d", got.Nonce(sender), tc.tx.Nonce+1)
			}
			for _, a := range []types.Address{sender, tc.tx.To, overflowSink, contract.Address} {
				if got.Balance(a) != want.Balance(a) {
					t.Errorf("balance of %s: %s, want %s", a.Short(), got.Balance(a), want.Balance(a))
				}
			}
			if got.Root() != want.Root() {
				t.Errorf("post-state root %s, want %s: the failure left more than a nonce and a fee behind",
					got.Root().Short(), want.Root().Short())
			}
		})
	}
}

// BenchmarkFailedTransfer executes one block holding one failing transfer
// on a fresh copy of the head state; B/op is the point (the revert is
// followed by a second write of the sender's nonce, which the fee debit
// after it then rewrites in place).
func BenchmarkFailedTransfer(b *testing.B) {
	h := &harness{provider: wallet.NewDeterministic("provider"), miner: wallet.NewDeterministic("miner")}
	cfg := DefaultConfig(contract.New(contract.DefaultParams(), contract.VerifierFunc(func(types.Hash, types.Finding) bool { return true })))
	cfg.SkipPoWCheck = true
	cfg.Alloc = benchAlloc(10_000)
	cfg.Alloc[h.provider.Address()] = types.EtherAmount(5000)
	cfg.Alloc[overflowSink] = ^types.Amount(0) - 1
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tx := &types.Transaction{Kind: types.TxTransfer, To: overflowSink, Value: 2, GasLimit: 21_000, GasPrice: testGasPrice}
	if err := types.SignTx(tx, h.provider); err != nil {
		b.Fatal(err)
	}
	head := c.Head()
	blk := &types.Block{
		Header: types.Header{ParentID: head.ID(), Number: 1, Time: head.Header.Time + 15_350, Miner: h.miner.Address()},
		Txs:    []*types.Transaction{tx},
	}
	if _, err := tx.Sender(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		receipts, err := execBlock(cfg, c.State(), blk)
		if err != nil || receipts[0].Success {
			b.Fatalf("receipts %+v, err %v: want one failed transfer", receipts, err)
		}
	}
}
