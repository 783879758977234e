package chain

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// poolHarness funds a pool of independent senders so tests can compose
// blocks with a chosen account-overlap density.
type poolHarness struct {
	t       *testing.T
	cfg     Config
	senders []*wallet.Wallet
	miner   *wallet.Wallet
}

func newPoolHarness(t *testing.T, senders int) *poolHarness {
	t.Helper()
	h := &poolHarness{t: t, miner: wallet.NewDeterministic("par-miner")}
	verifier := contract.VerifierFunc(func(types.Hash, types.Finding) bool { return true })
	cfg := DefaultConfig(contract.New(contract.DefaultParams(), verifier))
	cfg.SkipPoWCheck = true
	cfg.Alloc = make(map[types.Address]types.Amount, senders)
	for i := 0; i < senders; i++ {
		w := wallet.NewDeterministic(fmt.Sprintf("par-sender-%d", i))
		h.senders = append(h.senders, w)
		cfg.Alloc[w.Address()] = types.EtherAmount(100)
	}
	h.cfg = cfg
	return h
}

func (h *poolHarness) newChain() *Chain {
	h.t.Helper()
	c, err := New(h.cfg)
	if err != nil {
		h.t.Fatal(err)
	}
	return c
}

func (h *poolHarness) signedTransfer(from *wallet.Wallet, nonce uint64, to types.Address, amount types.Amount) *types.Transaction {
	h.t.Helper()
	tx := &types.Transaction{
		Kind:     types.TxTransfer,
		Nonce:    nonce,
		To:       to,
		Value:    amount,
		GasLimit: 21_000,
		GasPrice: testGasPrice,
	}
	if err := types.SignTx(tx, from); err != nil {
		h.t.Fatal(err)
	}
	return tx
}

// extend builds a block of txs on c's head and inserts it.
func (h *poolHarness) extend(c *Chain, txs ...*types.Transaction) *types.Block {
	h.t.Helper()
	parent := c.Head()
	blk, err := c.BuildBlock(parent.ID(), h.miner.Address(), parent.Header.Time+15_350, 1000, txs)
	if err != nil {
		h.t.Fatal(err)
	}
	if _, err := c.InsertBlock(blk); err != nil {
		h.t.Fatal(err)
	}
	return blk
}

// genOverlapBlocks extends c with blocks whose transactions overlap on
// accounts with probability density: at 0 every transfer goes from a
// unique sender to a unique fresh sink; as density rises, recipients
// collapse onto a small hot set and senders repeat within a block
// (intra-block nonce chains). txsPerBlock must not exceed the sender pool.
func genOverlapBlocks(t *testing.T, h *poolHarness, c *Chain, rng *rand.Rand, blocks, txsPerBlock int, density float64) {
	t.Helper()
	if txsPerBlock > len(h.senders) {
		t.Fatalf("txsPerBlock %d exceeds sender pool %d", txsPerBlock, len(h.senders))
	}
	nonces := make(map[types.Address]uint64)
	hot := make([]types.Address, 3)
	for i := range hot {
		hot[i] = types.Address{0xE0, byte(i)}
	}
	fresh := 0
	for b := 0; b < blocks; b++ {
		perm := rng.Perm(len(h.senders))
		txs := make([]*types.Transaction, 0, txsPerBlock)
		for i := 0; i < txsPerBlock; i++ {
			from := h.senders[perm[i]]
			if i > 0 && rng.Float64() < density {
				from = h.senders[perm[rng.Intn(i)]] // repeat an earlier sender
			}
			var to types.Address
			if rng.Float64() < density {
				to = hot[rng.Intn(len(hot))]
			} else {
				fresh++
				to = types.Address{0xF0, byte(fresh >> 8), byte(fresh)}
			}
			addr := from.Address()
			txs = append(txs, h.signedTransfer(from, nonces[addr], to, types.Amount(1+rng.Intn(1000))))
			nonces[addr]++
		}
		h.extend(c, txs...)
	}
}

// goldenHeads are head block ids. The density rows were recorded at
// commit 5383040 with ExecParallelism = 1, the last tree that also
// carried a speculative executor; "lifecycle" and "sealer-importer-mix"
// (TestSealerAndImporterAgree's final head) at 2e17feb, the last tree
// with contract creation, on the same inputs as here. A header commits to
// its parent and its post-state root, so one head id pins every balance,
// nonce, fee, burned-gas amount and storage slot of every block below it.
var goldenHeads = map[string]string{
	"density=0.0/seed=1":  "0x664a8e27eabd921a444eba32b0bb455ebd42e2dbc37aa1f38619ed5fa2224b81",
	"density=0.0/seed=2":  "0x120d30b56a3b90d7fae48dd4f1aad74b40cd3be143ad31dc1dadf1004f3d54e4",
	"density=0.0/seed=3":  "0x4f84ad7ef7bf97be65bb80db2e9a48792363d88e067dad727a6345a42dc6e89d",
	"density=0.3/seed=1":  "0xb354024692e85ba8ab007610bc0b5b9f6f6ca46b0d2ae5c003be6e116072eadc",
	"density=0.3/seed=2":  "0x1f79381aefec8f2777d35c1e51969e168de9e0b3312b97357b05cac7d10d8d44",
	"density=0.3/seed=3":  "0x9482d608e00aa23490d286c4fe676fff20b5666b71ef283e0d4fbf43e259e128",
	"density=0.8/seed=1":  "0xfa5e91b9f674610c857aebbf1fddc3380f57b8ceed2fa949736af4cbbfdde82c",
	"density=0.8/seed=2":  "0xd6ad9580063d3c03ce50c0928e743c546a1c62b6ca34e050dae7cc5bb9dd3e98",
	"density=0.8/seed=3":  "0x0c5650b8ca4c7d04d8fb13b6ed2e5cff72bf6c99e68c60984c76bf842e468048",
	"lifecycle":           "0xdced63a3be96d01109a5b62a09b7410e93615190af0ac0d90dbb9a46aa9aa833",
	"sealer-importer-mix": "0x0373ac13ef0b492e67e2a099107cf27661d9a8769cc628ac2a5609e9cd77965a",
}

// buildLifecycleChain grows one chain through every executor branch: an
// SRA escrow, a duplicate SRA whose escrow transfer is rolled back, a
// transfer that fails on its credit, an R* with one genuine and one
// forged finding, an R* revealed in its commitment's block (rejected),
// a call moving value to a plain address, an insurance refund before its
// window, and a block whose miner is also one of its senders. It returns the chain and
// the expected receipt outcome per transaction.
func buildLifecycleChain(t *testing.T) (*Chain, map[types.Hash]bool) {
	t.Helper()
	h := newHarness(t)
	verifier := contract.VerifierFunc(func(_ types.Hash, f types.Finding) bool { return f.VulnID != "FORGED" })
	cfg := DefaultConfig(contract.New(contract.DefaultParams(), verifier))
	cfg.SkipPoWCheck = true
	whale := types.Address{0x3A}
	cfg.Alloc = map[types.Address]types.Amount{
		h.provider.Address(): types.EtherAmount(5000),
		h.detector.Address(): types.EtherAmount(50),
		whale:                ^types.Amount(0) - 5,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.chain = c

	want := make(map[types.Hash]bool)
	ok := func(tx *types.Transaction) *types.Transaction { want[tx.Hash()] = true; return tx }
	bad := func(tx *types.Transaction) *types.Transaction { want[tx.Hash()] = false; return tx }
	signed := func(tx *types.Transaction, w *wallet.Wallet) *types.Transaction {
		tx.Nonce = h.nextNonce(w.Address())
		tx.GasPrice = testGasPrice
		if err := types.SignTx(tx, w); err != nil {
			t.Fatal(err)
		}
		return tx
	}

	// Block 1: escrow an SRA; a transfer into an almost-full balance
	// fails on the credit side after its debit.
	sraTx, sra := h.sraTx(types.EtherAmount(1000), types.EtherAmount(5))
	h.extend(ok(sraTx), bad(h.transferTx(h.provider, whale, 100)), ok(h.transferTx(h.provider, types.Address{7}, 9)))

	// Block 2: commit two reports, re-release the same SRA (its escrow
	// transfer must roll back).
	itx1, dtx1 := h.reportPair(sra.ID, "V-1", "FORGED")
	dupSRA := signed(types.NewSRATx(sra, 0, 2_000_000, testGasPrice), h.provider)
	h.extend(ok(itx1), bad(dupSRA))

	// Block 3: the accepted R* (one finding paid, one forged), a second
	// commitment revealed in its own block (rejected: commit depth), a
	// call that moves value to a plain address for its intrinsic gas, a
	// refund before the window ends.
	itx2, dtx2 := h.reportPair(sra.ID, "V-2")
	call := signed(&types.Transaction{Kind: types.TxContractCall, To: types.Address{9}, Value: 11, GasLimit: 200_000, Data: []byte{0, 1, 2}}, h.provider)
	h.extend(ok(dtx1), ok(itx2), bad(dtx2), ok(call), bad(h.refundTx(sra.ID)))

	// Block 4: the miner spends part of the fees and rewards it earned,
	// so its own fee credit lands on an account the block already wrote.
	h.extend(ok(h.transferTx(h.miner, types.Address{8}, types.EtherAmount(2))),
		ok(h.transferTx(h.provider, h.miner.Address(), 77)),
		ok(h.transferTx(h.miner, h.provider.Address(), 5)))
	return c, want
}

// TestExecutionGolden rebuilds seeded chains and compares their head ids
// with ids recorded before the speculative executor was deleted: the
// serial executor's consensus output must not move.
func TestExecutionGolden(t *testing.T) {
	check := func(t *testing.T, name string, c *Chain) {
		t.Helper()
		if got := c.Head().ID().String(); got != goldenHeads[name] {
			t.Errorf("%q head = %s, golden %s", name, got, goldenHeads[name])
		}
	}
	for _, density := range []float64{0.0, 0.3, 0.8} {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("density=%.1f/seed=%d", density, seed)
			t.Run(name, func(t *testing.T) {
				h := newPoolHarness(t, 16)
				c := h.newChain()
				genOverlapBlocks(t, h, c, rand.New(rand.NewSource(seed)), 6, 12, density)
				check(t, name, c)
			})
		}
	}
	t.Run("lifecycle", func(t *testing.T) {
		c, want := buildLifecycleChain(t)
		for hash, success := range want {
			r, err := c.ReceiptOf(hash)
			if err != nil {
				t.Fatal(err)
			}
			if r.Success != success {
				t.Errorf("tx %s (kind %d): success = %v (%s), want %v", hash.Short(), r.Kind, r.Success, r.Err, success)
			}
		}
		check(t, "lifecycle", c)

		// Re-importing the blocks into a fresh chain re-executes them
		// through InsertChain rather than BuildBlock.
		replay, err := New(c.Config())
		if err != nil {
			t.Fatal(err)
		}
		if n, err := replay.InsertChain(c.CanonicalBlocks()[1:]); err != nil {
			t.Fatalf("replay failed after %d blocks: %v", n, err)
		}
		assertChainsIdentical(t, c, replay)
	})
}

// TestExecutorSentinelErrors pins the wrapped-sentinel contract of the
// executor's failure paths: callers must be able to classify failures
// with errors.Is.
func TestExecutorSentinelErrors(t *testing.T) {
	h := newPoolHarness(t, 2)
	c := h.newChain()
	parent := c.Head()

	build := func(txs ...*types.Transaction) error {
		_, err := c.BuildBlock(parent.ID(), h.miner.Address(), parent.Header.Time+15_350, 1000, txs)
		return err
	}

	badNonce := h.signedTransfer(h.senders[0], 5, types.Address{0xF4}, 1)
	if err := build(badNonce); !errors.Is(err, ErrBadNonce) {
		t.Fatalf("bad nonce: got %v", err)
	}

	poor := h.signedTransfer(h.senders[0], 0, types.Address{0xF4}, types.EtherAmount(10_000))
	if err := build(poor); !errors.Is(err, ErrUnaffordableTx) {
		t.Fatalf("unaffordable: got %v", err)
	}

	short := &types.Transaction{
		Kind: types.TxTransfer, Nonce: 0, To: types.Address{0xF4},
		Value: 1, GasLimit: 1_000, GasPrice: testGasPrice,
	}
	if err := types.SignTx(short, h.senders[0]); err != nil {
		t.Fatal(err)
	}
	if err := build(short); !errors.Is(err, ErrGasLimitTooLow) {
		t.Fatalf("gas too low: got %v", err)
	}

	garbled := &types.Transaction{
		Kind: types.TxSRA, Nonce: 0, Data: []byte{0xFF, 0xFE},
		GasLimit: 2_000_000, GasPrice: testGasPrice,
	}
	if err := types.SignTx(garbled, h.senders[0]); err != nil {
		t.Fatal(err)
	}
	if err := build(garbled); !errors.Is(err, ErrTxPayload) {
		t.Fatalf("malformed payload: got %v", err)
	}
}
