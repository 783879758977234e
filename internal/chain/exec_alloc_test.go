//go:build !race

package chain

import (
	"runtime"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/critbit"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// TestBlockSharesItsPathCopies pins what executing a block costs once the
// state's undo journal is warm: 100 transfers from one sender to 100 of
// 10,000 accounts, executed and rooted on a fresh copy of the head state.
// The block's writes share one trie generation, so the sender's and the
// miner's paths are copied once per block and each recipient's once, and
// every later write to an account rewrites its record in the leaf that
// copy made: ≈ 75 KB on amd64. A snapshot per transaction that froze the
// trie copied all three paths per transaction, ≈ 292 KB.
func TestBlockSharesItsPathCopies(t *testing.T) {
	sender, miner := wallet.NewDeterministic("provider"), wallet.NewDeterministic("miner")
	cfg := benchConfig(10_000)
	cfg.Alloc[sender.Address()] = types.EtherAmount(5000)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	head := c.Head()
	blk := &types.Block{Header: types.Header{ParentID: head.ID(), Number: 1, Time: head.Header.Time + 15_350, Miner: miner.Address()}}
	for i := 0; i < 100; i++ {
		tx := &types.Transaction{Kind: types.TxTransfer, Nonce: uint64(i), To: benchAccount(i * 97), Value: 1, GasLimit: 21_000, GasPrice: testGasPrice}
		if err := types.SignTx(tx, sender); err != nil {
			t.Fatal(err)
		}
		blk.Txs = append(blk.Txs, tx)
	}
	run := func() {
		st := c.State()
		if _, err := execBlock(cfg, st, blk); err != nil {
			t.Fatal(err)
		}
		st.Root()
	}
	run() // the first block recovers the senders and warms the journal

	const runs, budget = 20, 80 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if perBlock := (after.TotalAlloc - before.TotalAlloc) / runs; perBlock > budget {
		t.Fatalf("a warm 100-transfer block over 10,000 accounts allocated %d B, want <= %d", perBlock, budget)
	}
}

var indexSink *critbit.Node[txLoc, struct{}]

// TestIndexLeafIs80Bytes pins what indexing a transaction costs beside
// the branch above it: one allocation of 80 bytes, an unsummed node, the
// hash and a (number, position) location. The block id and the receipt
// are read from the view's canon entry, not copied into every leaf.
func TestIndexLeafIs80Bytes(t *testing.T) {
	k := critbit.Key{1}
	set := func() { indexSink = critbit.Set[txLoc, struct{}](nil, k, txLoc{number: 1}, 0) }
	if n := testing.AllocsPerRun(100, set); n != 1 {
		t.Fatalf("an index leaf took %v allocations, want 1", n)
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		set()
	}
	runtime.ReadMemStats(&after)
	if size := (after.TotalAlloc - before.TotalAlloc) / runs; size != 80 {
		t.Fatalf("an index leaf allocates %d bytes, want 80", size)
	}
}

// TestRunAllocatesLessThanSingleImports pins what cutting a batch into
// runs buys: a 64-block batch of transfers, one run, against the same 64
// blocks imported one at a time, each block's senders recovered and its
// id memoised beforehand on both sides. The run executes in one trie
// generation, so each account's path is copied once per run, not once
// per block, and it commits once: one index generation and one view.
// It is at most 60 % of the single imports' bytes.
func TestRunAllocatesLessThanSingleImports(t *testing.T) {
	h, batch := transferBatch(t, 64, 8)
	warm := func() []*types.Block {
		blocks := redecoded(t, batch)
		for _, blk := range blocks {
			types.RecoverSenders(blk.Txs)
			blk.ID()
		}
		return blocks
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	c, blocks := freshChain(t, h), warm()
	run := allocated(func() {
		if _, err := c.InsertChain(blocks); err != nil {
			t.Fatal(err)
		}
	})
	c, blocks = freshChain(t, h), warm()
	single := allocated(func() {
		for _, blk := range blocks {
			if _, err := c.InsertBlock(blk); err != nil {
				t.Fatal(err)
			}
		}
	})
	// ≈ 0.46 on amd64; a run that froze the state at each block's root
	// check reads ≈ 0.77.
	if ratio := float64(run) / float64(single); ratio > 0.6 {
		t.Fatalf("one 64-block run allocated %d B, 64 single imports %d B: %.2f of it, want <= 0.60", run, single, ratio)
	}
}
