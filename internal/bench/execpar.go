package bench

import (
	"fmt"
	"runtime"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/vm"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// Handles on the parallel executor's counters (registered with help text
// by internal/chain); the experiment reads deltas around the measured
// import to prove speculation engaged and stayed conflict-free.
var (
	cExecParSpec = telemetry.GetCounter("smartcrowd_chain_exec_parallel_speculative_total")
	cExecParConf = telemetry.GetCounter("smartcrowd_chain_exec_parallel_conflicts_total")
	cExecParFall = telemetry.GetCounter("smartcrowd_chain_exec_parallel_fallback_total")
)

// ExecPar measures stage 2 of block import — transaction execution —
// serial versus the optimistic parallel executor (chain/parallel.go).
// The workload is built to be embarrassingly parallel at the account
// level: N independent senders each deploy a private gas-burning SCVM
// loop contract, then every measured block carries one call per sender
// to its own contract. Read/write sets are disjoint across senders, so
// the parallel executor should commit a fully clean prefix every block
// with zero conflicts, re-executions, or dense fallbacks.
//
// Sender caches are pre-warmed on both block copies before timing so
// ECDSA recovery (stage 1's cost) is excluded and VM execution
// dominates. Equivalence checks (same head, roots, receipts as the
// serial oracle) hold on any machine; the ≥1.5x speedup claim is only
// enforced with 4+ cores.
func ExecPar(scale Scale) (*Report, error) {
	senders, blocks, iters := 8, 24, 2_000
	if scale == Full {
		senders, blocks, iters = 16, 96, 2_000
	}
	cores := runtime.NumCPU()
	// Always run the measured path with at least two workers: even on a
	// single core the optimistic executor must speculate and stay
	// bit-identical; only the speedup claim needs real parallelism.
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}

	r := &Report{
		ID:      "execpar",
		Title:   "Execution parallelism: optimistic parallel stage 2 vs serial oracle",
		Headers: []string{"Path", "Result"},
		Metrics: make(map[string]float64),
		ShapeOK: true,
	}

	cfg, wire, err := buildExecParSource(senders, blocks, uint64(iters))
	if err != nil {
		return nil, err
	}

	// Two independently decoded copies, then sender caches warmed on
	// both so the timed sections compare execution alone.
	serialBlocks, err := decodeAll(wire)
	if err != nil {
		return nil, err
	}
	parBlocks, err := decodeAll(wire)
	if err != nil {
		return nil, err
	}
	for _, blk := range serialBlocks {
		types.RecoverSenders(blk.Txs)
	}
	for _, blk := range parBlocks {
		types.RecoverSenders(blk.Txs)
	}

	// Serial oracle: ExecParallelism 1 pins stage 2 to execTxsSerial.
	serialCfg := cfg
	serialCfg.ExecParallelism = 1
	serialChain, err := chain.New(serialCfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for _, blk := range serialBlocks {
		if _, err := serialChain.InsertBlock(blk); err != nil {
			return nil, fmt.Errorf("execpar: serial insert #%d: %w", blk.Header.Number, err)
		}
	}
	serialNS := float64(time.Since(start).Nanoseconds())

	// Parallel path: identical InsertBlock loop, only the stage-2
	// executor differs. Counter deltas confirm speculation engaged and
	// the disjoint workload stayed conflict-free.
	parCfg := cfg
	parCfg.ExecParallelism = workers
	parChain, err := chain.New(parCfg)
	if err != nil {
		return nil, err
	}
	spec0 := cExecParSpec.Value()
	conf0 := cExecParConf.Value()
	fall0 := cExecParFall.Value()
	start = time.Now()
	for _, blk := range parBlocks {
		if _, err := parChain.InsertBlock(blk); err != nil {
			return nil, fmt.Errorf("execpar: parallel insert #%d: %w", blk.Header.Number, err)
		}
	}
	parNS := float64(time.Since(start).Nanoseconds())
	spec := cExecParSpec.Value() - spec0
	conf := cExecParConf.Value() - conf0
	fall := cExecParFall.Value() - fall0

	speedup := serialNS / parNS
	r.Metrics["senders"] = float64(senders)
	r.Metrics["blocks"] = float64(blocks)
	r.Metrics["loop_iters"] = float64(iters)
	r.Metrics["cores"] = float64(cores)
	r.Metrics["workers"] = float64(workers)
	r.Metrics["serial_ns"] = serialNS
	r.Metrics["parallel_ns"] = parNS
	r.Metrics["speedup"] = speedup
	r.Metrics["speculative_txs"] = float64(spec)
	r.Metrics["conflicts"] = float64(conf)
	r.Metrics["fallbacks"] = float64(fall)

	r.Rows = [][]string{
		{"serial stage 2", fmt.Sprintf("%.3f s (%.1f blocks/sec)", serialNS/1e9, float64(blocks)/(serialNS/1e9))},
		{"parallel stage 2", fmt.Sprintf("%.3f s (%.1f blocks/sec, %d workers)", parNS/1e9, float64(blocks)/(parNS/1e9), workers)},
		{"speedup", fmt.Sprintf("%.2fx on %d cores", speedup, cores)},
	}

	// Equivalence: the optimistic executor must be bit-identical.
	r.check(parChain.Head().ID() == serialChain.Head().ID(), "parallel head matches serial head")
	rootsOK, receiptsOK, err := compareChains(serialChain, parChain)
	if err != nil {
		return nil, err
	}
	r.check(rootsOK, "state roots match at every sampled height")
	r.check(receiptsOK, "every receipt matches the serial oracle")
	r.check(spec > 0, "parallel executor speculated (%d txs)", spec)
	r.check(conf == 0 && fall == 0,
		"disjoint workload stayed conflict-free (%d conflicts, %d fallbacks)", conf, fall)

	// Performance: only a claim where there are cores to claim it on.
	if cores >= 4 {
		r.check(speedup >= 1.5, "parallel execution ≥1.5x faster than serial (%.2fx on %d cores)", speedup, cores)
	} else {
		r.note("[SKIP] ≥1.5x speedup check needs ≥4 cores, have %d (measured %.2fx)", cores, speedup)
	}
	return r, nil
}

// loopContractInit assembles deployment init code for a contract that
// burns ~24 gas × iters in a countdown loop and stops. The SCVM has no
// CODECOPY, so the init code materializes the runtime (≤32 bytes) as a
// single left-aligned PUSH32 word, stores it at memory 0, and returns
// the runtime-length prefix.
func loopContractInit(iters uint64) []byte {
	runtime := vm.MustAssemble(fmt.Sprintf(`
		PUSH %d        ; countdown counter
	loop:
		PUSH 1
		SWAP1
		SUB            ; counter-1
		DUP1           ; copy for the JUMPI condition
		PUSH @loop
		JUMPI          ; loop while counter != 0
		STOP
	`, iters))
	if len(runtime) == 0 || len(runtime) > 32 || runtime[0] == 0 {
		panic("execpar: loop runtime must be 1..32 bytes with a non-zero lead byte")
	}
	var word [32]byte
	copy(word[:], runtime)
	return vm.MustAssemble(fmt.Sprintf(`
		PUSH 0x%x      ; runtime code, right-padded to one word
		PUSH 0
		MSTORE
		PUSH %d        ; runtime length
		PUSH 0
		RETURN
	`, word, len(runtime)))
}

// buildExecParSource mines the workload chain — block 1 deploys one
// loop contract per sender, every later block carries one call per
// sender to its own contract — and returns its config plus every
// non-genesis block's wire encoding.
func buildExecParSource(senders, blocks int, iters uint64) (chain.Config, [][]byte, error) {
	miner := wallet.NewDeterministic("execpar-miner").Address()
	verifier := contract.VerifierFunc(func(types.Hash, types.Finding) bool { return true })
	cfg := chain.DefaultConfig(contract.New(contract.DefaultParams(), verifier))
	cfg.SkipPoWCheck = true
	cfg.Alloc = make(map[types.Address]types.Amount, senders)

	wallets := make([]*wallet.Wallet, senders)
	contracts := make([]types.Address, senders)
	for i := range wallets {
		wallets[i] = wallet.NewDeterministic(fmt.Sprintf("execpar-sender-%d", i))
		cfg.Alloc[wallets[i].Address()] = types.EtherAmount(1_000)
		contracts[i] = chain.CreateAddress(wallets[i].Address(), 0)
	}

	c, err := chain.New(cfg)
	if err != nil {
		return chain.Config{}, nil, err
	}

	extend := func(txs []*types.Transaction) error {
		head := c.Head()
		blk, err := c.BuildBlock(head.ID(), miner, head.Header.Time+15_350, 1000, txs)
		if err != nil {
			return err
		}
		_, err = c.InsertBlock(blk)
		return err
	}

	// Block 1: every sender deploys its private loop contract.
	initCode := loopContractInit(iters)
	deploys := make([]*types.Transaction, senders)
	for i, w := range wallets {
		tx := &types.Transaction{
			Kind:     types.TxContractCreate,
			Nonce:    0,
			Data:     initCode,
			GasLimit: 100_000,
			GasPrice: 50 * types.GWei,
		}
		if err := types.SignTx(tx, w); err != nil {
			return chain.Config{}, nil, err
		}
		deploys[i] = tx
	}
	if err := extend(deploys); err != nil {
		return chain.Config{}, nil, fmt.Errorf("execpar: deploy block: %w", err)
	}

	// Measured blocks: disjoint per-sender calls, one per sender.
	for b := 0; b < blocks; b++ {
		txs := make([]*types.Transaction, senders)
		for i, w := range wallets {
			tx := &types.Transaction{
				Kind:     types.TxContractCall,
				Nonce:    uint64(1 + b),
				To:       contracts[i],
				GasLimit: 200_000,
				GasPrice: 50 * types.GWei,
			}
			if err := types.SignTx(tx, w); err != nil {
				return chain.Config{}, nil, err
			}
			txs[i] = tx
		}
		if err := extend(txs); err != nil {
			return chain.Config{}, nil, fmt.Errorf("execpar: call block %d: %w", b, err)
		}
	}

	canonical := c.CanonicalBlocks()[1:]
	wire := make([][]byte, len(canonical))
	for i, blk := range canonical {
		wire[i] = types.EncodeBlock(blk)
	}
	return cfg, wire, nil
}

// decodeAll turns wire encodings back into fresh block objects with cold
// caches.
func decodeAll(wire [][]byte) ([]*types.Block, error) {
	out := make([]*types.Block, len(wire))
	for i, enc := range wire {
		blk, err := types.DecodeBlock(enc)
		if err != nil {
			return nil, err
		}
		out[i] = blk
	}
	return out, nil
}

// compareChains verifies state roots at sampled heights (head, plus every
// 50th block) and every transaction receipt between the serial oracle and
// the parallel chain.
func compareChains(serial, par *chain.Chain) (rootsOK, receiptsOK bool, err error) {
	cs, cp := serial.CanonicalBlocks(), par.CanonicalBlocks()
	if len(cs) != len(cp) {
		return false, false, nil
	}
	rootsOK, receiptsOK = true, true
	for i := range cs {
		if cs[i].ID() != cp[i].ID() {
			rootsOK = false
			break
		}
		if i%50 == 0 || i == len(cs)-1 {
			ss, err := serial.StateAt(cs[i].ID())
			if err != nil {
				return false, false, err
			}
			sp, err := par.StateAt(cp[i].ID())
			if err != nil {
				return false, false, err
			}
			if ss.Root() != sp.Root() {
				rootsOK = false
			}
		}
		for _, tx := range cs[i].Txs {
			rs, err := serial.ReceiptOf(tx.Hash())
			if err != nil {
				return false, false, err
			}
			rp, err := par.ReceiptOf(tx.Hash())
			if err != nil {
				return false, false, err
			}
			if rs.Success != rp.Success || rs.GasUsed != rp.GasUsed ||
				rs.Fee != rp.Fee || rs.Err != rp.Err {
				receiptsOK = false
			}
		}
	}
	return rootsOK, receiptsOK, nil
}
