package benchmark

import (
	"fmt"
	"runtime"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/detection"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// chainBuilder assembles a preload chain in memory during set-up. Nodes
// never share its blocks: they import private decoded copies of encoded(),
// so no node starts with another's sender or hash caches warm.
type chainBuilder struct {
	c     *chain.Chain
	miner types.Address
}

func newChainBuilder(alloc map[types.Address]types.Amount, images []*lifecycle) (*chainBuilder, error) {
	verifier := detection.NewGroundTruthVerifier(false)
	for _, lc := range images {
		verifier.Register(lc.sraID, lc.image)
	}
	cfg := chain.DefaultConfig(contract.New(contract.DefaultParams(), verifier))
	cfg.ExecParallelism = runtime.GOMAXPROCS(0)
	cfg.Alloc = alloc
	c, err := chain.New(cfg)
	if err != nil {
		return nil, err
	}
	return &chainBuilder{c: c, miner: wallet.NewDeterministic("scbench-preload-miner").Address()}, nil
}

// extend builds and imports one block. Preload timestamps start near zero
// and advance one second per block, far below the wall-clock stamps the
// measured phase uses.
func (b *chainBuilder) extend(txs []*types.Transaction) error {
	head := b.c.Head()
	blk, err := b.c.BuildBlock(head.ID(), b.miner, head.Header.Time+1000, difficulty, txs)
	if err != nil {
		return fmt.Errorf("preload block %d: %w", head.Header.Number+1, err)
	}
	if _, err := b.c.InsertBlock(blk); err != nil {
		return fmt.Errorf("preload block %d: %w", blk.Header.Number, err)
	}
	return nil
}

// extendChunked spreads txs over as many blocks as perBlock requires.
func (b *chainBuilder) extendChunked(txs []*types.Transaction, perBlock int) error {
	for len(txs) > 0 {
		n := min(perBlock, len(txs))
		if err := b.extend(txs[:n]); err != nil {
			return err
		}
		txs = txs[n:]
	}
	return nil
}

// settle runs lifecycles to completion in as few blocks as the block gas
// limit allows: all SRAs, then all R†, then all R* (the reveal only needs
// its commitment one block down).
func (b *chainBuilder) settle(lcs []*lifecycle) error {
	const srasPerBlock, reportsPerBlock = 50, 800
	var sras, inits, details []*types.Transaction
	for _, lc := range lcs {
		sras = append(sras, lc.sra.tx)
		inits = append(inits, lc.init.tx)
		details = append(details, lc.detail.tx)
	}
	if err := b.extendChunked(sras, srasPerBlock); err != nil {
		return err
	}
	if err := b.extendChunked(inits, reportsPerBlock); err != nil {
		return err
	}
	return b.extendChunked(details, reportsPerBlock)
}

func (b *chainBuilder) head() uint64 { return b.c.HeadNumber() }

// encoded returns every block past genesis in wire form.
func (b *chainBuilder) encoded() [][]byte {
	blocks := b.c.CanonicalBlocks()[1:]
	out := make([][]byte, len(blocks))
	for i, blk := range blocks {
		out[i] = types.EncodeBlock(blk)
	}
	return out
}
