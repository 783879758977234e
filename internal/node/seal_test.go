package node

import (
	"errors"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/detection"
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// abortSealer gives up at once, like a CPUSealer whose stop channel closed.
type abortSealer struct{}

func (abortSealer) Seal(types.Header, <-chan struct{}) (types.Header, error) {
	return types.Header{}, pow.ErrSealAborted
}

// TestAbortedSealEndsItsTrace: a seal the sealer aborts still ends its
// block.seal root span, labelled outcome=aborted, so /debug/traces shows
// the build and the search under their root instead of under none.
func TestAbortedSealEndsItsTrace(t *testing.T) {
	const id = "seal-abort"
	cfg := chain.DefaultConfig(contract.New(contract.DefaultParams(), detection.NewGroundTruthVerifier(false)))
	cfg.SkipPoWCheck = true
	p, err := NewProvider(id, wallet.NewDeterministic(id), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SealAndPublish(abortSealer{}, 15_350, 1000, 0, nil); !errors.Is(err, pow.ErrSealAborted) {
		t.Fatalf("SealAndPublish = %v, want ErrSealAborted", err)
	}
	if n := p.Chain().HeadNumber(); n != 0 {
		t.Fatalf("an aborted seal moved the head to %d", n)
	}

	var trace telemetry.TraceRecord
	for _, tr := range telemetry.RecentTraces(0) {
		for _, s := range tr.Spans {
			if s.Name == "pow.seal" && s.Labels["node"] == id {
				trace = tr
			}
		}
	}
	if trace.ID == "" {
		t.Fatal("no trace holds the aborted pow.seal span")
	}
	ids := make(map[string]bool, len(trace.Spans))
	for _, s := range trace.Spans {
		ids[s.SpanID] = true
	}
	var root *telemetry.SpanRecord
	for i, s := range trace.Spans {
		if s.ParentID != "" && !ids[s.ParentID] {
			t.Errorf("span %s has no parent in its trace", s.Name)
		}
		if s.Name == "block.seal" {
			root = &trace.Spans[i]
		}
	}
	if root == nil {
		t.Fatalf("trace of %d spans holds no block.seal root", len(trace.Spans))
	}
	if got := root.Labels["outcome"]; got != "aborted" {
		t.Errorf("block.seal outcome = %q, want aborted", got)
	}
}

// stampSealer seals a header by stamping its own value as the nonce.
type stampSealer uint64

func (n stampSealer) Seal(hdr types.Header, _ <-chan struct{}) (types.Header, error) {
	hdr.Nonce = uint64(n)
	return hdr, nil
}

// TestSealLeavesTheBuiltBlockAlone: sealing puts the sealed header into a
// new block and never writes the one BuildBlock returned, which keeps its
// header and its id; the new block's id is its header's hash and the one
// a peer decodes. The built block is hashed before it is sealed, so a
// sealer that wrote it in place would leave it a stale id memo, which the
// memoguard build turns into a panic.
func TestSealLeavesTheBuiltBlockAlone(t *testing.T) {
	alloc, releasing, _ := fundedActors()
	cl := newCluster(t, 2, alloc)
	a, peer := cl.providers[0], cl.providers[1]
	tx := &types.Transaction{Kind: types.TxTransfer, To: types.Address{1}, Value: 1, GasLimit: 21_000, GasPrice: 50 * types.GWei}
	if err := types.SignTx(tx, releasing); err != nil {
		t.Fatal(err)
	}
	if err := a.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	cl.settle()

	head := a.Chain().Head()
	built, err := a.Chain().BuildBlock(head.ID(), a.wallet.Address(), head.Header.Time+15_350, 1000, []*types.Transaction{tx})
	if err != nil {
		t.Fatal(err)
	}
	asBuilt, builtID := built.Header, built.ID()
	sealed, err := a.sealBuilt(telemetry.StartTrace("block.seal"), stampSealer(42), head.ID(), built, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sealed == built {
		t.Fatal("sealing returned the built block")
	}
	if built.Header != asBuilt || built.Header.Nonce != 0 || built.ID() != builtID {
		t.Errorf("sealing wrote the built block: header %+v, want %+v", built.Header, asBuilt)
	}
	if sealed.Header.Nonce != 42 || len(sealed.Txs) != 1 || sealed.Txs[0] != tx {
		t.Errorf("sealed block: nonce %d, %d txs; want nonce 42 and the built transaction", sealed.Header.Nonce, len(sealed.Txs))
	}
	cl.settle()
	checkPublished(t, sealed, peer)

	cl.now += 15_350
	next, err := a.SealAndPublish(stampSealer(7), cl.now, 1000, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if next.Header.Nonce != 7 || next.Header.ParentID != sealed.ID() {
		t.Errorf("SealAndPublish: nonce %d on parent %s, want 7 on %s", next.Header.Nonce, next.Header.ParentID.Short(), sealed.ID().Short())
	}
	cl.settle()
	checkPublished(t, next, peer)
}

// checkPublished checks that blk's id is its header's hash, and that peer
// holds blk as its head under that id, in bytes that decode to it.
func checkPublished(t *testing.T, blk *types.Block, peer *ProviderNode) {
	t.Helper()
	id := blk.ID()
	if id != blk.Header.ID() {
		t.Fatalf("block #%d: ID() %s, header hash %s", blk.Header.Number, id.Short(), blk.Header.ID().Short())
	}
	if got := peer.Chain().Head().ID(); got != id {
		t.Fatalf("peer head %s, want the sealed block %s", got.Short(), id.Short())
	}
	raw, err := peer.Chain().BlockByID(id)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := types.DecodeBlock(raw)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.ID() != id || decoded.Header != blk.Header {
		t.Errorf("peer decodes block %s with header %+v, want %s", decoded.ID().Short(), decoded.Header, id.Short())
	}
}
