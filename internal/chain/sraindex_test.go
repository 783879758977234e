package chain

import (
	"reflect"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// namedSRATx releases a distinct SRA (the harness sraTx pins one identity).
func namedSRATx(h *harness, name string) (*types.Transaction, *types.SRA) {
	h.t.Helper()
	sra := &types.SRA{
		Provider:     h.provider.Address(),
		Name:         name,
		Version:      "1.0",
		SystemHash:   types.HashBytes([]byte(name)),
		DownloadLink: "sc://releases/" + name,
		Insurance:    types.EtherAmount(100),
		Bounty:       types.EtherAmount(5),
	}
	if err := types.SignSRA(sra, h.provider); err != nil {
		h.t.Fatal(err)
	}
	tx := types.NewSRATx(sra, h.nextNonce(h.provider.Address()), 2_000_000, testGasPrice)
	if err := types.SignTx(tx, h.provider); err != nil {
		h.t.Fatal(err)
	}
	return tx, sra
}

// TestSRAIndexPaginationAndReorg covers the SRA listing behind /v1/sras,
// which the contract keeps in its storage: registration order, positional
// reads, and a fork switch replacing the listing with the winning
// branch's.
func TestSRAIndexPaginationAndReorg(t *testing.T) {
	h := newHarness(t)
	sc := h.chain.cfg.Contract
	if got := sc.SRACount(h.chain.State()); got != 0 {
		t.Fatalf("fresh chain lists %d SRAs", got)
	}
	if _, ok := sc.SRAAt(h.chain.State(), 0); ok {
		t.Fatal("fresh chain has an SRA at position 0")
	}

	tx1, sra1 := namedSRATx(h, "fw-one")
	b1 := h.extend(tx1)
	tx2, sra2 := namedSRATx(h, "fw-two")
	h.extend(tx2)

	if got, want := h.chain.sraListing(), []types.Hash{sra1.ID, sra2.ID}; !reflect.DeepEqual(got, want) {
		t.Fatalf("listing = %v, want [%s %s]", got, sra1.ID.Short(), sra2.ID.Short())
	}
	st := h.chain.State()
	for _, i := range []int{-1, 2, 5} {
		if id, ok := sc.SRAAt(st, i); ok {
			t.Errorf("SRAAt(%d) = %s, want none", i, id.Short())
		}
	}

	// Reorg: a heavier branch off block 1 replaces fw-two with fw-three.
	// The listing is the winning branch's state, so it holds fw-three in
	// fw-two's position.
	h.nonces = map[types.Address]uint64{h.provider.Address(): 1}
	tx3, sra3 := namedSRATx(h, "fw-three")
	fork := h.extendOn(b1.ID(), 3000, tx3)
	if h.chain.Head().ID() != fork.ID() {
		t.Fatal("heavier branch did not become head")
	}
	if got, want := h.chain.sraListing(), []types.Hash{sra1.ID, sra3.ID}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after reorg: listing = %v, want [%s %s]", got, sra1.ID.Short(), sra3.ID.Short())
	}
	assertIndexesMatchScan(t, h.chain, sra1.ID, sra2.ID, sra3.ID)
}
