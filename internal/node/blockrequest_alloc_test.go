//go:build !race

package node

import (
	"bytes"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// TestBlockRequestBelowWindowDecodesNothing: a node answers a request for
// a block below its decoded window with the bytes it holds. Decoding the
// block's 20 transfers and encoding them again made 56 allocations on
// amd64; the answer itself makes 8.
func TestBlockRequestBelowWindowDecodesNothing(t *testing.T) {
	payer := wallet.NewDeterministic("block-request-payer")
	cl := newCluster(t, 1, map[types.Address]types.Amount{payer.Address(): types.EtherAmount(100)})
	a := cl.providers[0]
	for nonce := uint64(0); nonce < 20; nonce++ {
		tx := &types.Transaction{Kind: types.TxTransfer, Nonce: nonce, To: types.Address{0xb0}, Value: 1, GasLimit: 21_000, GasPrice: 50 * types.GWei}
		if err := types.SignTx(tx, payer); err != nil {
			t.Fatal(err)
		}
		if err := a.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	deep := cl.mine(0)
	if len(deep.Txs) != 20 {
		t.Fatalf("sealed %d transfers, want 20", len(deep.Txs))
	}
	want := types.EncodeBlock(deep)
	for i := 0; i < 70; i++ { // the window is 64 blocks
		cl.mine(0)
	}

	const asker = p2p.NodeID("asker")
	cl.net.Join(asker)
	request := p2p.Message{Kind: p2p.MsgBlockRequest, Payload: p2p.EncodeBlockRequest(deep.ID())}
	var answer []p2p.Message
	ask := func() {
		_ = cl.net.Send(asker, a.ID(), request)
		cl.now++
		cl.net.AdvanceTo(cl.now)
		a.HandleMessages()
		cl.now++
		cl.net.AdvanceTo(cl.now)
		answer = cl.net.Receive(asker)
	}
	ask()
	if len(answer) != 1 || answer[0].Kind != p2p.MsgBlock || !bytes.Equal(answer[0].Payload, want) {
		t.Fatalf("answer to a block request: %d messages, want one carrying the block's bytes", len(answer))
	}
	if allocs := testing.AllocsPerRun(20, ask); allocs > 20 {
		t.Errorf("answering a request for a 20-transfer block below the window allocated %.0f times, want <= 20", allocs)
	}
}
