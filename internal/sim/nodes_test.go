package sim

import (
	"testing"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/node"
	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// TestProviderNodesAgree: a run drives one provider node per provider and
// settles the bus around every submission and seal, so after a seeded run
// with the paper's five providers every node has the same head and state
// root, and no node's pool still holds a transaction the chain includes.
// The pools are read the way a peer reads them: a node answers a
// tx-request from its pool only. Every detector node's Earnings equals
// the payouts of its R* receipts on every node, and the run's tracker
// books the same bounty.
func TestProviderNodesAgree(t *testing.T) {
	res, err := Run(Config{
		Seed:      5,
		Providers: paperProviders(),
		Detectors: []DetectorSpec{
			{Name: "d1", Threads: 1}, {Name: "d2", Threads: 4}, {Name: "d3", Threads: 8},
		},
		Releases: []ReleaseSpec{
			{Provider: 2, At: 30 * time.Second, Insurance: types.EtherAmount(1000), Bounty: types.EtherAmount(5), NumVulns: 6},
			{Provider: 4, At: 5 * time.Minute, Insurance: types.EtherAmount(1000), Bounty: types.EtherAmount(5), NumVulns: 6},
		},
		Horizon: 7 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.nodes) != len(paperProviders()) {
		t.Fatalf("run built %d nodes for %d providers", len(res.nodes), len(paperProviders()))
	}
	// The head carries transactions, so a node that imported it without
	// dropping them from its pool would still hold some at the end.
	head := res.Chain.Head()
	if len(head.Txs) == 0 {
		t.Fatalf("head %d carries no transactions; end the run while reports still flow", head.Header.Number)
	}
	var included []types.Hash
	for _, b := range res.Chain.CanonicalBlocks() {
		for _, tx := range b.Txs {
			included = append(included, tx.Hash())
		}
	}
	if len(included) > p2p.MaxAnnounceIDs-1 {
		t.Fatalf("run included %d transactions; the probe asks for them in one request", len(included))
	}

	if len(res.detectors) != 3 {
		t.Fatalf("run built %d detector nodes for 3 detectors", len(res.detectors))
	}
	for di, det := range res.detectors {
		earned, booked := det.Earnings(), res.DetectorBalance(di).Bounty
		if earned == 0 {
			t.Errorf("detector %d earned nothing; the run must pay every detector to compare", di)
		}
		if earned != booked {
			t.Errorf("detector %d Earnings %s, tracker books %s", di, earned, booked)
		}
		for i, n := range res.nodes {
			if paid := payoutsTo(t, n, det.Address()); paid != earned {
				t.Errorf("node %d: detector %d's R* receipts pay %s, its Earnings %s", i, di, paid, earned)
			}
		}
	}

	for i, n := range res.nodes {
		if got := n.CurrentView().Head(); got.ID() != head.ID() {
			t.Errorf("node %d head %d %s, node 0 head %d %s", i, got.Header.Number, got.ID().Short(), head.Header.Number, head.ID().Short())
			continue
		}
		if root := n.Chain().State().Root(); root != head.Header.StateRoot {
			t.Errorf("node %d state root %s, head commits to %s", i, root.Short(), head.Header.StateRoot.Short())
		}

		// The run is over: move the node onto a private bus with a probe
		// peer. A fresh transfer it pools is the control the probe must
		// get back; an included transaction must not come back.
		probe := p2p.New(p2p.Config{})
		probe.Join("probe")
		n.AttachTransport(probe)
		fresh := &types.Transaction{
			Kind: types.TxTransfer, Nonce: n.CurrentView().State().Nonce(n.Address()),
			To: types.Address{1}, Value: 1, GasLimit: 21_000, GasPrice: 50 * types.GWei,
		}
		if err := types.SignTx(fresh, n.Wallet()); err != nil {
			t.Fatal(err)
		}
		if err := n.SubmitTx(fresh); err != nil {
			t.Fatalf("node %d refused the control transaction: %v", i, err)
		}
		probe.AdvanceTo(1)
		probe.Receive("probe") // the control's push
		ask := append(append([]types.Hash(nil), included...), fresh.Hash())
		if err := probe.Send("probe", n.ID(), p2p.Message{Kind: p2p.MsgTxRequest, Payload: p2p.EncodeTxRequest(ask)}); err != nil {
			t.Fatal(err)
		}
		probe.AdvanceTo(2)
		n.HandleMessages()
		probe.AdvanceTo(3)
		var served []types.Hash
		for _, m := range probe.Receive("probe") {
			if m.Kind == p2p.MsgTx {
				served = append(served, types.HashBytes(m.Payload))
			}
		}
		if len(served) != 1 || served[0] != fresh.Hash() {
			t.Errorf("node %d served %d transactions for %d included ones and the pooled control; want only the control", i, len(served), len(included))
		}
	}
}

// payoutsTo sums what the successful R* receipts on n's chain paid to
// wallet.
func payoutsTo(t *testing.T, n *node.ProviderNode, wallet types.Address) types.Amount {
	t.Helper()
	v := n.CurrentView()
	var paid types.Amount
	for _, b := range n.Chain().CanonicalBlocks() {
		for _, tx := range b.Txs {
			if tx.Kind != types.TxDetailedReport {
				continue
			}
			rep, err := tx.DetailedReport()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Wallet != wallet {
				continue
			}
			r, err := v.ReceiptOf(tx.Hash())
			if err != nil {
				t.Fatal(err)
			}
			if r.Success {
				paid += r.Payout.Paid
			}
		}
	}
	return paid
}
