package wire

import (
	"sync"
	"testing"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// Relay over topologies that are not a full mesh. Every other multi-node
// test in the tree — the CI smoke and scbench's cluster included — is a
// mesh or a partition into meshes, where each node hears every item from
// its origin and relaying could send nothing at all without a test
// noticing. On a line and a star the far nodes depend on it.

// linkTap sits between a node and its transport, the way scbench's
// decorators do: it counts the frames the node receives by (sender, kind)
// and can lose one outbound unicast frame on purpose.
type linkTap struct {
	*Transport
	mu   sync.Mutex
	in   map[p2p.NodeID]map[p2p.MsgKind]int
	lose func(to p2p.NodeID, kind p2p.MsgKind) bool
}

func (l *linkTap) Receive(id p2p.NodeID) []p2p.Message {
	msgs := l.Transport.Receive(id)
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, m := range msgs {
		if l.in == nil {
			l.in = make(map[p2p.NodeID]map[p2p.MsgKind]int)
		}
		if l.in[m.From] == nil {
			l.in[m.From] = make(map[p2p.MsgKind]int)
		}
		l.in[m.From][m.Kind]++
	}
	return msgs
}

func (l *linkTap) Send(from, to p2p.NodeID, msg p2p.Message) error {
	if l.lose != nil && l.lose(to, msg.Kind) {
		return nil
	}
	return l.Transport.Send(from, to, msg)
}

// bodies reports how many MsgTx and MsgBlock frames arrived from a peer.
func (l *linkTap) bodies(from p2p.NodeID) (txs, blocks int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.in[from][p2p.MsgTx], l.in[from][p2p.MsgBlock]
}

// relayNet is a set of tapped nodes sharing one funded genesis.
type relayNet struct {
	t      *testing.T
	funder *wallet.Wallet
	nonce  uint64
	ts     uint64
	nodes  []*wireNode
	taps   map[p2p.NodeID]*linkTap
}

func newRelayNet(t *testing.T) *relayNet {
	return &relayNet{t: t, funder: wallet.NewDeterministic("relay-funder"), ts: 1_000, taps: make(map[p2p.NodeID]*linkTap)}
}

// add starts a node that dials the given nodes and waits for the links.
func (rn *relayNet) add(id string, dials ...*wireNode) *wireNode {
	rn.t.Helper()
	addrs := make([]string, len(dials))
	for i, d := range dials {
		addrs[i] = d.tr.Addr()
	}
	tap := &linkTap{}
	n := startWireNode(rn.t, id, map[types.Address]types.Amount{rn.funder.Address(): types.EtherAmount(100)}, tap, addrs...)
	rn.nodes = append(rn.nodes, n)
	rn.taps[n.prov.ID()] = tap
	for _, d := range dials {
		waitFor(rn.t, 5*time.Second, func() bool { return hasPeer(n.tr, d.prov.ID()) && hasPeer(d.tr, n.prov.ID()) },
			"link "+id+"–"+string(d.prov.ID()))
	}
	return n
}

// pumpUntil drives every node's message loop until cond holds.
func (rn *relayNet) pumpUntil(what string, cond func() bool) {
	rn.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, n := range rn.nodes {
			n.prov.HandleMessages()
		}
		if cond() {
			// Let anything still in flight (a late announcement, a
			// duplicate body) land and be counted before the caller looks.
			for i := 0; i < 5; i++ {
				time.Sleep(10 * time.Millisecond)
				for _, n := range rn.nodes {
					n.prov.HandleMessages()
				}
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, n := range rn.nodes {
		h := n.prov.Chain().Head()
		rn.t.Logf("node %s: head %d (%s), pool %d", n.prov.ID(), h.Header.Number, h.ID().Short(), n.prov.PoolLen())
	}
	rn.t.Fatalf("timed out waiting for %s", what)
}

// submit introduces a fresh transfer at n.
func (rn *relayNet) submit(n *wireNode) *types.Transaction {
	rn.t.Helper()
	tx := &types.Transaction{Kind: types.TxTransfer, Nonce: rn.nonce, To: types.Address{1}, Value: 1, GasLimit: 21_000, GasPrice: 50 * types.GWei}
	rn.nonce++
	if err := types.SignTx(tx, rn.funder); err != nil {
		rn.t.Fatal(err)
	}
	if err := n.prov.SubmitTx(tx); err != nil {
		rn.t.Fatal(err)
	}
	return tx
}

// seal has n mine the next block.
func (rn *relayNet) seal(n *wireNode) *types.Block {
	rn.t.Helper()
	rn.ts++
	blk, err := n.prov.SealAndPublish(pow.AsBuilt{}, rn.ts, 1_000, 0, nil)
	if err != nil {
		rn.t.Fatal(err)
	}
	return blk
}

func (rn *relayNet) everyoneAt(blk *types.Block) func() bool {
	return func() bool {
		for _, n := range rn.nodes {
			if n.prov.Chain().Head().ID() != blk.ID() {
				return false
			}
		}
		return true
	}
}

func (rn *relayNet) everyonePooled(n int) func() bool {
	return func() bool {
		for _, node := range rn.nodes {
			if node.prov.PoolLen() != n {
				return false
			}
		}
		return true
	}
}

// wantBodies asserts the body frames that crossed the directed link
// from → to.
func (rn *relayNet) wantBodies(from, to *wireNode, txs, blocks int) {
	rn.t.Helper()
	gotTxs, gotBlocks := rn.taps[to.prov.ID()].bodies(from.prov.ID())
	if gotTxs != txs || gotBlocks != blocks {
		rn.t.Errorf("link %s→%s carried %d transaction and %d block bodies, want %d and %d",
			from.prov.ID(), to.prov.ID(), gotTxs, gotBlocks, txs, blocks)
	}
}

// TestLineRelay: on A–B–C a transaction submitted at A and a block sealed
// at A reach C, and each body crosses each link exactly once, forwards:
// A pushes to B, B announces to C, C fetches from B. Nothing echoes back.
func TestLineRelay(t *testing.T) {
	rn := newRelayNet(t)
	a := rn.add("A")
	b := rn.add("B", a)
	c := rn.add("C", b)
	if hasPeer(a.tr, "C") || hasPeer(c.tr, "A") {
		t.Fatal("setup: A and C are linked; this is not a line")
	}

	rn.submit(a)
	rn.pumpUntil("the transaction to reach every pool", rn.everyonePooled(1))
	blk := rn.seal(a)
	if len(blk.Txs) != 1 {
		t.Fatalf("sealed block carries %d transactions, want 1", len(blk.Txs))
	}
	rn.pumpUntil("the block to reach every node", rn.everyoneAt(blk))

	rn.wantBodies(a, b, 1, 1)
	rn.wantBodies(b, c, 1, 1)
	rn.wantBodies(b, a, 0, 0)
	rn.wantBodies(c, b, 0, 0)
	if root := a.prov.Chain().State().Root(); root != c.prov.Chain().State().Root() {
		t.Error("A and C disagree on the state root")
	}
}

// TestStarRelay: three leaves around a hub; what one leaf introduces
// reaches the other two through the hub, one body per link.
func TestStarRelay(t *testing.T) {
	rn := newRelayNet(t)
	hub := rn.add("H")
	l1 := rn.add("L1", hub)
	l2 := rn.add("L2", hub)
	l3 := rn.add("L3", hub)

	rn.submit(l1)
	rn.pumpUntil("the transaction to reach every pool", rn.everyonePooled(1))
	blk := rn.seal(l1)
	rn.pumpUntil("the block to reach every node", rn.everyoneAt(blk))

	rn.wantBodies(l1, hub, 1, 1)
	for _, leaf := range []*wireNode{l2, l3} {
		rn.wantBodies(hub, leaf, 1, 1)
		rn.wantBodies(leaf, hub, 0, 0)
	}
	rn.wantBodies(hub, l1, 0, 0)
}

// TestLineRelaySurvivesALostBody: B's reply carrying block 1 to C is lost.
// Block 2 reaches C as an orphan, and C does not ask B for block 1 a second
// time while its first request is still open — on a healthy link that
// would only deliver it twice. The open request expires, and the next
// block's arrival walks the ordinary ancestor backfill down to block 1.
// All three nodes end on the same head and state root with nothing left
// in flight.
func TestLineRelaySurvivesALostBody(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the node's 5 s fetch expiry")
	}
	rn := newRelayNet(t)
	a := rn.add("A")
	b := rn.add("B", a)
	c := rn.add("C", b)
	inFlight := telemetry.GetGauge("smartcrowd_node_gossip_fetches_in_flight")

	lost := 0
	rn.taps[b.prov.ID()].lose = func(to p2p.NodeID, kind p2p.MsgKind) bool {
		if to == c.prov.ID() && kind == p2p.MsgBlock && lost == 0 {
			lost++
			return true
		}
		return false
	}
	first := rn.seal(a)
	rn.pumpUntil("block 1 to reach B and be lost on its way to C", func() bool {
		return b.prov.Chain().Head().ID() == first.ID() && lost == 1
	})
	second := rn.seal(a)
	rn.pumpUntil("block 2 to reach C", func() bool { return c.prov.OrphanCount() == 1 })
	if c.prov.Chain().HeadNumber() != 0 || inFlight.Value() != 1 {
		t.Fatalf("C is at height %d with %d fetches open, want block 2 parked behind the one open fetch of block 1",
			c.prov.Chain().HeadNumber(), inFlight.Value())
	}

	rn.pumpUntil("C to give up on the lost reply", func() bool { return inFlight.Value() == 0 })
	third := rn.seal(a)
	rn.pumpUntil("block 3 to reach every node", rn.everyoneAt(third))
	root := a.prov.Chain().State().Root()
	for _, n := range []*wireNode{b, c} {
		if got := n.prov.Chain().State().Root(); got != root {
			t.Errorf("node %s state root %s, want %s", n.prov.ID(), got.Short(), root.Short())
		}
	}
	if !c.prov.Chain().HasBlock(first.ID()) || !c.prov.Chain().HasBlock(second.ID()) {
		t.Error("C converged without the blocks it missed")
	}
	if got := inFlight.Value(); got != 0 || c.prov.OrphanCount() != 0 {
		t.Errorf("%d fetches in flight and %d orphans parked after convergence", got, c.prov.OrphanCount())
	}
}
