package wire

import (
	"testing"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/detection"
	"github.com/smartcrowd/smartcrowd/internal/node"
	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// wireNode is one in-process "process": a full provider node attached to
// its own TCP transport, exactly as cmd/smartcrowd's node command wires
// them, just without the OS-process boundary so the test can drive message
// pumping deterministically.
type wireNode struct {
	prov *node.ProviderNode
	tr   *Transport
}

func newWireNode(t *testing.T, id string, peers ...string) *wireNode {
	t.Helper()
	return startWireNode(t, id, nil, nil, peers...)
}

// startWireNode is newWireNode with a genesis allocation and, when tap is
// set, the relay tests' frame counter between the node and its transport.
func startWireNode(t *testing.T, id string, alloc map[types.Address]types.Amount, tap *linkTap, peers ...string) *wireNode {
	t.Helper()
	cfg := chain.DefaultConfig(contract.New(contract.DefaultParams(), detection.NewGroundTruthVerifier(false)))
	cfg.SkipPoWCheck = true // mining is stamped, not ground, in this test
	cfg.Alloc = alloc
	prov, err := node.NewProvider(p2p.NodeID(id), wallet.NewDeterministic(id), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Config{
		NodeID:     p2p.NodeID(id),
		ListenAddr: "127.0.0.1:0",
		Genesis:    prov.Chain().Genesis().ID(),
		Peers:      peers,
		Head: func() (types.Hash, uint64) {
			head := prov.Chain().Head()
			return head.ID(), head.Header.Number
		},
		HandshakeTimeout: 2 * time.Second,
		ReadTimeout:      2 * time.Second,
		WriteTimeout:     2 * time.Second,
		DialBackoffMin:   20 * time.Millisecond,
		DialBackoffMax:   200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	if tap != nil {
		tap.Transport = tr
		prov.AttachTransport(tap)
	} else {
		prov.AttachTransport(tr)
	}
	tr.Start()
	return &wireNode{prov: prov, tr: tr}
}

// pumpUntilConverged drives every node's message loop until all chains
// report the same head at the wanted height.
func pumpUntilConverged(t *testing.T, nodes []*wireNode, height uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, n := range nodes {
			n.prov.HandleMessages()
		}
		head := nodes[0].prov.Chain().Head()
		converged := head.Header.Number == height
		for _, n := range nodes[1:] {
			if n.prov.Chain().Head().ID() != head.ID() {
				converged = false
			}
		}
		if converged {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, n := range nodes {
		h := n.prov.Chain().Head()
		t.Logf("node %s: head %d (%s)", n.prov.ID(), h.Header.Number, h.ID().Short())
	}
	t.Fatalf("nodes did not converge at height %d", height)
}

// TestThreeNodeConvergence is the tentpole's headline proof: three nodes
// gossip over real TCP sockets to a common head, one is killed and the
// network advances without it, and a replacement node for the same
// identity rejoins, starts a replay session off the handshake head
// advertisement, and catches up to the canonical chain.
func TestThreeNodeConvergence(t *testing.T) {
	n1 := newWireNode(t, "n1")
	n2 := newWireNode(t, "n2", n1.tr.Addr())
	n3 := newWireNode(t, "n3", n1.tr.Addr(), n2.tr.Addr())
	all := []*wireNode{n1, n2, n3}

	waitFor(t, 5*time.Second, func() bool {
		return hasPeer(n1.tr, "n2") && hasPeer(n1.tr, "n3") &&
			hasPeer(n2.tr, "n1") && hasPeer(n2.tr, "n3") &&
			hasPeer(n3.tr, "n1") && hasPeer(n3.tr, "n2")
	}, "full mesh")

	// Phase 1: n1 mines, everyone follows. The pre-mining snapshot lets
	// the trace assertions below measure exactly this phase's wire
	// propagation samples.
	pre := telemetry.TakeSnapshot()
	ts := uint64(1_000)
	const difficulty = 1_000
	var lastBlk *types.Block
	for i := 0; i < 3; i++ {
		ts++
		blk, err := n1.prov.MineBlock(ts, difficulty, 0, 0)
		if err != nil {
			t.Fatalf("mine block %d: %v", i+1, err)
		}
		lastBlk = blk
	}
	pumpUntilConverged(t, all, 3, 10*time.Second)

	// Tracing over the wire: the block's seal trace, minted on n1, must be
	// the trace every peer filed its import under — the context rode the
	// gossip frames, not process-local state.
	sealTC, ok := n1.prov.TraceOf(lastBlk.ID())
	if !ok || !sealTC.Valid() {
		t.Fatal("miner did not retain a trace context for its own block")
	}
	for _, n := range []*wireNode{n2, n3} {
		got, ok := n.prov.TraceOf(lastBlk.ID())
		if !ok {
			t.Fatalf("node %s has no trace for the gossiped block", n.prov.ID())
		}
		if got.TraceID != sealTC.TraceID {
			t.Fatalf("node %s filed block under trace %s, want %s", n.prov.ID(), got.TraceID, sealTC.TraceID)
		}
	}
	// All three nodes share this process's trace store, so the one record
	// should hold the miner's seal span plus an import span per follower.
	rec, ok := telemetry.GetTrace(sealTC.TraceID)
	if !ok {
		t.Fatalf("trace %s not in the store", sealTC.TraceID)
	}
	importedOn := map[string]bool{}
	for _, sp := range rec.Spans {
		if sp.Name == "block.import" {
			importedOn[sp.Labels["node"]] = true
		}
	}
	for _, id := range []string{"n2", "n3"} {
		if !importedOn[id] {
			t.Fatalf("trace %s has no block.import span for node %s (spans: %+v)", sealTC.TraceID, id, rec.Spans)
		}
	}
	// And the traced frames produced latency samples on both legs.
	delta := telemetry.TakeSnapshot().Delta(pre)
	if hops := delta[`smartcrowd_wire_propagation_ms_count{leg="hop"}`]; hops < 1 {
		t.Fatalf("no per-hop propagation samples recorded (delta %v)", delta)
	}
	if e2e := delta[`smartcrowd_wire_propagation_ms_count{leg="e2e"}`]; e2e < 1 {
		t.Fatalf("no end-to-end propagation samples recorded (delta %v)", delta)
	}

	// Phase 2: partition — kill n3's transport, network keeps advancing.
	n3.tr.Close()
	waitFor(t, 5*time.Second, func() bool { return !hasPeer(n1.tr, "n3") && !hasPeer(n2.tr, "n3") }, "n3 gone")
	for i := 0; i < 3; i++ {
		ts++
		if _, err := n1.prov.MineBlock(ts, difficulty, 0, 0); err != nil {
			t.Fatalf("mine block %d: %v", i+4, err)
		}
	}
	pumpUntilConverged(t, []*wireNode{n1, n2}, 6, 10*time.Second)
	if got := n3.prov.Chain().HeadNumber(); got != 3 {
		t.Fatalf("partitioned node advanced to %d, want 3", got)
	}

	// Phase 3: rejoin — a fresh transport for n3 dials back in. The
	// handshake advertises n1's head, the node's syncer range-requests
	// blocks 4–6 from it, and n3 catches up without any new mining.
	tr3b, err := New(Config{
		NodeID:     "n3",
		ListenAddr: "127.0.0.1:0",
		Genesis:    n3.prov.Chain().Genesis().ID(),
		Peers:      []string{n1.tr.Addr()},
		Head: func() (types.Hash, uint64) {
			head := n3.prov.Chain().Head()
			return head.ID(), head.Header.Number
		},
		HandshakeTimeout: 2 * time.Second,
		ReadTimeout:      2 * time.Second,
		WriteTimeout:     2 * time.Second,
		DialBackoffMin:   20 * time.Millisecond,
		DialBackoffMax:   200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr3b.Close() })
	n3.prov.AttachTransport(tr3b)
	n3.tr = tr3b
	tr3b.Start()

	pumpUntilConverged(t, all, 6, 10*time.Second)
	want := n1.prov.Chain().Head().ID()
	if got := n3.prov.Chain().Head().ID(); got != want {
		t.Fatalf("rejoined node head %s, want %s", got.Short(), want.Short())
	}
}

// TestSnapSyncOverTCP proves the snap path end to end on real sockets: a
// node grows a chain past the snap threshold, then a cold node dials in.
// The handshake fabricates the head announce, the joiner pulls
// manifest, state chunks and the block prefix over the wire, verifies the
// snapshot against the commitment root, and lands on the server's head —
// all without the test injecting a single protocol message.
func TestSnapSyncOverTCP(t *testing.T) {
	server := newWireNode(t, "srv")
	ts := uint64(1_000)
	for i := 0; i < 40; i++ {
		ts += 15_000
		if _, err := server.prov.MineBlock(ts, 1_000, 0, 0); err != nil {
			t.Fatalf("mine block %d: %v", i+1, err)
		}
	}

	pre := telemetry.TakeSnapshot()
	joiner := newWireNode(t, "join", server.tr.Addr())
	pumpUntilConverged(t, []*wireNode{server, joiner}, 40, 15*time.Second)

	if got, want := joiner.prov.Chain().Head().ID(), server.prov.Chain().Head().ID(); got != want {
		t.Fatalf("joiner head %s, want %s", got.Short(), want.Short())
	}
	if got := joiner.prov.Chain().State().Root(); got != server.prov.Chain().State().Root() {
		t.Fatal("joiner state root diverges after snap-sync")
	}
	delta := telemetry.TakeSnapshot().Delta(pre)
	if delta["smartcrowd_node_snapshots_adopted_total"] < 1 {
		t.Fatalf("joiner did not adopt a snapshot (delta %v)", delta)
	}
	if st := joiner.prov.SyncStatus(); st.Mode != node.SyncLive || st.ApplyingSnapshot {
		t.Fatalf("post-sync status = %+v, want live", st)
	}
}
