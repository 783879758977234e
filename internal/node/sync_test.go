package node

import (
	"strings"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/detection"
	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/state"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// syncNet is a two-and-more-party harness for the snap/replay syncer over
// the simulated bus. The bus carries any message kind verbatim but never
// fabricates capability announces (that is the wire transport's job), so
// tests inject the announce a TCP transport would synthesize.
type syncNet struct {
	t   *testing.T
	net *p2p.Network
	cfg chain.Config
	now uint64
}

func newSyncNet(t *testing.T) *syncNet {
	t.Helper()
	cfg := chain.DefaultConfig(contract.New(contract.DefaultParams(), detection.NewGroundTruthVerifier(false)))
	cfg.Rule = pow.Sampled
	return &syncNet{t: t, net: p2p.New(p2p.Config{Seed: 7}), cfg: cfg}
}

func (sn *syncNet) provider(id string) *ProviderNode {
	sn.t.Helper()
	p, err := NewProvider(p2p.NodeID(id), wallet.NewDeterministic(id), sn.cfg, sn.net)
	if err != nil {
		sn.t.Fatal(err)
	}
	return p
}

// grow mines n empty blocks on p, settling gossip between each.
func (sn *syncNet) grow(p *ProviderNode, n int, drain ...*ProviderNode) {
	sn.t.Helper()
	for i := 0; i < n; i++ {
		sn.now += 15_000
		if _, err := p.SealAndPublish(pow.AsBuilt{}, sn.now, 1000, 0, nil); err != nil {
			sn.t.Fatal(err)
		}
		sn.pump(append([]*ProviderNode{p}, drain...), 4)
	}
}

// announce injects the synthetic head announce a wire transport would
// fabricate for `to` about `from`.
func (sn *syncNet) announce(from, to *ProviderNode) {
	sn.t.Helper()
	head := from.Chain().Head()
	err := sn.net.Send(from.ID(), to.ID(), p2p.Message{
		Kind:    p2p.MsgHeadAnnounce,
		Payload: p2p.EncodeHeadAnnounce(head.ID(), head.Header.Number),
	})
	if err != nil {
		sn.t.Fatal(err)
	}
}

// pump advances time and drains every node's inbox for a fixed number of
// rounds.
func (sn *syncNet) pump(nodes []*ProviderNode, rounds int) {
	for i := 0; i < rounds; i++ {
		sn.now += 10
		sn.net.AdvanceTo(sn.now)
		for _, p := range nodes {
			p.HandleMessages()
		}
	}
}

// driveUntilConverged pumps until b's head equals a's, recording every
// sync mode b passes through.
func (sn *syncNet) driveUntilConverged(a, b *ProviderNode, maxRounds int) map[string]bool {
	sn.t.Helper()
	modes := map[string]bool{}
	for i := 0; i < maxRounds; i++ {
		modes[b.SyncStatus().Mode] = true
		if b.Chain().Head().ID() == a.Chain().Head().ID() {
			return modes
		}
		sn.pump([]*ProviderNode{a, b}, 1)
	}
	sn.t.Fatalf("no convergence after %d rounds: a at %d, b at %d (modes seen: %v)",
		maxRounds, a.Chain().HeadNumber(), b.Chain().HeadNumber(), modes)
	return nil
}

// TestSnapSyncColdJoin is the syncer's headline path: a cold node joining
// a chain past the snap threshold downloads the snapshot plus the block
// prefix, verifies the state against the commitment root, and lands on
// the serving peer's exact head without replaying execution.
func TestSnapSyncColdJoin(t *testing.T) {
	sn := newSyncNet(t)
	a := sn.provider("pa")
	sn.grow(a, 40)

	b := sn.provider("pb")
	pre := telemetry.TakeSnapshot()
	sn.announce(a, b)
	modes := sn.driveUntilConverged(a, b, 400)

	if !modes[SyncSnap] {
		t.Errorf("cold join never entered snap mode (saw %v)", modes)
	}
	if b.Chain().HeadNumber() != 40 {
		t.Errorf("b head = %d, want 40", b.Chain().HeadNumber())
	}
	delta := telemetry.TakeSnapshot().Delta(pre)
	if delta["smartcrowd_node_snapshots_adopted_total"] < 1 {
		t.Errorf("no snapshot adoption recorded: %v", delta)
	}
	if st := b.SyncStatus(); st.Mode != SyncLive || st.ApplyingSnapshot {
		t.Errorf("post-sync status = %+v, want live/idle", st)
	}

	// The adopted prefix is archival: headers and blocks are all present
	// and canonical, byte-identical to the server's.
	for n := uint64(1); n <= 40; n++ {
		wantB, _ := a.Chain().CurrentView().BlockByNumber(n)
		gotB, err := b.Chain().CurrentView().BlockByNumber(n)
		if err != nil {
			t.Fatalf("b missing block %d: %v", n, err)
		}
		if gotB.ID() != wantB.ID() {
			t.Fatalf("b block %d diverges", n)
		}
	}
	// And the synced node is a full participant: it can mine on top.
	sn.now += 15_000
	if _, err := b.SealAndPublish(pow.AsBuilt{}, sn.now, 1000, 0, nil); err != nil {
		t.Fatalf("synced node cannot mine: %v", err)
	}
}

// TestSyncStatusCountsPrefixRecords: while a snap session collects the
// block prefix, SyncStatus counts the records it holds against the
// snapshot height — a range at a time — and a replay session in its own
// "blocks" phase counts imported blocks against its target.
func TestSyncStatusCountsPrefixRecords(t *testing.T) {
	sn := newSyncNet(t)
	a := sn.provider("pa")
	sn.grow(a, maxRangeBlocks+40)

	b := sn.provider("pb")
	sn.announce(a, b)
	seen := map[uint64]bool{}
	for i := 0; i < 400 && b.Chain().Head().ID() != a.Chain().Head().ID(); i++ {
		if st := b.SyncStatus(); st.Mode == SyncSnap && st.Phase == "blocks" {
			if st.Total != maxRangeBlocks+40 || st.Done > st.Total {
				t.Fatalf("prefix progress %d of %d, want of %d", st.Done, st.Total, maxRangeBlocks+40)
			}
			seen[st.Done] = true
		}
		sn.pump([]*ProviderNode{a, b}, 1)
	}
	if !seen[0] || !seen[maxRangeBlocks] {
		t.Errorf("prefix progress seen %v, want 0 and then %d records", seen, maxRangeBlocks)
	}

	// A node one block in replays rather than snap-joins.
	c := sn.provider("pc")
	sn.grow(c, 1)
	sn.announce(a, c)
	sn.pump([]*ProviderNode{c}, 1)
	if st := c.SyncStatus(); st.Mode != SyncReplay || st.Phase != "blocks" || st.Total != a.Chain().HeadNumber() {
		t.Errorf("replay status %+v, want the blocks phase toward #%d", st, a.Chain().HeadNumber())
	}
}

// TestSnapSyncTailAfterSnapshot covers the tail phase: the served
// snapshot trails the announced head (the server's cache is allowed to
// lag by snapServeSlack), so the gap blocks arrive as ranges through
// normal verified import after the snapshot is adopted.
func TestSnapSyncTailAfterSnapshot(t *testing.T) {
	sn := newSyncNet(t)
	a := sn.provider("pa")
	sn.grow(a, 40)

	// First joiner primes a's serving cache at height 40.
	b1 := sn.provider("pb")
	sn.announce(a, b1)
	sn.driveUntilConverged(a, b1, 400)

	// The chain advances; the cache (height 40) stays within slack.
	sn.grow(a, 3, b1)

	b2 := sn.provider("pc")
	sn.announce(a, b2)
	modes := sn.driveUntilConverged(a, b2, 400)
	if !modes[SyncSnap] {
		t.Errorf("second joiner never entered snap mode (saw %v)", modes)
	}
	if b2.Chain().HeadNumber() != 43 {
		t.Errorf("b2 head = %d, want 43", b2.Chain().HeadNumber())
	}
}

// TestReplaySyncSmallGap proves the cheap path stays cheap: a cold node
// a few blocks behind replays ranges instead of shipping a snapshot.
func TestReplaySyncSmallGap(t *testing.T) {
	sn := newSyncNet(t)
	a := sn.provider("pa")
	sn.grow(a, 5)

	b := sn.provider("pb")
	pre := telemetry.TakeSnapshot()
	sn.announce(a, b)
	modes := sn.driveUntilConverged(a, b, 200)
	if modes[SyncSnap] {
		t.Errorf("small gap used snap mode (saw %v)", modes)
	}
	if !modes[SyncReplay] {
		t.Errorf("small gap never entered replay mode (saw %v)", modes)
	}
	delta := telemetry.TakeSnapshot().Delta(pre)
	if delta["smartcrowd_node_snapshots_adopted_total"] != 0 {
		t.Errorf("replay path adopted a snapshot: %v", delta)
	}
}

// TestForkedRejoinOnQuietNetwork: a node on a shorter fork hears only the
// handshake announce of a longer chain — no gossip follows. The replay
// session's first range cannot link (the peer's block local+1 descends
// from a block we never saw), so the node must fall back to fetching the
// announced head and crawling its ancestry back to the fork point.
func TestForkedRejoinOnQuietNetwork(t *testing.T) {
	sn := newSyncNet(t)
	a := sn.provider("pa")
	b := sn.provider("pb")
	sn.net.Partition([]p2p.NodeID{a.ID()}, []p2p.NodeID{b.ID()})
	sn.grow(a, 5)
	sn.grow(b, 3)
	sn.net.Heal()
	if a.Chain().HasBlock(b.Chain().Head().ID()) || b.Chain().HeadNumber() != 3 {
		t.Fatal("partition setup wrong: the chains did not fork")
	}

	sn.announce(a, b)
	modes := sn.driveUntilConverged(a, b, 400)
	if !modes[SyncReplay] {
		t.Errorf("rejoin never tried range replay (saw %v)", modes)
	}
	if b.Syncing() {
		t.Error("session still open after convergence")
	}
}

// TestRangeRequestClampDoesNotWrap: the widest well-formed request,
// [0, 2⁶⁴−1], has a block count that wraps to 0 in uint64; it must still
// be clamped to maxRangeBlocks records.
func TestRangeRequestClampDoesNotWrap(t *testing.T) {
	sn := newSyncNet(t)
	a := sn.provider("pa")
	sn.grow(a, maxRangeBlocks+10)

	const asker = p2p.NodeID("asker")
	sn.net.Join(asker)
	for _, r := range []struct {
		lo, hi uint64
		want   int
	}{{0, ^uint64(0), maxRangeBlocks}, {0, maxRangeBlocks + 5, maxRangeBlocks}, {3, 4, 2}} {
		err := sn.net.Send(asker, a.ID(), p2p.Message{Kind: p2p.MsgRangeRequest, Payload: p2p.EncodeRangeRequest(r.lo, r.hi)})
		if err != nil {
			t.Fatal(err)
		}
		sn.pump([]*ProviderNode{a}, 4)
		msgs := sn.net.Receive(asker)
		if len(msgs) != 1 || msgs[0].Kind != p2p.MsgRangeBlocks {
			t.Fatalf("range [%d, %d]: got %d replies, want one MsgRangeBlocks", r.lo, r.hi, len(msgs))
		}
		records, err := p2p.ParseRangeBlocks(msgs[0].Payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(records) != r.want {
			t.Errorf("range [%d, %d]: %d records, want %d", r.lo, r.hi, len(records), r.want)
		}
	}
}

// TestAnnounceBehindIsIgnored: announces from peers at or behind our head
// start no session.
func TestAnnounceBehindIsIgnored(t *testing.T) {
	sn := newSyncNet(t)
	a := sn.provider("pa")
	b := sn.provider("pb")
	sn.grow(a, 2, b) // both at 2 via gossip

	sn.announce(a, b)
	sn.pump([]*ProviderNode{a, b}, 5)
	if b.Syncing() {
		t.Error("announce at equal height started a session")
	}
	if st := b.SyncStatus(); st.Mode != SyncLive {
		t.Errorf("status mode = %s, want live", st.Mode)
	}
}

// TestUndersizedSnapChunkAborts: a serving peer must deliver chunks of
// exactly the manifest's ChunkSize (the final one completing StateSize
// exactly). A peer dribbling undersized chunks — which would stretch the
// session, and its stall-timer resets, arbitrarily — is cut off at the
// first short chunk.
func TestUndersizedSnapChunkAborts(t *testing.T) {
	sn := newSyncNet(t)
	a := sn.provider("pa")
	sn.grow(a, 40)

	b := sn.provider("pb")
	evil := p2p.NodeID("evil")
	sn.net.Join(evil)

	head := a.Chain().Head()
	manifest := p2p.SnapManifest{
		Height:     head.Header.Number,
		BlockID:    head.ID(),
		StateRoot:  head.Header.StateRoot,
		StateSize:  1 << 20,
		ChunkSize:  1 << 10,
		HeadNumber: head.Header.Number,
		HeadID:     head.ID(),
	}
	err := sn.net.Send(evil, b.ID(), p2p.Message{
		Kind:    p2p.MsgHeadAnnounce,
		Payload: p2p.EncodeHeadAnnounce(head.ID(), head.Header.Number),
	})
	if err != nil {
		t.Fatal(err)
	}

	pre := telemetry.TakeSnapshot()
	for round := 0; round < 50; round++ {
		sn.now += 10
		sn.net.AdvanceTo(sn.now)
		b.HandleMessages()
		for _, msg := range sn.net.Receive(evil) {
			switch msg.Kind {
			case p2p.MsgSnapRequest:
				_ = sn.net.Send(evil, b.ID(), p2p.Message{Kind: p2p.MsgSnapManifest, Payload: p2p.EncodeSnapManifest(manifest)})
			case p2p.MsgSnapChunkRequest:
				_, idx, err := p2p.ParseSnapChunkRequest(msg.Payload)
				if err != nil {
					t.Fatal(err)
				}
				// One byte instead of the declared 1 KiB.
				_ = sn.net.Send(evil, b.ID(), p2p.Message{
					Kind:    p2p.MsgSnapChunk,
					Payload: p2p.EncodeSnapChunk(manifest.BlockID, idx, []byte{0xcc}),
				})
			}
		}
	}

	if b.Syncing() {
		t.Error("session still open after an undersized chunk")
	}
	delta := telemetry.TakeSnapshot().Delta(pre)
	aborted := false
	for key, v := range delta {
		if strings.Contains(key, "chunk-size-mismatch") && v > 0 {
			aborted = true
		}
	}
	if !aborted {
		t.Errorf("no chunk-size-mismatch abort recorded: %v", delta)
	}
}

// TestHostileSnapshotRejectedAndReplayed is the adversarial guarantee: a
// peer that serves a well-formed snapshot whose state does not hash to
// the snapshot block's commitment root is caught before adoption, and the
// joiner falls back to executing the real blocks — converging anyway,
// with the hostile state discarded.
func TestHostileSnapshotRejectedAndReplayed(t *testing.T) {
	sn := newSyncNet(t)
	a := sn.provider("pa")
	sn.grow(a, 40)

	b := sn.provider("pb")
	evil := p2p.NodeID("evil")
	sn.net.Join(evil)

	// A valid-codec snapshot of the WRONG state: restores fine, but its
	// commitment root cannot match the height-40 header.
	bogus := state.New()
	if err := bogus.Credit(types.Address{0xde, 0xad}, types.EtherAmount(1_000_000)); err != nil {
		t.Fatal(err)
	}
	bogusBlob := bogus.Serialize()

	head := a.Chain().Head()
	manifest := p2p.SnapManifest{
		Height:     head.Header.Number,
		BlockID:    head.ID(),
		StateRoot:  head.Header.StateRoot,
		StateSize:  uint64(len(bogusBlob)),
		ChunkSize:  64,
		HeadNumber: head.Header.Number,
		HeadID:     head.ID(),
	}

	// The evil peer announces a's true head with the snap capability, then
	// plays the serving protocol with its forged state and a's real blocks.
	err := sn.net.Send(evil, b.ID(), p2p.Message{
		Kind:    p2p.MsgHeadAnnounce,
		Payload: p2p.EncodeHeadAnnounce(head.ID(), head.Header.Number),
	})
	if err != nil {
		t.Fatal(err)
	}

	pre := telemetry.TakeSnapshot()
	for round := 0; round < 2000; round++ {
		if b.Chain().Head().ID() == head.ID() {
			break
		}
		sn.now += 10
		sn.net.AdvanceTo(sn.now)
		b.HandleMessages()
		for _, msg := range sn.net.Receive(evil) {
			switch msg.Kind {
			case p2p.MsgSnapRequest:
				_ = sn.net.Send(evil, b.ID(), p2p.Message{Kind: p2p.MsgSnapManifest, Payload: p2p.EncodeSnapManifest(manifest)})
			case p2p.MsgSnapChunkRequest:
				_, idx, err := p2p.ParseSnapChunkRequest(msg.Payload)
				if err != nil {
					t.Fatal(err)
				}
				start := int(idx) * int(manifest.ChunkSize)
				end := start + int(manifest.ChunkSize)
				if end > len(bogusBlob) {
					end = len(bogusBlob)
				}
				_ = sn.net.Send(evil, b.ID(), p2p.Message{
					Kind:    p2p.MsgSnapChunk,
					Payload: p2p.EncodeSnapChunk(manifest.BlockID, idx, bogusBlob[start:end]),
				})
			case p2p.MsgRangeRequest:
				lo, hi, err := p2p.ParseRangeRequest(msg.Payload)
				if err != nil {
					t.Fatal(err)
				}
				payload := p2p.EncodeRangeBlocks(a.CurrentView().RecordsRange(lo, hi), maxRangeBytes)
				_ = sn.net.Send(evil, b.ID(), p2p.Message{Kind: p2p.MsgRangeBlocks, Payload: payload})
			}
		}
	}

	if b.Chain().Head().ID() != head.ID() {
		t.Fatalf("victim never converged: at %d, want %d", b.Chain().HeadNumber(), head.Header.Number)
	}
	delta := telemetry.TakeSnapshot().Delta(pre)
	if delta["smartcrowd_node_snapshots_adopted_total"] != 0 {
		t.Error("hostile snapshot was adopted")
	}
	if delta[`smartcrowd_node_sync_fallbacks_total{reason="adopt-failed"}`] < 1 {
		t.Errorf("no adopt-failed fallback recorded: %v", delta)
	}
	// Replayed, not adopted: the state b ended on was recomputed by
	// execution and matches a's root.
	if b.Chain().State().Root() != a.Chain().State().Root() {
		t.Error("replayed state root diverges from the honest chain")
	}
}

// Syncing reports whether a catch-up session is in progress (the orphan
// parent-crawl is suppressed while one is, so the session's ordered
// ranges are not raced by ad-hoc backfill).
func (p *ProviderNode) Syncing() bool { return p.sync.active() }
