package node

import (
	"testing"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// gossipRig is one real provider on the bus beside bare bus identities the
// test speaks for: it injects their frames and reads what the provider
// sent them back. The provider's clock is the test's.
type gossipRig struct {
	t   *testing.T
	cl  *cluster
	p   *ProviderNode
	now time.Time
}

func newGossipRig(t *testing.T, peers ...p2p.NodeID) *gossipRig {
	t.Helper()
	alloc, _, _ := fundedActors()
	r := &gossipRig{t: t, cl: newCluster(t, 1, alloc), now: time.Unix(1_000, 0)}
	r.p = r.cl.providers[0]
	r.p.clock = func() time.Time { return r.now }
	for _, id := range peers {
		r.cl.net.Join(id)
	}
	return r
}

// deliver hands the provider one frame from a peer and lets it react.
func (r *gossipRig) deliver(from p2p.NodeID, kind p2p.MsgKind, payload []byte) {
	r.t.Helper()
	if err := r.cl.net.Send(from, r.p.ID(), p2p.Message{Kind: kind, Payload: payload}); err != nil {
		r.t.Fatal(err)
	}
	r.pump()
}

// wait moves the provider's clock on and lets it act on the time.
func (r *gossipRig) wait(d time.Duration) {
	r.now = r.now.Add(d)
	r.pump()
}

func (r *gossipRig) pump() {
	r.cl.now += 10
	r.cl.net.AdvanceTo(r.cl.now)
	r.p.HandleMessages()
	r.cl.now += 10
	r.cl.net.AdvanceTo(r.cl.now)
}

// asked drains what the provider sent a peer and returns the ids it asked
// that peer for, transactions and blocks together. The provider's own
// announcements are skipped; any other frame fails the test.
func (r *gossipRig) asked(peer p2p.NodeID) []types.Hash {
	r.t.Helper()
	var ids []types.Hash
	for _, m := range r.cl.net.Receive(peer) {
		switch m.Kind {
		case p2p.MsgTxRequest:
			list, err := p2p.ParseTxRequest(m.Payload)
			if err != nil {
				r.t.Fatalf("provider sent a malformed tx request: %v", err)
			}
			for i := 0; i < list.Len(); i++ {
				ids = append(ids, list.At(i))
			}
		case p2p.MsgBlockRequest:
			id, err := p2p.ParseBlockRequest(m.Payload)
			if err != nil {
				r.t.Fatalf("provider sent a malformed block request: %v", err)
			}
			ids = append(ids, id)
		case p2p.MsgAnnounce:
		default:
			r.t.Fatalf("provider sent %s a %s frame, want only requests", peer, m.Kind)
		}
	}
	return ids
}

// tableSizes reads the in-flight table and its per-peer index.
func (r *gossipRig) tableSizes() (entries, peers int) {
	r.p.mu.Lock()
	defer r.p.mu.Unlock()
	return len(r.p.fetches.byID), len(r.p.fetches.perPeer)
}

func junkIDs(seed byte, n int) []types.Hash {
	ids := make([]types.Hash, n)
	for i := range ids {
		ids[i] = types.HashBytes([]byte{seed, byte(i), byte(i >> 8), byte(i >> 16)})
	}
	return ids
}

// TestTwoAnnouncersOneFetchThenRetryThenForget walks one id through the
// fetch table: two peers announce it, nobody is asked until fetchDelay has
// passed and then only the first; the first stays silent past fetchExpiry
// and the second is asked, once; the second stays silent too and the id is
// forgotten, leaving both maps empty.
func TestTwoAnnouncersOneFetchThenRetryThenForget(t *testing.T) {
	for _, item := range []p2p.MsgKind{p2p.MsgTx, p2p.MsgBlock} {
		t.Run(item.String(), func(t *testing.T) {
			r := newGossipRig(t, "a", "b", "c")
			id := junkIDs(1, 1)
			timeouts := mFetchTimeout[item].Value()
			r.deliver("a", p2p.MsgAnnounce, p2p.EncodeAnnounce(item, id))
			r.deliver("b", p2p.MsgAnnounce, p2p.EncodeAnnounce(item, id))
			r.deliver("a", p2p.MsgAnnounce, p2p.EncodeAnnounce(item, id)) // a repeat changes nothing
			r.wait(fetchDelay - time.Millisecond)
			if a, b := r.asked("a"), r.asked("b"); len(a)+len(b) != 0 {
				t.Fatal("an announcer was asked before the origin's push had its fetchDelay")
			}
			if n, _ := r.tableSizes(); n != 1 {
				t.Fatalf("%d ids in the table, want 1", n)
			}
			r.wait(fetchDelay)
			if a, b := r.asked("a"), r.asked("b"); len(a) != 1 || a[0] != id[0] || len(b) != 0 {
				t.Fatalf("two announcers: asked a for %d ids and b for %d, want 1 and 0", len(a), len(b))
			}

			r.wait(fetchExpiry - time.Millisecond)
			if a, b := r.asked("a"), r.asked("b"); len(a)+len(b) != 0 {
				t.Fatal("a request went out before the first announcer's time was up")
			}
			r.wait(fetchDelay)
			if a, b := r.asked("a"), r.asked("b"); len(a) != 0 || len(b) != 1 || b[0] != id[0] {
				t.Fatalf("after expiry: asked a for %d ids and b for %d, want 0 and 1", len(a), len(b))
			}
			// A third announcer does not buy the id a third attempt.
			r.deliver("c", p2p.MsgAnnounce, p2p.EncodeAnnounce(item, id))
			r.wait(2 * fetchExpiry)
			if a, b, c := r.asked("a"), r.asked("b"), r.asked("c"); len(a)+len(b)+len(c) != 0 {
				t.Fatal("the fetch was retried a second time")
			}
			if n, peers := r.tableSizes(); n != 0 || peers != 0 {
				t.Fatalf("table holds %d fetches for %d peers after the retry expired, want it empty", n, peers)
			}
			if got := mFetchTimeout[item].Value() - timeouts; got != 2 {
				t.Errorf("timeout counter moved by %d, want 2 (first announcer, then the fallback)", got)
			}
			if got := mFetchesInFlight.Value(); got != 0 {
				t.Errorf("in-flight gauge reads %d, want 0", got)
			}
		})
	}
}

// TestLoneSilentAnnouncerIsForgotten: with nobody else to ask, expiry just
// drops the entry.
func TestLoneSilentAnnouncerIsForgotten(t *testing.T) {
	r := newGossipRig(t, "a")
	r.deliver("a", p2p.MsgAnnounce, p2p.EncodeAnnounce(p2p.MsgTx, junkIDs(2, 3)))
	r.wait(fetchDelay)
	if got := r.asked("a"); len(got) != 3 {
		t.Fatalf("asked for %d ids, want 3", len(got))
	}
	r.wait(2 * fetchExpiry)
	if n, peers := r.tableSizes(); n != 0 || peers != 0 {
		t.Fatalf("table holds %d fetches for %d peers, want it empty", n, peers)
	}
	if got := r.asked("a"); len(got) != 0 {
		t.Fatalf("the silent announcer was asked again for %d ids", len(got))
	}
}

// TestPushDuringFetchDelayIsNotFetchedAgain is the mesh case: a neighbour's
// announcement overtakes the origin's push of the same transaction. The
// push lands inside fetchDelay, takes the id off the table, and nobody is
// asked for a second copy.
func TestPushDuringFetchDelayIsNotFetchedAgain(t *testing.T) {
	r := newGossipRig(t, "origin", "neighbour")
	_, releasing, _ := fundedActors()
	tx := &types.Transaction{Kind: types.TxTransfer, To: types.Address{1}, Value: 1, GasLimit: 21_000, GasPrice: 50 * types.GWei}
	if err := types.SignTx(tx, releasing); err != nil {
		t.Fatal(err)
	}
	dups, unsolicited := mGossipDupTx.Value(), mFetchUnsolicited[p2p.MsgTx].Value()
	r.deliver("neighbour", p2p.MsgAnnounce, p2p.EncodeAnnounce(p2p.MsgTx, []types.Hash{tx.Hash()}))
	r.wait(fetchDelay / 2)
	r.deliver("origin", p2p.MsgTx, types.EncodeTx(tx))
	if r.p.PoolLen() != 1 {
		t.Fatalf("pooled %d transactions after the push, want 1", r.p.PoolLen())
	}
	r.wait(fetchDelay)
	if got := r.asked("neighbour"); len(got) != 0 {
		t.Errorf("the neighbour was asked for %d ids the origin had already pushed", len(got))
	}
	if n, peers := r.tableSizes(); n != 0 || peers != 0 {
		t.Errorf("table holds %d ids for %d peers after the push, want it empty", n, peers)
	}
	if d, u := mGossipDupTx.Value()-dups, mFetchUnsolicited[p2p.MsgTx].Value()-unsolicited; d != 0 || u != 0 {
		t.Errorf("duplicates moved by %d and unsolicited fetches by %d, want 0 and 0", d, u)
	}
}

// TestAnnouncedTxIsFetchedFromTheAnnouncersPool drives the whole exchange
// between two real providers: b learns an id, asks, a answers from its
// pool with an ordinary MsgTx, b pools the transaction and settles the
// fetch. A known id is dropped on lookup: no second request.
func TestAnnouncedTxIsFetchedFromTheAnnouncersPool(t *testing.T) {
	alloc, releasing, _ := fundedActors()
	cl := newCluster(t, 2, alloc)
	a, b := cl.providers[0], cl.providers[1]
	tx := &types.Transaction{Kind: types.TxTransfer, To: types.Address{1}, Value: 1, GasLimit: 21_000, GasPrice: 50 * types.GWei}
	if err := types.SignTx(tx, releasing); err != nil {
		t.Fatal(err)
	}
	// a holds the transaction without b having been pushed it.
	cl.net.Partition([]p2p.NodeID{a.ID()}, []p2p.NodeID{b.ID()})
	if err := a.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	cl.settle()
	cl.net.Heal()
	if b.PoolLen() != 0 {
		t.Fatal("setup: the push reached b across the partition")
	}

	now := time.Unix(1_000, 0)
	b.clock = func() time.Time { return now }
	ok, sent := mFetchOK[p2p.MsgTx].Value(), cl.net.Stats().Sent
	announce := p2p.Message{Kind: p2p.MsgAnnounce, Payload: p2p.EncodeAnnounce(p2p.MsgTx, []types.Hash{tx.Hash()})}
	_ = cl.net.Send(a.ID(), b.ID(), announce)
	cl.settle()
	if b.PoolLen() != 0 || len(b.fetches.byID) != 1 {
		t.Fatalf("before fetchDelay: b pooled %d and waits for %d, want 0 and 1", b.PoolLen(), len(b.fetches.byID))
	}
	now = now.Add(fetchDelay)
	cl.settle()
	if b.PoolLen() != 1 {
		t.Fatalf("b pooled %d transactions after the announcement, want 1", b.PoolLen())
	}
	if got := mFetchOK[p2p.MsgTx].Value() - ok; got != 1 {
		t.Errorf("fetch-ok counter moved by %d, want 1", got)
	}
	if n := len(b.fetches.byID); n != 0 {
		t.Errorf("%d ids still in b's table", n)
	}
	// announcement, request, body, and b's own announcement back to nobody:
	// a is where it came from, and there is no third node.
	if got := cl.net.Stats().Sent - sent; got != 3 {
		t.Errorf("%d frames crossed the bus for one fetch, want 3", got)
	}

	sent = cl.net.Stats().Sent
	_ = cl.net.Send(a.ID(), b.ID(), announce)
	cl.settle()
	if got := cl.net.Stats().Sent - sent; got != 1 {
		t.Errorf("announcing a held transaction caused %d further frames, want none", got-1)
	}
}

// TestHostileAnnouncerIsBounded: a peer that announces 10⁵ ids nobody has
// parks at most its share of the table and is asked for at most that many;
// junk requests are ignored; malformed announcements change nothing; and
// once the junk expires every map is back to empty.
func TestHostileAnnouncerIsBounded(t *testing.T) {
	r := newGossipRig(t, "evil", "honest")
	junk := junkIDs(3, 100_000)
	for item, ids := range map[p2p.MsgKind][]types.Hash{p2p.MsgTx: junk[:50_000], p2p.MsgBlock: junk[50_000:]} {
		for len(ids) > 0 {
			n := min(len(ids), p2p.MaxAnnounceIDs)
			_ = r.cl.net.Send("evil", r.p.ID(), p2p.Message{Kind: p2p.MsgAnnounce, Payload: p2p.EncodeAnnounce(item, ids[:n])})
			ids = ids[n:]
		}
	}
	r.pump()
	if n, peers := r.tableSizes(); n != maxFetchesPerPeer || peers != 1 {
		t.Fatalf("10⁵ junk ids parked %d fetches for %d peers, want the per-peer share %d", n, peers, maxFetchesPerPeer)
	}
	r.wait(fetchDelay)
	if got := len(r.asked("evil")); got != maxFetchesPerPeer {
		t.Fatalf("the announcer was asked for %d ids, want %d", got, maxFetchesPerPeer)
	}

	// An honest peer still gets its share beside the junk.
	r.deliver("honest", p2p.MsgAnnounce, p2p.EncodeAnnounce(p2p.MsgTx, junkIDs(4, 5)))
	r.wait(fetchDelay)
	if got := len(r.asked("honest")); got != 5 {
		t.Fatalf("honest announcer was asked for %d ids beside a hostile one, want 5", got)
	}

	// Requests for things the node does not hold, and malformed frames.
	sent := r.cl.net.Stats().Sent
	r.deliver("evil", p2p.MsgTxRequest, p2p.EncodeTxRequest(junk[:p2p.MaxAnnounceIDs]))
	r.deliver("evil", p2p.MsgBlockRequest, p2p.EncodeBlockRequest(junk[0]))
	oversized := make([]byte, 1+(p2p.MaxAnnounceIDs+1)*types.HashSize)
	oversized[0] = byte(p2p.MsgTx)
	r.deliver("evil", p2p.MsgAnnounce, oversized)
	r.deliver("evil", p2p.MsgAnnounce, oversized[:len(oversized)-7])
	r.deliver("evil", p2p.MsgTxRequest, oversized[1:])
	if got := r.cl.net.Stats().Sent - sent; got != 5 {
		t.Errorf("the node answered junk with %d frames", got-5)
	}
	if n, _ := r.tableSizes(); n != maxFetchesPerPeer+5 {
		t.Errorf("junk requests or malformed announcements changed the table: %d entries", n)
	}

	r.wait(2 * fetchExpiry)
	if n, peers := r.tableSizes(); n != 0 || peers != 0 {
		t.Fatalf("table holds %d fetches for %d peers after expiry, want it empty", n, peers)
	}
	if a, b := r.asked("evil"), r.asked("honest"); len(a)+len(b) != 0 {
		t.Error("expired junk was asked for again")
	}
}

// TestBackfillDoesNotAskTwiceForAParentOnItsWay: an orphan's parent that
// is already an announced item is fetched once. If the peer that sent the
// orphan has the open request, nothing more is sent; if the parent was
// still waiting out fetchDelay, the backfill is its fetch and the sweep
// does not repeat it; if someone else was asked, the orphan's sender is
// asked too — a silent announcer must not be able to hold a block back.
func TestBackfillDoesNotAskTwiceForAParentOnItsWay(t *testing.T) {
	alloc, _, _ := fundedActors()
	src := newCluster(t, 1, alloc) // same genesis; its blocks are what the peers "have"
	parent, child := src.mine(0), src.mine(0)
	announce := p2p.EncodeAnnounce(p2p.MsgBlock, []types.Hash{parent.ID()})
	for _, tc := range []struct {
		name         string
		wait         time.Duration // between the announcement and the orphan
		orphanFrom   p2p.NodeID
		wantA, wantB int // requests for the parent each peer ends up with
	}{
		{"asked of the sender", fetchDelay, "a", 1, 0},
		{"still waiting", 0, "a", 1, 0},
		{"asked of someone else", fetchDelay, "b", 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newGossipRig(t, "a", "b")
			r.deliver("a", p2p.MsgAnnounce, announce)
			r.wait(tc.wait)
			r.deliver(tc.orphanFrom, p2p.MsgBlock, types.EncodeBlock(child))
			if r.p.OrphanCount() != 1 {
				t.Fatalf("%d orphans parked, want the child", r.p.OrphanCount())
			}
			r.wait(fetchDelay)
			r.wait(fetchDelay)
			if a, b := r.asked("a"), r.asked("b"); len(a) != tc.wantA || len(b) != tc.wantB {
				t.Fatalf("asked a %d times and b %d times for the parent, want %d and %d", len(a), len(b), tc.wantA, tc.wantB)
			}
			r.deliver(tc.orphanFrom, p2p.MsgBlock, types.EncodeBlock(parent))
			if r.p.Chain().Head().ID() != child.ID() {
				t.Fatal("parent and parked child did not import")
			}
			if n, peers := r.tableSizes(); n != 0 || peers != 0 {
				t.Errorf("table holds %d ids for %d peers after the parent arrived", n, peers)
			}
		})
	}
}
