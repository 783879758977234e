package node

import (
	"sort"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// Gossip: push from the origin, announce on relay (PROTOCOL.md §5,
// DESIGN.md "Gossip"). The node that introduces a transaction or a block
// broadcasts the body — nobody else can have it. A node that accepted one
// off gossip sends its other peers only the id; a peer that already holds
// the item drops the announcement for the price of a lookup, and one that
// does not waits a moment for the origin's own push and then asks the
// announcer for the body, which arrives through the same MsgTx/MsgBlock
// path a push takes. What is wanted is remembered in one bounded table so
// that two announcers cause one fetch and a silent announcer costs one
// retry, not a leak.

const (
	// maxFetches bounds the fetch table: ids announced and not yet
	// delivered. It is the transaction pool's default capacity — a node
	// cannot usefully want more transactions than it can pool.
	maxFetches = 4096
	// maxFetchesPerPeer is the share of the table one announcer may hold,
	// so a peer announcing junk cannot crowd out the honest ones.
	maxFetchesPerPeer = maxFetches / 4
	// fetchDelay is how long an announced id waits before its announcer is
	// asked. On a mesh the origin's push and a faster neighbour's
	// announcement of the same item race on different connections; asking
	// at once would fetch a second copy of a body already on its way.
	fetchDelay = 50 * time.Millisecond
	// fetchExpiry is how long an asked announcer has to deliver before the
	// fetch moves to another announcer or is forgotten.
	fetchExpiry = 5 * time.Second
)

// fetch is one announced item the node lacks.
type fetch struct {
	item    p2p.MsgKind // MsgTx or MsgBlock
	peer    p2p.NodeID  // the announcer to ask, or, once asked is set, the one asked
	other   p2p.NodeID  // a later announcer, asked once if the first stays silent
	asked   bool        // the request has been sent; until then the entry waits out fetchDelay
	retried bool        // other has been asked; the next expiry forgets the id
	since   time.Time   // when the id was announced or, once asked, when
	seq     uint64      // filing order: requests go out in the order items were announced
}

// fetches is the table of announced items on their way. The node lock
// guards it.
type fetches struct {
	byID      map[types.Hash]fetch
	perPeer   map[p2p.NodeID]int
	filed     uint64 // entries ever filed; the next entry's seq
	nextSweep time.Time
}

func newFetches() fetches {
	return fetches{byID: make(map[types.Hash]fetch), perPeer: make(map[p2p.NodeID]int)}
}

// put files e under id, moving the id's slot from whichever peer held it.
func (f *fetches) put(id types.Hash, e fetch) {
	if old, ok := f.byID[id]; ok {
		f.release(old.peer)
	}
	f.byID[id] = e
	f.perPeer[e.peer]++
	mFetchesInFlight.Set(int64(len(f.byID)))
}

func (f *fetches) drop(id types.Hash, e fetch) {
	delete(f.byID, id)
	f.release(e.peer)
	mFetchesInFlight.Set(int64(len(f.byID)))
}

func (f *fetches) release(peer p2p.NodeID) {
	if f.perPeer[peer]--; f.perPeer[peer] <= 0 {
		delete(f.perPeer, peer)
	}
}

// holds reports whether the node already has the item: a transaction
// pending in the pool or canonical in the current view, a block anywhere
// in the chain. The answer is derived from state the node keeps anyway, so
// it is bounded by it and survives a restart from the datadir.
func (p *ProviderNode) holds(item p2p.MsgKind, id types.Hash) bool {
	if item == p2p.MsgBlock {
		return p.chain.HasBlock(id)
	}
	if p.pool.Get(id) != nil {
		return true
	}
	_, _, _, known := p.chain.CurrentView().TxLocation(id)
	return known
}

// announce tells each peer which of ids this node now holds, leaving out
// the ones that peer sent (from parallels ids), in frames of at most
// MaxAnnounceIDs. Callers hold the lock.
func (p *ProviderNode) announce(item p2p.MsgKind, ids []types.Hash, from []p2p.NodeID) {
	if len(ids) == 0 || p.net == nil {
		return
	}
	news := make([]types.Hash, 0, len(ids))
	for _, peer := range p.net.Peers(p.id) {
		news = news[:0]
		for i, id := range ids {
			if from[i] != peer {
				news = append(news, id)
			}
		}
		mGossipAnnounced[item].Add(uint64(len(news)))
		for rest := news; len(rest) > 0; {
			n := min(len(rest), p2p.MaxAnnounceIDs)
			// A peer that just left misses an announcement.
			_ = p.net.Send(p.id, peer, p2p.Message{Kind: p2p.MsgAnnounce, Payload: p2p.EncodeAnnounce(item, rest[:n])})
			rest = rest[n:]
		}
	}
}

// handleAnnounce files every announced item the node neither holds nor is
// already waiting for, within the table's bounds; driveFetches asks for it
// once fetchDelay has passed. An item already filed gains the announcer as
// its fallback.
func (p *ProviderNode) handleAnnounce(from p2p.NodeID, payload []byte) {
	item, ids, err := p2p.ParseAnnounce(payload)
	if err != nil {
		return // counted by the shared classified metric
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.clock()
	for i := 0; i < ids.Len(); i++ {
		id := ids.At(i)
		if p.holds(item, id) {
			continue
		}
		if e, ok := p.fetches.byID[id]; ok {
			if e.other == "" && e.peer != from && !e.retried {
				e.other = from
				p.fetches.byID[id] = e
			}
			continue
		}
		if len(p.fetches.byID) >= maxFetches || p.fetches.perPeer[from] >= maxFetchesPerPeer {
			continue // the announcer's share is spent; its next announcement may fit
		}
		p.fetches.filed++
		p.fetches.put(id, fetch{item: item, peer: from, since: now, seq: p.fetches.filed})
	}
}

// arrived settles the table entry, if any, of an item whose body just came
// from peer. An entry still waiting out fetchDelay simply goes — the push
// it waited for came. An asked one counts as a fetch: ok when the body is
// from the peer asked, unsolicited when another path (a late push, a
// backfill) got there first. Callers hold the lock.
func (p *ProviderNode) arrived(id types.Hash, from p2p.NodeID) {
	e, ok := p.fetches.byID[id]
	if !ok {
		return
	}
	p.fetches.drop(id, e)
	switch {
	case !e.asked:
	case e.peer == from:
		mFetchOK[e.item].Inc()
	default:
		mFetchUnsolicited[e.item].Inc()
	}
}

// backfill asks peer, which just sent an orphan, for the orphan's parent.
// If the parent is itself an announced item on its way, the backfill
// becomes its fetch — and is not sent at all when this very peer has
// already been asked: a miner in the middle of a line pushes its child of
// a block the neighbour is still fetching from it, and a second request
// would only deliver the parent twice. Callers hold the lock.
func (p *ProviderNode) backfill(parent types.Hash, peer p2p.NodeID) {
	if e, ok := p.fetches.byID[parent]; ok {
		if e.asked && e.peer == peer {
			return
		}
		e.peer, e.asked, e.since = peer, true, p.clock()
		p.fetches.put(parent, e)
	}
	mBlockRequestsSent.Inc()
	p.request(peer, p2p.MsgBlock, []types.Hash{parent})
}

// driveFetches sweeps the table: an id announced fetchDelay ago and still
// missing is asked for; an asked announcer silent past fetchExpiry loses
// the fetch to the fallback announcer, once, or the id is forgotten — a
// block is still recovered by orphan backfill and range sync, and
// transaction gossip is best-effort. The sweep runs at most every
// fetchDelay/2, so a full table does not tax every pump. Called from
// HandleMessages.
func (p *ProviderNode) driveFetches() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.fetches.byID) == 0 {
		return
	}
	now := p.clock()
	if now.Before(p.fetches.nextSweep) {
		return
	}
	p.fetches.nextSweep = now.Add(fetchDelay / 2)

	type request struct {
		peer p2p.NodeID
		item p2p.MsgKind
	}
	due := make(map[request][]types.Hash)
	for id, e := range p.fetches.byID {
		patience := fetchDelay
		if e.asked {
			patience = fetchExpiry
		}
		if now.Sub(e.since) < patience {
			continue
		}
		if p.holds(e.item, id) {
			// It came another way: a transaction inside a block, a block
			// through range sync.
			p.fetches.drop(id, e)
			continue
		}
		if e.asked { // and silent since
			mFetchTimeout[e.item].Inc()
			if e.other == "" {
				p.fetches.drop(id, e)
				continue
			}
			e.peer, e.other, e.retried = e.other, "", true
		}
		e.asked, e.since = true, now
		p.fetches.put(id, e)
		due[request{e.peer, e.item}] = append(due[request{e.peer, e.item}], id)
	}
	// Peers in transport order and ids in the order they were announced —
	// a parent block before its child — not in the table's map order.
	byID := p.fetches.byID
	for _, peer := range p.net.Peers(p.id) {
		for _, item := range []p2p.MsgKind{p2p.MsgTx, p2p.MsgBlock} {
			ids := due[request{peer, item}]
			sort.Slice(ids, func(i, j int) bool { return byID[ids[i]].seq < byID[ids[j]].seq })
			p.request(peer, item, ids)
		}
	}
}

// request asks peer for items by id: transactions a frame of ids at a
// time, blocks with the MsgBlockRequest ancestor backfill already uses.
// Callers hold the lock.
func (p *ProviderNode) request(peer p2p.NodeID, item p2p.MsgKind, ids []types.Hash) {
	if item == p2p.MsgBlock {
		for _, id := range ids {
			_ = p.net.Send(p.id, peer, p2p.Message{Kind: p2p.MsgBlockRequest, Payload: p2p.EncodeBlockRequest(id)})
		}
		return
	}
	for len(ids) > 0 {
		n := min(len(ids), p2p.MaxAnnounceIDs)
		_ = p.net.Send(p.id, peer, p2p.Message{Kind: p2p.MsgTxRequest, Payload: p2p.EncodeTxRequest(ids[:n])})
		ids = ids[n:]
	}
}

// handleTxRequest answers with the asked-for transactions still in the
// pool, as ordinary MsgTx frames. Ids the node does not hold are ignored.
func (p *ProviderNode) handleTxRequest(from p2p.NodeID, payload []byte) {
	ids, err := p2p.ParseTxRequest(payload)
	if err != nil {
		return
	}
	for i := 0; i < ids.Len(); i++ {
		if tx := p.pool.Get(ids.At(i)); tx != nil {
			_ = p.net.Send(p.id, from, p2p.Message{Kind: p2p.MsgTx, Payload: types.EncodeTx(tx)})
		}
	}
}

// gossipTx is one transaction off the wire with the peer and trace it
// arrived under.
type gossipTx struct {
	tx    *types.Transaction
	from  p2p.NodeID
	trace telemetry.TraceContext
}
