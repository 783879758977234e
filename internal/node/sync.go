package node

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// Snap-sync orchestration (the joining side) and snapshot serving (the
// established side). A cold provider that learns a peer is far ahead
// downloads that peer's state snapshot plus the canonical block tail
// instead of replaying every block: the snapshot is verified against
// the commitment trie root in the snapshot block's header before any of
// it is adopted, so the peer is trusted for availability only, never for
// state. Nodes closer to the head fall back to batched range replay, and
// ultimately to the per-block orphan crawl that predates the syncer.
//
// The exchange is strictly pull-based with one request in flight per
// session: the requester's next ask is the flow control, so neither side
// ever queues more than one response and a slow or vanished peer costs a
// stall timeout, not memory.

// Sync modes and phases, as reported by SyncStatus.
const (
	// SyncLive is steady state: no session, gossip keeps us current.
	SyncLive = "live"
	// SyncSnap is a snapshot download session.
	SyncSnap = "snap"
	// SyncReplay is a batched block-range catch-up session.
	SyncReplay = "replay"
)

const (
	// snapSyncMinGap is the minimum announced head a cold node will
	// start a snapshot session for; below it, replaying the few blocks
	// is cheaper than shipping a state blob.
	snapSyncMinGap = 32
	// snapChunkSize is the serving side's snapshot chunking unit.
	snapChunkSize = 1 << 20
	// maxRangeBlocks bounds how many blocks one range response carries.
	maxRangeBlocks = 256
	// maxRangeBytes soft-bounds a range response's payload; the encoder
	// stops adding blocks once past it (the response stays under the
	// frame limit with room for one oversized block).
	maxRangeBytes = 2 << 20
	// syncStallTimeout abandons a session whose peer stopped answering.
	syncStallTimeout = 30 * time.Second
	// snapServeSlack is how far the cached serving snapshot may trail
	// the head before a new manifest request re-serializes state.
	snapServeSlack = 64
)

// syncer is one node's sync state machine. Its own mutex (not the node
// lock) guards it so RPC status reads never contend with block import;
// applying is atomic so /v1/health can flip to 503 the instant snapshot
// adoption starts, without touching the mutex the apply path holds.
type syncer struct {
	mu           sync.Mutex
	mode         string // SyncSnap or SyncReplay; "" when idle
	phase        string // manifest | state | blocks | tail
	peer         p2p.NodeID
	target       uint64     // announced head we are syncing toward
	targetID     types.Hash // its block id
	manifest     p2p.SnapManifest
	chunks       [][]byte
	chunkBytes   uint64
	nextChunk    uint32
	prefix       []types.BlockRecord // snapshot prefix records, in order
	nextBlock    uint64              // next block number to range-request
	fetched      uint64              // blocks imported this session (tail/replay)
	lastProgress time.Time
	applying     atomic.Bool
}

// SyncStatus is a point-in-time snapshot of the sync state machine, as
// surfaced on GET /v1/node.
type SyncStatus struct {
	// Mode is live, snap or replay.
	Mode string `json:"mode"`
	// Phase is the snap session's stage (manifest, state, blocks, tail);
	// empty in live mode.
	Phase string `json:"phase,omitempty"`
	// Peer is the session's serving peer.
	Peer string `json:"peer,omitempty"`
	// Target is the head number the session is syncing toward.
	Target uint64 `json:"target,omitempty"`
	// Done/Total count the current phase's progress units: snapshot
	// chunks in the state phase, blocks otherwise.
	Done  uint64 `json:"done,omitempty"`
	Total uint64 `json:"total,omitempty"`
	// ApplyingSnapshot is true while a downloaded snapshot is being
	// verified and adopted; health reports 503 during this window.
	ApplyingSnapshot bool `json:"applyingSnapshot"`
}

// active reports whether a sync session is running.
func (s *syncer) active() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mode != ""
}

// status assembles the externally visible state.
func (s *syncer) status() SyncStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SyncStatus{Mode: SyncLive, ApplyingSnapshot: s.applying.Load()}
	if s.mode == "" {
		return st
	}
	st.Mode = s.mode
	st.Phase = s.phase
	st.Peer = string(s.peer)
	st.Target = s.target
	switch s.phase {
	case "state":
		st.Done, st.Total = uint64(s.nextChunk), uint64(s.manifest.Chunks())
	case "blocks":
		if s.mode == SyncSnap {
			st.Done, st.Total = uint64(len(s.prefix)), s.manifest.Height
			break
		}
		fallthrough
	default:
		st.Done, st.Total = s.fetched, s.target
	}
	return st
}

// reset drops all session state; callers hold s.mu.
func (s *syncer) reset() {
	s.mode, s.phase, s.peer = "", "", ""
	s.target, s.targetID, s.fetched, s.nextBlock = 0, types.Hash{}, 0, 0
	s.manifest = p2p.SnapManifest{}
	s.chunks, s.chunkBytes, s.nextChunk = nil, 0, 0
	s.prefix = nil
}

// SyncStatus reports the node's sync mode and progress.
func (p *ProviderNode) SyncStatus() SyncStatus { return p.sync.status() }

// --- joining side ----------------------------------------------------------

// handleHeadAnnounce reacts to the transport's synthetic handshake
// announce: a peer ahead of us may become our sync server.
func (p *ProviderNode) handleHeadAnnounce(from p2p.NodeID, payload []byte) {
	headID, headNumber, err := p2p.ParseHeadAnnounce(payload)
	if err != nil || p.net == nil {
		return
	}
	local := p.chain.HeadNumber()
	if headNumber <= local {
		return
	}
	s := p.sync
	s.mu.Lock()
	if s.mode != "" {
		s.mu.Unlock()
		return // one session at a time
	}
	s.peer, s.target, s.targetID = from, headNumber, headID
	s.lastProgress = p.clock()
	var req p2p.Message
	if local == 0 && headNumber >= snapSyncMinGap {
		s.mode, s.phase = SyncSnap, "manifest"
		req = p2p.Message{Kind: p2p.MsgSnapRequest}
	} else {
		s.mode, s.phase = SyncReplay, "blocks"
		s.nextBlock = local + 1
		req = p2p.Message{Kind: p2p.MsgRangeRequest, Payload: p2p.EncodeRangeRequest(s.nextBlock, rangeEnd(s.nextBlock, headNumber))}
	}
	mSyncSessions(s.mode).Inc()
	nodeLog.Info("sync session started",
		"node", p.id, "mode", s.mode, "peer", from, "target", headNumber, "local", local)
	s.mu.Unlock()
	_ = p.net.Send(p.id, from, req)
}

// rangeEnd clamps a range request to the per-response block budget.
func rangeEnd(from, target uint64) uint64 {
	if end := from + maxRangeBlocks - 1; end < target {
		return end
	}
	return target
}

// handleSnapManifest starts the chunk download described by a manifest.
func (p *ProviderNode) handleSnapManifest(from p2p.NodeID, payload []byte) {
	m, err := p2p.ParseSnapManifest(payload)
	if err != nil {
		return
	}
	s := p.sync
	s.mu.Lock()
	if s.mode != SyncSnap || s.phase != "manifest" || from != s.peer {
		s.mu.Unlock()
		return
	}
	if m.StateSize == 0 || m.Height == 0 || m.Height > s.target {
		// The peer has nothing servable (or something nonsensical);
		// replay from genesis instead.
		p.downgradeLocked("empty-manifest")
		req := p2p.EncodeRangeRequest(s.nextBlock, rangeEnd(s.nextBlock, s.target))
		peer := s.peer
		s.mu.Unlock()
		_ = p.net.Send(p.id, peer, p2p.Message{Kind: p2p.MsgRangeRequest, Payload: req})
		return
	}
	s.manifest = m
	s.phase = "state"
	s.chunks = make([][]byte, 0, m.Chunks())
	s.chunkBytes, s.nextChunk = 0, 0
	s.lastProgress = p.clock()
	req := p2p.EncodeSnapChunkRequest(m.BlockID, 0)
	s.mu.Unlock()
	_ = p.net.Send(p.id, from, p2p.Message{Kind: p2p.MsgSnapChunkRequest, Payload: req})
}

// handleSnapChunk accepts the next snapshot chunk and pulls the one after
// it, or moves to the block phase when the state blob is complete.
func (p *ProviderNode) handleSnapChunk(from p2p.NodeID, payload []byte) {
	blockID, index, data, err := p2p.ParseSnapChunk(payload)
	if err != nil {
		return
	}
	s := p.sync
	s.mu.Lock()
	if s.mode != SyncSnap || s.phase != "state" || from != s.peer ||
		blockID != s.manifest.BlockID || index != s.nextChunk {
		s.mu.Unlock()
		return
	}
	// Every chunk must be exactly ChunkSize bytes except the final one,
	// which must complete StateSize exactly. Anything else — overflow,
	// short chunks that would stretch the session (and its progress
	// resets) far past the manifest's declared chunk count — aborts.
	want := s.manifest.StateSize - s.chunkBytes
	if want > uint64(s.manifest.ChunkSize) {
		want = uint64(s.manifest.ChunkSize)
	}
	if uint64(len(data)) != want {
		p.abortLocked("chunk-size-mismatch")
		s.mu.Unlock()
		return
	}
	mSyncChunks.Inc()
	s.chunks = append(s.chunks, data)
	s.chunkBytes += uint64(len(data))
	s.nextChunk++
	s.lastProgress = p.clock()
	var req p2p.Message
	if s.chunkBytes == s.manifest.StateSize {
		// State blob complete; fetch the snapshot's block prefix so the
		// adopted chain is complete from genesis.
		s.phase = "blocks"
		s.nextBlock = 1
		s.prefix = make([]types.BlockRecord, 0, s.manifest.Height)
		req = p2p.Message{Kind: p2p.MsgRangeRequest, Payload: p2p.EncodeRangeRequest(1, rangeEnd(1, s.manifest.Height))}
	} else {
		req = p2p.Message{Kind: p2p.MsgSnapChunkRequest, Payload: p2p.EncodeSnapChunkRequest(blockID, s.nextChunk)}
	}
	s.mu.Unlock()
	_ = p.net.Send(p.id, from, req)
}

// handleRangeBlocks consumes one block-range response in whatever phase
// wants blocks: the snap prefix, the post-snapshot tail, or plain replay.
func (p *ProviderNode) handleRangeBlocks(from p2p.NodeID, payload []byte) {
	records, err := p2p.ParseRangeBlocks(payload)
	if err != nil {
		return
	}
	s := p.sync
	s.mu.Lock()
	if s.mode == "" || from != s.peer || (s.phase != "blocks" && s.phase != "tail") {
		s.mu.Unlock()
		return
	}
	if len(records) == 0 {
		// The peer cannot serve the range (pruned, reorged away, or
		// lying about its head). Nothing more to pull here.
		p.abortLocked("empty-range")
		s.mu.Unlock()
		return
	}
	// Headers check the numbering. The snap prefix stays records, checked
	// on their bytes by AdoptSnapshot; tail and replay blocks decode below.
	snapPrefix := s.mode == SyncSnap && s.phase == "blocks"
	for i, raw := range records {
		h, err := types.DecodeHeader(raw)
		if err != nil {
			mGossipMalformed.Inc()
			p.abortLocked("bad-block")
			s.mu.Unlock()
			return
		}
		if h.Number != s.nextBlock+uint64(i) {
			p.abortLocked("range-out-of-order")
			s.mu.Unlock()
			return
		}
		if snapPrefix {
			s.prefix = append(s.prefix, types.BlockRecord{Block: &types.Block{Header: h}, Raw: raw})
		}
	}
	mSyncRangeBlocks.Add(uint64(len(records)))
	s.lastProgress = p.clock()

	if snapPrefix {
		s.nextBlock += uint64(len(records))
		if s.nextBlock <= s.manifest.Height {
			req := p2p.EncodeRangeRequest(s.nextBlock, rangeEnd(s.nextBlock, s.manifest.Height))
			s.mu.Unlock()
			_ = p.net.Send(p.id, from, p2p.Message{Kind: p2p.MsgRangeRequest, Payload: req})
			return
		}
		// Prefix complete: assemble and adopt. The chain re-derives the
		// commitment root from the restored state and refuses a mismatch,
		// so a corrupt or hostile snapshot dies here, pre-adoption.
		prefix, manifest := s.prefix, s.manifest
		blob := make([]byte, 0, s.chunkBytes)
		for _, c := range s.chunks {
			blob = append(blob, c...)
		}
		s.prefix, s.chunks = nil, nil
		s.applying.Store(true)
		s.mu.Unlock()

		err := p.chain.AdoptSnapshot(prefix, blob)
		s.applying.Store(false)
		s.mu.Lock()
		if err != nil {
			nodeLog.Warn("snapshot adoption failed, replaying from genesis",
				"node", p.id, "peer", from, "height", manifest.Height, "err", err)
			p.downgradeLocked("adopt-failed")
			req := p2p.EncodeRangeRequest(s.nextBlock, rangeEnd(s.nextBlock, s.target))
			s.mu.Unlock()
			_ = p.net.Send(p.id, from, p2p.Message{Kind: p2p.MsgRangeRequest, Payload: req})
			return
		}
		mSnapAdopted.Inc()
		nodeLog.Info("snapshot adopted",
			"node", p.id, "peer", from, "height", manifest.Height, "stateBytes", manifest.StateSize)
		if manifest.Height >= s.target {
			p.finishLocked()
			s.mu.Unlock()
			return
		}
		s.phase = "tail"
		s.nextBlock = manifest.Height + 1
		req := p2p.EncodeRangeRequest(s.nextBlock, rangeEnd(s.nextBlock, s.target))
		s.mu.Unlock()
		_ = p.net.Send(p.id, from, p2p.Message{Kind: p2p.MsgRangeRequest, Payload: req})
		return
	}

	// Tail or replay: blocks run through normal verified import (each
	// decodes: DecodeHeader accepted it), carrying their records, which
	// the chain keeps for when they fall below the window. A transaction
	// the pool holds is imported as the pooled object, sender recovered.
	s.mu.Unlock()
	blocks := make([]types.BlockRecord, len(records))
	for i, raw := range records {
		blocks[i].Block, _ = types.DecodeBlockPooled(raw, p.pool.Get)
		blocks[i].Raw = raw
	}
	p.mu.Lock()
	n, insErr := p.chain.InsertChainTraced(blocks, telemetry.TraceContext{})
	if n > 0 {
		p.pool.Prune(p.chain.CurrentView().State())
	}
	p.mu.Unlock()

	s.mu.Lock()
	if s.mode == "" || from != s.peer {
		s.mu.Unlock()
		return
	}
	s.fetched += uint64(n)
	if insErr != nil || n == 0 {
		// A first range that does not link means the peer's chain does not
		// pass through our head: we are on a fork, and ranges by number
		// cannot find the common ancestor. Ask for the announced head
		// itself; it arrives as an orphan and the per-block backward crawl
		// (HandleMessages) takes over now that no session suppresses it.
		forked := s.fetched == 0 && errors.Is(insErr, pow.ErrUnknownParent)
		headID := s.targetID
		p.abortLocked("import-failed")
		s.mu.Unlock()
		if forked {
			mBlockRequestsSent.Inc()
			_ = p.net.Send(p.id, from, p2p.Message{Kind: p2p.MsgBlockRequest, Payload: p2p.EncodeBlockRequest(headID)})
		}
		return
	}
	s.nextBlock += uint64(n)
	if s.nextBlock > s.target {
		p.finishLocked()
		s.mu.Unlock()
		return
	}
	req := p2p.EncodeRangeRequest(s.nextBlock, rangeEnd(s.nextBlock, s.target))
	s.mu.Unlock()
	_ = p.net.Send(p.id, from, p2p.Message{Kind: p2p.MsgRangeRequest, Payload: req})
}

// checkSyncStall abandons a session whose peer went quiet; gossip (and
// any later announce) takes over. Called from HandleMessages.
func (p *ProviderNode) checkSyncStall() {
	s := p.sync
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mode != "" && p.clock().Sub(s.lastProgress) > syncStallTimeout {
		p.abortLocked("stall")
	}
}

// downgradeLocked falls back from a snap session to replay-from-scratch
// against the same peer; callers hold s.mu and send the next request.
func (p *ProviderNode) downgradeLocked(reason string) {
	s := p.sync
	mSyncFallbacks(reason).Inc()
	s.mode, s.phase = SyncReplay, "blocks"
	s.manifest = p2p.SnapManifest{}
	s.chunks, s.chunkBytes, s.nextChunk = nil, 0, 0
	s.prefix = nil
	s.nextBlock = p.chain.HeadNumber() + 1
	s.lastProgress = p.clock()
}

// abortLocked ends a session without reaching the target; callers hold
// s.mu.
func (p *ProviderNode) abortLocked(reason string) {
	s := p.sync
	mSyncAborted(reason).Inc()
	nodeLog.Warn("sync session aborted",
		"node", p.id, "mode", s.mode, "phase", s.phase, "peer", s.peer, "reason", reason)
	s.reset()
}

// finishLocked ends a session that reached its target; callers hold s.mu.
func (p *ProviderNode) finishLocked() {
	s := p.sync
	mSyncCompleted.Inc()
	nodeLog.Info("sync session complete",
		"node", p.id, "mode", s.mode, "peer", s.peer, "head", p.chain.HeadNumber())
	s.reset()
}

// --- serving side ----------------------------------------------------------

// snapServeCache memoizes the last served snapshot so N joining peers
// cost one state serialization, not N. The generating flag coalesces
// regeneration: while one request serializes fresh state (outside the
// cache mutex — SnapshotNow holds no chain lock, but it is a full-state
// walk and a blob-sized allocation), concurrent requests serve the
// previous cached manifest — or stay silent when there is none — instead
// of piling up serializations.
type snapServeCache struct {
	mu         sync.Mutex
	manifest   p2p.SnapManifest
	blob       []byte
	generating bool
}

// handleSnapRequest answers with a manifest for a recent snapshot,
// serializing fresh state only when the cache trails the head too far.
// Nodes still syncing themselves stay silent — they have nothing
// authoritative to serve.
func (p *ProviderNode) handleSnapRequest(from p2p.NodeID) {
	if p.sync.active() {
		return
	}
	head := p.chain.Head()
	c := &p.snapServe
	c.mu.Lock()
	stale := c.blob == nil || c.manifest.Height+snapServeSlack < head.Header.Number ||
		!p.chain.HasBlock(c.manifest.BlockID)
	if stale && !c.generating {
		c.generating = true
		c.mu.Unlock()
		snap := p.chain.SnapshotNow()
		c.mu.Lock()
		c.generating = false
		c.manifest = p2p.SnapManifest{
			Height:    snap.Height,
			BlockID:   snap.BlockID,
			StateRoot: snap.StateRoot,
			StateSize: uint64(len(snap.State)),
			ChunkSize: snapChunkSize,
		}
		c.blob = snap.State
		mSnapServed.Inc()
	}
	if c.blob == nil || !p.chain.HasBlock(c.manifest.BlockID) {
		// Another request is regenerating and nothing servable is cached
		// (or the cached snapshot reorged away); the requester's stall
		// logic re-asks.
		c.mu.Unlock()
		return
	}
	m := c.manifest
	c.mu.Unlock()
	m.HeadNumber = head.Header.Number
	m.HeadID = head.ID()
	_ = p.net.Send(p.id, from, p2p.Message{Kind: p2p.MsgSnapManifest, Payload: p2p.EncodeSnapManifest(m)})
}

// handleSnapChunkRequest slices the cached snapshot blob. Requests for a
// snapshot we no longer hold go unanswered; the requester's stall logic
// restarts against whoever can serve.
func (p *ProviderNode) handleSnapChunkRequest(from p2p.NodeID, payload []byte) {
	blockID, index, err := p2p.ParseSnapChunkRequest(payload)
	if err != nil {
		return
	}
	c := &p.snapServe
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.blob == nil || blockID != c.manifest.BlockID {
		return
	}
	start := uint64(index) * uint64(c.manifest.ChunkSize)
	if start >= uint64(len(c.blob)) {
		return
	}
	end := start + uint64(c.manifest.ChunkSize)
	if end > uint64(len(c.blob)) {
		end = uint64(len(c.blob))
	}
	_ = p.net.Send(p.id, from, p2p.Message{
		Kind:    p2p.MsgSnapChunk,
		Payload: p2p.EncodeSnapChunk(blockID, index, c.blob[start:end]),
	})
}

// handleRangeRequest serves canonical blocks [from, to], clamped to the
// per-response count and byte budgets. The requester notices a short
// response by block numbering and simply asks again from where it left.
func (p *ProviderNode) handleRangeRequest(from p2p.NodeID, payload []byte) {
	lo, hi, err := p2p.ParseRangeRequest(payload)
	if err != nil {
		return
	}
	if hi-lo >= maxRangeBlocks { // hi-lo+1 would wrap to 0 on [0, 2⁶⁴−1]
		hi = lo + maxRangeBlocks - 1
	}
	blocks := p.chain.CurrentView().RecordsRange(lo, hi)
	_ = p.net.Send(p.id, from, p2p.Message{Kind: p2p.MsgRangeBlocks, Payload: p2p.EncodeRangeBlocks(blocks, maxRangeBytes)})
}
