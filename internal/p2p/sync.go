package p2p

// Snap-sync protocol payloads. A joining node downloads a recent state
// snapshot plus the canonical block tail instead of replaying the whole
// chain (cost O(snapshot + tail) instead of O(history)). The exchange is
// pull-based — the syncing side requests one manifest, then one chunk or
// block range at a time — so a single in-flight request is the flow
// control and no queue can grow without bound on either side.
//
// Like ParseBlockRequest, the codecs live here so both transports (the
// simulated bus and the TCP fabric) share one validation point with one
// classified malformed-message metric per kind. Every decoder rejects
// before allocating anything sized by remote input.

import (
	"encoding/binary"
	"fmt"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// Snap-sync message kinds, extending the base gossip kinds (1–3).
const (
	// MsgSnapRequest asks a peer for its current snapshot manifest
	// (empty payload). Peers without a fresh snapshot simply stay silent;
	// the requester's stall timeout moves it on.
	MsgSnapRequest MsgKind = iota + 4
	// MsgSnapManifest describes the snapshot a peer can serve: which
	// block it captures, the state root to verify against, and how the
	// state blob is chunked.
	MsgSnapManifest
	// MsgSnapChunk carries one chunk of the snapshot state blob.
	MsgSnapChunk
	// MsgSnapChunkRequest pulls one chunk by (snapshot block id, index).
	MsgSnapChunkRequest
	// MsgRangeRequest asks for canonical blocks [from, to] by number.
	MsgRangeRequest
	// MsgRangeBlocks answers a range request with consecutive encoded
	// blocks (possibly fewer than asked: responders clamp to their own
	// byte and count budgets; the requester re-asks from where it left).
	MsgRangeBlocks
	// MsgHeadAnnounce is synthetic: the wire transport fabricates it
	// locally when a peer's handshake completes, carrying the head
	// advertised in that peer's hello. It is never decoded off the
	// socket — a remote frame with this kind is dropped as unknown — so
	// a hostile peer cannot spoof another peer's head.
	MsgHeadAnnounce
)

func syncKindName(k MsgKind) (string, bool) {
	switch k {
	case MsgSnapRequest:
		return "snap-request", true
	case MsgSnapManifest:
		return "snap-manifest", true
	case MsgSnapChunk:
		return "snap-chunk", true
	case MsgSnapChunkRequest:
		return "snap-chunk-request", true
	case MsgRangeRequest:
		return "range-request", true
	case MsgRangeBlocks:
		return "range-blocks", true
	case MsgHeadAnnounce:
		return "head-announce", true
	case MsgAnnounce:
		return "announce", true
	case MsgTxRequest:
		return "tx-request", true
	}
	return "", false
}

// SnapManifest describes a servable snapshot: the block it captures, the
// commitment root the restored state must reproduce, and the chunking of
// the serialized state blob.
type SnapManifest struct {
	Height     uint64     // snapshot block number
	BlockID    types.Hash // snapshot block id
	StateRoot  types.Hash // header state root the blob must hash to
	StateSize  uint64     // serialized state blob length in bytes
	ChunkSize  uint32     // chunking unit; last chunk may be shorter
	HeadNumber uint64     // server's canonical head at manifest time
	HeadID     types.Hash // server's canonical head id
}

// Chunks returns how many chunk requests cover the state blob.
func (m SnapManifest) Chunks() uint32 {
	if m.ChunkSize == 0 {
		return 0
	}
	return uint32((m.StateSize + uint64(m.ChunkSize) - 1) / uint64(m.ChunkSize))
}

const manifestSize = 8 + types.HashSize + types.HashSize + 8 + 4 + 8 + types.HashSize

// MaxSnapStateSize bounds the snapshot blob a manifest may declare.
// Restored state lives in memory, so this is a sanity limit against a
// hostile manifest promising an absurd download, not a protocol constant.
const MaxSnapStateSize = 1 << 30

// MaxSnapChunks bounds how many chunks a manifest may split its state
// blob into. The requester allocates a slice-header per chunk and pays
// one request round-trip each, so without this cap a hostile manifest
// declaring ChunkSize=1 could demand ~StateSize allocations and hold the
// session open indefinitely. At MaxSnapStateSize the cap implies an
// effective minimum chunk size of 64 KiB.
const MaxSnapChunks = 16384

// EncodeSnapManifest builds a MsgSnapManifest payload.
func EncodeSnapManifest(m SnapManifest) []byte {
	out := make([]byte, 0, manifestSize)
	out = binary.BigEndian.AppendUint64(out, m.Height)
	out = append(out, m.BlockID[:]...)
	out = append(out, m.StateRoot[:]...)
	out = binary.BigEndian.AppendUint64(out, m.StateSize)
	out = binary.BigEndian.AppendUint32(out, m.ChunkSize)
	out = binary.BigEndian.AppendUint64(out, m.HeadNumber)
	out = append(out, m.HeadID[:]...)
	return out
}

// ParseSnapManifest validates and decodes a MsgSnapManifest payload.
func ParseSnapManifest(payload []byte) (SnapManifest, error) {
	if len(payload) != manifestSize {
		mMalformedManifest.Inc()
		return SnapManifest{}, fmt.Errorf("p2p: malformed snap manifest: %d bytes, want %d", len(payload), manifestSize)
	}
	var m SnapManifest
	m.Height = binary.BigEndian.Uint64(payload)
	copy(m.BlockID[:], payload[8:])
	copy(m.StateRoot[:], payload[8+types.HashSize:])
	off := 8 + 2*types.HashSize
	m.StateSize = binary.BigEndian.Uint64(payload[off:])
	m.ChunkSize = binary.BigEndian.Uint32(payload[off+8:])
	m.HeadNumber = binary.BigEndian.Uint64(payload[off+12:])
	copy(m.HeadID[:], payload[off+20:])
	if m.StateSize > MaxSnapStateSize {
		mMalformedManifest.Inc()
		return SnapManifest{}, fmt.Errorf("p2p: snap manifest declares %d state bytes (max %d)", m.StateSize, MaxSnapStateSize)
	}
	if m.StateSize > 0 && m.ChunkSize == 0 {
		mMalformedManifest.Inc()
		return SnapManifest{}, fmt.Errorf("p2p: snap manifest with zero chunk size")
	}
	if n := m.Chunks(); n > MaxSnapChunks {
		mMalformedManifest.Inc()
		return SnapManifest{}, fmt.Errorf("p2p: snap manifest declares %d chunks (max %d)", n, MaxSnapChunks)
	}
	return m, nil
}

// EncodeSnapChunkRequest builds a MsgSnapChunkRequest payload: the
// manifest's snapshot block id plus the wanted chunk index.
func EncodeSnapChunkRequest(blockID types.Hash, index uint32) []byte {
	out := make([]byte, 0, types.HashSize+4)
	out = append(out, blockID[:]...)
	return binary.BigEndian.AppendUint32(out, index)
}

// ParseSnapChunkRequest validates and decodes a MsgSnapChunkRequest.
func ParseSnapChunkRequest(payload []byte) (blockID types.Hash, index uint32, err error) {
	if len(payload) != types.HashSize+4 {
		mMalformedChunkReq.Inc()
		return types.Hash{}, 0, fmt.Errorf("p2p: malformed snap chunk request: %d bytes, want %d", len(payload), types.HashSize+4)
	}
	copy(blockID[:], payload)
	return blockID, binary.BigEndian.Uint32(payload[types.HashSize:]), nil
}

// EncodeSnapChunk builds a MsgSnapChunk payload: snapshot block id, chunk
// index, then the chunk bytes.
func EncodeSnapChunk(blockID types.Hash, index uint32, data []byte) []byte {
	out := make([]byte, 0, types.HashSize+4+len(data))
	out = append(out, blockID[:]...)
	out = binary.BigEndian.AppendUint32(out, index)
	return append(out, data...)
}

// ParseSnapChunk validates and decodes a MsgSnapChunk. Empty chunks are
// malformed — a server never has a reason to send one.
func ParseSnapChunk(payload []byte) (blockID types.Hash, index uint32, data []byte, err error) {
	if len(payload) <= types.HashSize+4 {
		mMalformedChunk.Inc()
		return types.Hash{}, 0, nil, fmt.Errorf("p2p: malformed snap chunk: %d bytes", len(payload))
	}
	copy(blockID[:], payload)
	return blockID, binary.BigEndian.Uint32(payload[types.HashSize:]), payload[types.HashSize+4:], nil
}

// EncodeRangeRequest builds a MsgRangeRequest payload for canonical
// blocks numbered [from, to], inclusive.
func EncodeRangeRequest(from, to uint64) []byte {
	out := make([]byte, 0, 16)
	out = binary.BigEndian.AppendUint64(out, from)
	return binary.BigEndian.AppendUint64(out, to)
}

// ParseRangeRequest validates and decodes a MsgRangeRequest.
func ParseRangeRequest(payload []byte) (from, to uint64, err error) {
	if len(payload) != 16 {
		mMalformedRangeReq.Inc()
		return 0, 0, fmt.Errorf("p2p: malformed range request: %d bytes, want 16", len(payload))
	}
	from = binary.BigEndian.Uint64(payload)
	to = binary.BigEndian.Uint64(payload[8:])
	if from > to {
		mMalformedRangeReq.Inc()
		return 0, 0, fmt.Errorf("p2p: inverted range request [%d, %d]", from, to)
	}
	return from, to, nil
}

// EncodeRangeBlocks builds a MsgRangeBlocks payload — a count followed by
// length-prefixed encoded blocks — from the longest prefix of blocks whose
// records before the last stay within maxBytes: the block that crosses
// the budget is the last one sent, so a response is at most maxBytes plus
// one block. The payload is sized first and each block encoded (or, when
// its record carries the bytes or says where a store keeps them, copied or
// read) straight into it, one allocation of exactly its length. A stored
// record that cannot be read back ends the response before it: a short
// response is one the requester already handles.
func EncodeRangeBlocks(blocks []types.BlockRecord, maxBytes int) []byte {
	n, size := 0, 4
	for records := 0; n < len(blocks) && records <= maxBytes; n++ {
		rec := blocks[n].Size()
		records += rec
		size += 4 + rec
	}
	out := binary.BigEndian.AppendUint32(make([]byte, 0, size), uint32(n))
	for i, b := range blocks[:n] {
		at := len(out)
		out = binary.BigEndian.AppendUint32(out, uint32(b.Size()))
		var err error
		if out, err = b.Append(out); err != nil {
			binary.BigEndian.PutUint32(out, uint32(i))
			return out[:at]
		}
	}
	return out
}

// maxRangeCount bounds how many block records a single range response may
// declare; responders stay far below it (node's maxRangeBlocks is 256).
const maxRangeCount = 4096

// ParseRangeBlocks validates and decodes a MsgRangeBlocks payload into
// the still-encoded block records. Each record's declared length is
// checked against the remaining payload before slicing, so a hostile
// count cannot force allocation beyond the frame that already arrived.
func ParseRangeBlocks(payload []byte) ([][]byte, error) {
	malformed := func(format string, args ...any) ([][]byte, error) {
		mMalformedRangeBlocks.Inc()
		return nil, fmt.Errorf("p2p: malformed range blocks: "+format, args...)
	}
	if len(payload) < 4 {
		return malformed("%d bytes", len(payload))
	}
	count := binary.BigEndian.Uint32(payload)
	if count > maxRangeCount {
		return malformed("declares %d blocks (max %d)", count, maxRangeCount)
	}
	out := make([][]byte, 0, count)
	rest := payload[4:]
	for i := uint32(0); i < count; i++ {
		if len(rest) < 4 {
			return malformed("record %d truncated", i)
		}
		n := binary.BigEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(n) > uint64(len(rest)) {
			return malformed("record %d declares %d bytes, %d remain", i, n, len(rest))
		}
		out = append(out, rest[:n:n])
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return malformed("%d trailing bytes", len(rest))
	}
	return out, nil
}

// EncodeHeadAnnounce builds a MsgHeadAnnounce payload: the peer's head id
// and number from its handshake. Only transports fabricate these
// (locally, per peer).
func EncodeHeadAnnounce(headID types.Hash, headNumber uint64) []byte {
	out := make([]byte, 0, types.HashSize+8)
	out = append(out, headID[:]...)
	return binary.BigEndian.AppendUint64(out, headNumber)
}

// ParseHeadAnnounce decodes a MsgHeadAnnounce payload.
func ParseHeadAnnounce(payload []byte) (headID types.Hash, headNumber uint64, err error) {
	if len(payload) != types.HashSize+8 {
		mMalformedAnnounce.Inc()
		return types.Hash{}, 0, fmt.Errorf("p2p: malformed head announce: %d bytes, want %d", len(payload), types.HashSize+8)
	}
	copy(headID[:], payload)
	return headID, binary.BigEndian.Uint64(payload[types.HashSize:]), nil
}
