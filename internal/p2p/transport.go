package p2p

import (
	"fmt"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// Transport is the dissemination fabric SmartCrowd nodes gossip over.
// Two implementations exist:
//
//   - *Network (this package) — the in-process discrete-event bus, fully
//     deterministic given its seed; the default for experiments;
//   - *wire.Transport — a real TCP transport with length-prefixed frames,
//     a version/genesis handshake and a reconnecting peer manager, used
//     when several OS processes form one SmartCrowd network.
//
// Nodes are written against this interface so the same ProviderNode code
// runs unchanged over either fabric. Receive is pull-based: transports
// buffer inbound messages until the node drains them, which keeps the
// simulated bus's deterministic delivery order intact and lets the TCP
// transport decouple socket readers from node processing.
type Transport interface {
	// Join registers a node identity that receives: only a receiver
	// joins. A node that only sends (a detector) never joins, and its
	// Send and Broadcast still reach every joined node. The simulated bus
	// hosts many nodes; a TCP transport hosts exactly one, making Join a
	// no-op there.
	Join(id NodeID)
	// Send queues a unicast delivery. Unknown destinations error.
	Send(from, to NodeID, msg Message) error
	// Broadcast queues a delivery to every connected peer.
	Broadcast(from NodeID, msg Message)
	// Receive drains the messages delivered to id since the last call.
	Receive(id NodeID) []Message
	// Peers lists the nodes a Broadcast from id would reach right now, so
	// a relaying node can address all of them but the one an item came
	// from.
	Peers(id NodeID) []NodeID
}

// Network implements Transport.
var _ Transport = (*Network)(nil)

// ParseBlockRequest validates and decodes a MsgBlockRequest payload: the
// 32-byte id of the block being asked for. Both transports deliver these
// payloads untouched, so validation lives here — one helper, one
// classified malformed-message metric — instead of ad-hoc length checks
// at each consumer. A malformed payload is counted and rejected before
// any hash is constructed.
func ParseBlockRequest(payload []byte) (types.Hash, error) {
	if len(payload) != types.HashSize {
		mMalformedBlockReq.Inc()
		return types.Hash{}, fmt.Errorf("p2p: malformed block request: %d bytes, want %d", len(payload), types.HashSize)
	}
	var id types.Hash
	copy(id[:], payload)
	return id, nil
}

// EncodeBlockRequest builds the payload ParseBlockRequest accepts.
func EncodeBlockRequest(id types.Hash) []byte {
	out := make([]byte, types.HashSize)
	copy(out, id[:])
	return out
}
