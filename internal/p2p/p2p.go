// Package p2p provides the simulated peer-to-peer fabric SmartCrowd nodes
// gossip over: SRA announcements are "disseminated among all stakeholders"
// and blocks/reports are "broadcast and synchronized among IoT providers"
// (paper §IV-B, §V-C). The network is an in-process discrete-event message
// bus with configurable latency, loss and partitions, and is deterministic
// given its seed — every experiment replays bit-for-bit.
package p2p

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"github.com/smartcrowd/smartcrowd/internal/telemetry"
)

// NodeID identifies a participant.
type NodeID string

// MsgKind labels message payloads.
type MsgKind uint8

// Message kinds.
const (
	// MsgTx carries an encoded transaction (transfers, SRAs, reports).
	MsgTx MsgKind = iota + 1
	// MsgBlock carries an encoded block.
	MsgBlock
	// MsgBlockRequest asks a peer for the block with the given id
	// (payload = 32-byte block id); used to backfill missing ancestors
	// after partitions heal.
	MsgBlockRequest
)

// String returns the kind name.
func (k MsgKind) String() string {
	switch k {
	case MsgTx:
		return "tx"
	case MsgBlock:
		return "block"
	case MsgBlockRequest:
		return "block-request"
	default:
		if name, ok := syncKindName(k); ok {
			return name
		}
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Message is one gossip payload. Trace, when valid, is the block
// lifecycle the payload belongs to; the wire transport propagates it
// across processes in a frame envelope, and the simulated network
// carries it verbatim.
type Message struct {
	From    NodeID
	Kind    MsgKind
	Payload []byte
	Trace   telemetry.TraceContext
}

// Config tunes the network.
type Config struct {
	// MinLatency and MaxLatency bound per-delivery latency in simulated
	// milliseconds (uniform). Zero values mean instant delivery.
	MinLatency, MaxLatency uint64
	// DropRate is the probability a delivery is silently lost.
	DropRate float64
	// Seed drives the deterministic latency/loss sampling.
	Seed int64
}

// Stats counts network activity.
type Stats struct {
	Sent      int
	Delivered int
	Dropped   int
	Blocked   int
}

// envelope is an in-flight delivery.
type envelope struct {
	deliverAt uint64
	seq       uint64
	msg       Message
}

// Network is the message bus. All methods are safe for concurrent use;
// delivery order is deterministic (by delivery time, then send sequence).
type Network struct {
	mu       sync.Mutex
	cfg      Config
	rng      *rand.Rand
	now      uint64
	seq      uint64
	inFlight map[NodeID][]envelope
	ready    map[NodeID][]Message
	group    map[NodeID]int // partition group; all zero = connected
	stats    Stats
}

// ErrUnknownNode is returned for operations on nodes that never joined.
var ErrUnknownNode = errors.New("p2p: unknown node")

// New creates a network.
func New(cfg Config) *Network {
	if cfg.MaxLatency < cfg.MinLatency {
		cfg.MaxLatency = cfg.MinLatency
	}
	return &Network{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		inFlight: make(map[NodeID][]envelope),
		ready:    make(map[NodeID][]Message),
		group:    make(map[NodeID]int),
	}
}

// Join registers a node that receives.
func (n *Network) Join(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.group[id]; !ok {
		n.group[id] = 0
		n.inFlight[id] = nil
		n.ready[id] = nil
	}
}

// Stats returns a snapshot of traffic counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Send queues a unicast delivery.
func (n *Network) Send(from, to NodeID, msg Message) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.group[to]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}
	msg.From = from
	n.enqueue(from, to, msg)
	return nil
}

// Broadcast queues a delivery to every joined node but the sender, which
// need not have joined.
func (n *Network) Broadcast(from NodeID, msg Message) {
	n.mu.Lock()
	defer n.mu.Unlock()
	msg.From = from
	ids := n.peersLocked(from)
	mFanoutPeers.Observe(uint64(len(ids)))
	for _, id := range ids {
		n.enqueue(from, id, msg)
	}
}

// Peers lists every joined node but id, in id order. Partitions are not
// consulted: like Broadcast, a send across one is attempted and blocked.
func (n *Network) Peers(id NodeID) []NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peersLocked(id)
}

func (n *Network) peersLocked(id NodeID) []NodeID {
	ids := make([]NodeID, 0, len(n.group))
	for other := range n.group {
		if other != id {
			ids = append(ids, other)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// enqueue applies partition/loss/latency and schedules the delivery.
// Callers hold the lock.
func (n *Network) enqueue(from, to NodeID, msg Message) {
	n.stats.Sent++
	if n.group[from] != n.group[to] {
		n.stats.Blocked++
		mBlocked.Inc()
		return
	}
	if n.cfg.DropRate > 0 && n.rng.Float64() < n.cfg.DropRate {
		n.stats.Dropped++
		mDropped.Inc()
		return
	}
	latency := n.cfg.MinLatency
	if span := n.cfg.MaxLatency - n.cfg.MinLatency; span > 0 {
		latency += uint64(n.rng.Int63n(int64(span + 1)))
	}
	n.seq++
	n.inFlight[to] = append(n.inFlight[to], envelope{
		deliverAt: n.now + latency,
		seq:       n.seq,
		msg:       msg,
	})
}

// AdvanceTo moves simulated time forward and promotes due deliveries into
// nodes' ready queues. Time never moves backwards.
func (n *Network) AdvanceTo(t uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if t > n.now {
		n.now = t
	}
	for id, flights := range n.inFlight {
		if len(flights) == 0 {
			continue
		}
		var due, later []envelope
		for _, env := range flights {
			if env.deliverAt <= n.now {
				due = append(due, env)
			} else {
				later = append(later, env)
			}
		}
		if len(due) == 0 {
			continue
		}
		sort.Slice(due, func(i, j int) bool {
			if due[i].deliverAt != due[j].deliverAt {
				return due[i].deliverAt < due[j].deliverAt
			}
			return due[i].seq < due[j].seq
		})
		for _, env := range due {
			n.ready[id] = append(n.ready[id], env.msg)
			n.stats.Delivered++
			mDelivered.Inc()
		}
		n.inFlight[id] = later
	}
	inFlight := 0
	for _, flights := range n.inFlight {
		inFlight += len(flights)
	}
	mInFlight.Set(int64(inFlight))
}

// Receive drains a node's delivered messages.
func (n *Network) Receive(id NodeID) []Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	msgs := n.ready[id]
	n.ready[id] = nil
	return msgs
}

// PendingDeliveries reports how many messages are still in flight.
func (n *Network) PendingDeliveries() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, flights := range n.inFlight {
		total += len(flights)
	}
	return total
}

// Partition splits the network: nodes in groups[i] can only talk to nodes
// in the same group. Nodes not listed stay in group 0.
func (n *Network) Partition(groups ...[]NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for id := range n.group {
		n.group[id] = 0
	}
	for i, g := range groups {
		for _, id := range g {
			if _, ok := n.group[id]; ok {
				n.group[id] = i + 1
			}
		}
	}
}

// Heal removes all partitions.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for id := range n.group {
		n.group[id] = 0
	}
}
