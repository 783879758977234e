package p2p

import (
	"errors"
	"sort"
	"testing"
)

func TestJoinAndNodes(t *testing.T) {
	n := New(Config{})
	n.Join("b")
	n.Join("a")
	n.Join("a") // idempotent
	ids := n.Nodes()
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Errorf("Nodes() = %v", ids)
	}
}

func TestSendInstantDelivery(t *testing.T) {
	n := New(Config{})
	n.Join("a")
	n.Join("b")
	if err := n.Send("a", "b", Message{Kind: MsgTx, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	n.AdvanceTo(0)
	msgs := n.Receive("b")
	if len(msgs) != 1 || msgs[0].From != "a" || string(msgs[0].Payload) != "x" {
		t.Errorf("msgs = %+v", msgs)
	}
	// Drained.
	if len(n.Receive("b")) != 0 {
		t.Error("Receive did not drain")
	}
}

func TestSendUnknownNode(t *testing.T) {
	n := New(Config{})
	n.Join("a")
	if err := n.Send("a", "ghost", Message{}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("err = %v", err)
	}
}

func TestBroadcastExcludesSender(t *testing.T) {
	n := New(Config{})
	for _, id := range []NodeID{"a", "b", "c"} {
		n.Join(id)
	}
	n.Broadcast("a", Message{Kind: MsgBlock, Payload: []byte("blk")})
	n.AdvanceTo(0)
	if len(n.Receive("a")) != 0 {
		t.Error("sender received its own broadcast")
	}
	for _, id := range []NodeID{"b", "c"} {
		if len(n.Receive(id)) != 1 {
			t.Errorf("%s missed the broadcast", id)
		}
	}
}

func TestLatencyHoldsDelivery(t *testing.T) {
	n := New(Config{MinLatency: 100, MaxLatency: 100})
	n.Join("a")
	n.Join("b")
	_ = n.Send("a", "b", Message{Kind: MsgTx})
	n.AdvanceTo(99)
	if len(n.Receive("b")) != 0 {
		t.Error("message delivered before latency elapsed")
	}
	n.AdvanceTo(100)
	if len(n.Receive("b")) != 1 {
		t.Error("message not delivered at latency bound")
	}
}

func TestDeliveryOrderDeterministic(t *testing.T) {
	runOnce := func() []string {
		n := New(Config{MinLatency: 1, MaxLatency: 50, Seed: 99})
		n.Join("a")
		n.Join("b")
		for i := 0; i < 20; i++ {
			_ = n.Send("a", "b", Message{Kind: MsgTx, Payload: []byte{byte(i)}})
		}
		n.AdvanceTo(1000)
		var order []string
		for _, m := range n.Receive("b") {
			order = append(order, string(m.Payload))
		}
		return order
	}
	a, b := runOnce(), runOnce()
	if len(a) != 20 {
		t.Fatalf("delivered %d, want 20", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("delivery order not deterministic across identical runs")
		}
	}
}

func TestDropRate(t *testing.T) {
	n := New(Config{DropRate: 0.5, Seed: 42})
	n.Join("a")
	n.Join("b")
	const total = 2000
	for i := 0; i < total; i++ {
		_ = n.Send("a", "b", Message{Kind: MsgTx})
	}
	n.AdvanceTo(0)
	got := len(n.Receive("b"))
	if got < total/3 || got > 2*total/3 {
		t.Errorf("delivered %d of %d with 50%% drop", got, total)
	}
	st := n.Stats()
	if st.Dropped+st.Delivered != total {
		t.Errorf("stats don't add up: %+v", st)
	}
}

func TestPartitionBlocksAndHealRestores(t *testing.T) {
	n := New(Config{})
	for _, id := range []NodeID{"a", "b", "c"} {
		n.Join(id)
	}
	n.Partition([]NodeID{"a"}, []NodeID{"b", "c"})

	_ = n.Send("a", "b", Message{Kind: MsgTx}) // across partition: blocked
	_ = n.Send("b", "c", Message{Kind: MsgTx}) // same partition: delivered
	n.AdvanceTo(0)
	if len(n.Receive("b")) != 0 {
		t.Error("message crossed partition")
	}
	if len(n.Receive("c")) != 1 {
		t.Error("intra-partition message lost")
	}
	if n.Stats().Blocked != 1 {
		t.Errorf("Blocked = %d, want 1", n.Stats().Blocked)
	}

	n.Heal()
	_ = n.Send("a", "b", Message{Kind: MsgTx})
	n.AdvanceTo(0)
	if len(n.Receive("b")) != 1 {
		t.Error("message blocked after heal")
	}
}

func TestPendingDeliveries(t *testing.T) {
	n := New(Config{MinLatency: 10, MaxLatency: 10})
	n.Join("a")
	n.Join("b")
	_ = n.Send("a", "b", Message{Kind: MsgTx})
	if n.PendingDeliveries() != 1 {
		t.Error("in-flight count wrong")
	}
	n.AdvanceTo(10)
	if n.PendingDeliveries() != 0 {
		t.Error("in-flight not cleared after delivery")
	}
}

func TestTimeNeverRewinds(t *testing.T) {
	n := New(Config{})
	n.Join("a")
	n.AdvanceTo(100)
	n.AdvanceTo(50)
	if n.Now() != 100 {
		t.Errorf("time rewound to %d", n.Now())
	}
}

func TestMsgKindString(t *testing.T) {
	if MsgTx.String() != "tx" || MsgBlock.String() != "block" {
		t.Error("kind names wrong")
	}
	if MsgKind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

// Nodes returns all registered node ids, sorted.
func (n *Network) Nodes() []NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]NodeID, 0, len(n.group))
	for id := range n.group {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Now returns the network's simulated time (milliseconds).
func (n *Network) Now() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.now
}
