package core

import (
	"fmt"
	"sync"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// Retrospective detection notifications — the SmartRetro extension the
// paper cites as companion work (§IX, reference [46]): consumers who have
// already deployed an IoT system subscribe to its SRA and "automatically
// receive security notifications once any vulnerability is discovered"
// later. The notifier watches the canonical chain's confirmed-vulnerability
// counters and emits one notification per newly confirmed finding batch.

// Notification tells a subscribed consumer that a deployed system gained
// newly confirmed vulnerabilities.
type Notification struct {
	// Subscriber identifies the consumer that registered interest.
	Subscriber string
	// SRAID names the deployed release.
	SRAID types.Hash
	// NewVulns is how many vulnerabilities were confirmed since the last
	// notification to this subscriber.
	NewVulns uint64
	// TotalVulns is the release's running confirmed total.
	TotalVulns uint64
	// BlockNumber is the chain height at which the change was observed.
	BlockNumber uint64
}

// notifier tracks per-subscriber acknowledgement levels.
type notifier struct {
	mu sync.Mutex
	// seen[subscriber][sra] = confirmed count already notified.
	seen map[string]map[types.Hash]uint64
	// subs[sra] = subscriber set.
	subs    map[types.Hash]map[string]bool
	pending []Notification
}

func newNotifier() *notifier {
	return &notifier{
		seen: make(map[string]map[types.Hash]uint64),
		subs: make(map[types.Hash]map[string]bool),
	}
}

// Subscribe registers a consumer's interest in a released system — the
// retrospective-detection hook: the consumer deployed the system and wants
// to hear about vulnerabilities discovered after the fact. The current
// confirmed count is treated as already known (only *new* findings
// notify); pass sawVulns to override (0 = notify about everything ever
// confirmed).
func (p *Platform) Subscribe(subscriber string, sraID types.Hash, sawVulns uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.providers) == 0 {
		return ErrNoProviders
	}
	if _, ok := p.images[sraID]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownSRA, sraID.Short())
	}
	n := p.notify
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.subs[sraID] == nil {
		n.subs[sraID] = make(map[string]bool)
	}
	n.subs[sraID][subscriber] = true
	if n.seen[subscriber] == nil {
		n.seen[subscriber] = make(map[types.Hash]uint64)
	}
	n.seen[subscriber][sraID] = sawVulns
	return nil
}

// Notifications drains the queued retrospective-detection notifications.
func (p *Platform) Notifications() []Notification {
	n := p.notify
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.pending
	n.pending = nil
	return out
}

// dispatchNotificationsLocked compares the chain's confirmed counters with
// each subscriber's acknowledged level; the platform calls it after every
// mined block. Callers hold p.mu.
func (p *Platform) dispatchNotificationsLocked() {
	if len(p.providers) == 0 {
		return
	}
	v := p.providers[0].CurrentView()
	st, head := v.State(), v.HeadNumber()

	n := p.notify
	n.mu.Lock()
	defer n.mu.Unlock()
	for sraID, subscribers := range n.subs {
		info, err := p.contract.GetSRA(st, sraID)
		if err != nil {
			continue
		}
		for sub := range subscribers {
			acked := n.seen[sub][sraID]
			if info.ConfirmedVulns > acked {
				n.pending = append(n.pending, Notification{
					Subscriber:  sub,
					SRAID:       sraID,
					NewVulns:    info.ConfirmedVulns - acked,
					TotalVulns:  info.ConfirmedVulns,
					BlockNumber: head,
				})
				n.seen[sub][sraID] = info.ConfirmedVulns
			}
		}
	}
}
