// Package incentive is the Tracker that attributes every on-chain flow —
// mining rewards, transaction fees, bounty payouts, forfeited insurance,
// burned gas — to the stakeholder balances the paper evaluates in §VII.
// The closed forms of the paper's incentive arithmetic (§V-D, Eq. 7-10)
// sit beside their worked examples in incentive_test.go; on chain the
// contract computes them.
package incentive

import (
	"sync"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// Flow labels one attribution category in the tracker.
type Flow int

// Flow categories.
const (
	// FlowMining is block rewards (χ·ν).
	FlowMining Flow = iota + 1
	// FlowFees is transaction fees earned by miners (ψ·ω).
	FlowFees
	// FlowBounty is vulnerability payouts received by detectors (Eq. 7).
	FlowBounty
	// FlowPunishment is insurance forfeited by providers (Eq. 9).
	FlowPunishment
	// FlowGas is gas spent submitting transactions (Eq. 10 and deploy
	// costs).
	FlowGas
	// FlowRefund is reclaimed insurance.
	FlowRefund
)

// String names the flow.
func (f Flow) String() string {
	switch f {
	case FlowMining:
		return "mining"
	case FlowFees:
		return "fees"
	case FlowBounty:
		return "bounty"
	case FlowPunishment:
		return "punishment"
	case FlowGas:
		return "gas"
	case FlowRefund:
		return "refund"
	default:
		return "unknown"
	}
}

// Balance summarizes one stakeholder's flows. Earned categories are
// positive contributions; Punishment and Gas are costs.
type Balance struct {
	Mining     types.Amount
	Fees       types.Amount
	Bounty     types.Amount
	Refund     types.Amount
	Punishment types.Amount
	Gas        types.Amount
	Blocks     uint64 // blocks mined
	Accepted   uint64 // findings accepted
}

// Net returns earnings minus costs in ether (float, reporting only; can be
// negative).
func (b Balance) Net() float64 {
	earned := b.Mining + b.Fees + b.Bounty + b.Refund
	spent := b.Punishment + b.Gas
	return earned.Ether() - spent.Ether()
}

// Tracker accumulates flows per address. It is safe for concurrent use.
type Tracker struct {
	mu       sync.Mutex
	balances map[types.Address]*Balance
}

// NewTracker creates an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{balances: make(map[types.Address]*Balance)}
}

func (t *Tracker) get(a types.Address) *Balance {
	b, ok := t.balances[a]
	if !ok {
		b = &Balance{}
		t.balances[a] = b
	}
	return b
}

// Record adds an amount under a flow for an address.
func (t *Tracker) Record(a types.Address, f Flow, amount types.Amount) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.get(a)
	switch f {
	case FlowMining:
		b.Mining += amount
		b.Blocks++
	case FlowFees:
		b.Fees += amount
	case FlowBounty:
		b.Bounty += amount
	case FlowPunishment:
		b.Punishment += amount
	case FlowGas:
		b.Gas += amount
	case FlowRefund:
		b.Refund += amount
	}
}

// RecordAccepted bumps a detector's accepted-findings counter.
func (t *Tracker) RecordAccepted(a types.Address, n uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.get(a).Accepted += n
}

// Of returns a copy of an address's balance.
func (t *Tracker) Of(a types.Address) Balance {
	t.mu.Lock()
	defer t.mu.Unlock()
	if b, ok := t.balances[a]; ok {
		return *b
	}
	return Balance{}
}
