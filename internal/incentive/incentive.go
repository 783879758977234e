// Package incentive reads a chain's books: the flows the paper evaluates
// in §VII (Eq. 7-10), which the contract settles on chain, attributed to
// the stakeholders they reach. Read takes them from the canonical blocks
// and receipts and checks that they add up to the head state's balances.
// The closed forms of Eq. 7-10 sit beside their worked examples in
// incentive_test.go.
package incentive

import (
	"errors"
	"fmt"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// Balance summarizes one address's flows. Earned categories are positive
// contributions; Punishment and Gas are costs.
type Balance struct {
	Mining     types.Amount // block rewards (χ·ν of Eq. 8)
	Fees       types.Amount // transaction fees earned mining (ψ·ω of Eq. 8)
	Bounty     types.Amount // vulnerability payouts received (Eq. 7)
	Refund     types.Amount // insurance reclaimed after the detection window
	Punishment types.Amount // insurance forfeited to detectors (Eq. 9)
	Gas        types.Amount // fees paid sending transactions (Eq. 10)
	Blocks     uint64       // blocks mined
	Accepted   uint64       // findings accepted
	// In and Out are value moved that is no incentive: transfers, escrow
	// (a provider's Out, the contract's In) and what the contract pays
	// out of escrow (its Out).
	In, Out types.Amount
}

// Net returns earnings minus costs in ether (float, reporting only; can be
// negative).
func (b Balance) Net() float64 {
	earned := b.Mining + b.Fees + b.Bounty + b.Refund
	spent := b.Punishment + b.Gas
	return earned.Ether() - spent.Ether()
}

// Block is one canonical block's fees and report transactions.
type Block struct {
	Fees    types.Amount
	Reports int
}

// SRA is one chained release's outcome: the insurance forfeited to
// detectors for Confirmed distinct vulnerabilities, and the refund.
type SRA struct {
	Provider                   types.Address
	Insurance, PaidOut, Refund types.Amount
	Confirmed                  uint64
}

// Books are a chain's incentive flows up to one view's head.
type Books struct {
	balances map[types.Address]*Balance
	Blocks   []Block // by number; Blocks[0] is genesis
	SRAs     map[types.Hash]*SRA
}

// Of returns a copy of an address's balance.
func (b *Books) Of(a types.Address) Balance {
	if bal, ok := b.balances[a]; ok {
		return *bal
	}
	return Balance{}
}

func (b *Books) get(a types.Address) *Balance {
	bal, ok := b.balances[a]
	if !ok {
		bal = &Balance{}
		b.balances[a] = bal
	}
	return bal
}

// ErrUnbalanced reports books that do not add up to the head state: the
// chain moved value its blocks and receipts do not account for.
var ErrUnbalanced = errors.New("incentive: books do not balance")

// Read derives the books of v's canonical chain in chain order, then
// checks them: every address's genesis balance plus its flows is its head
// balance, and the supply is the genesis allocation plus the block
// rewards. A refund's amount is not in its receipt; it is the insurance
// the release's earlier payouts left. A snap-joined view has no receipts
// below its snapshot and fails with chain.ErrBelowHorizon.
func Read(v *chain.ReadView) (*Books, error) {
	if v.Horizon() > 0 {
		return nil, fmt.Errorf("incentive: receipts start above block %d: %w", v.Horizon(), chain.ErrBelowHorizon)
	}
	b := &Books{
		balances: make(map[types.Address]*Balance),
		Blocks:   make([]Block, v.HeadNumber()+1),
		SRAs:     make(map[types.Hash]*SRA),
	}
	for n := uint64(1); n <= v.HeadNumber(); n++ {
		blk, err := v.BlockByNumber(n)
		if err != nil {
			return nil, err
		}
		miner := b.get(blk.Header.Miner)
		miner.Mining += chain.BlockReward
		miner.Blocks++
		b.Blocks[n].Reports = blk.CountReports()
		for _, tx := range blk.Txs {
			r, err := v.ReceiptOf(tx.Hash())
			if err != nil {
				return nil, err
			}
			b.Blocks[n].Fees += r.Fee
			miner.Fees += r.Fee
			b.get(tx.From).Gas += r.Fee
			if err := b.settle(tx, r); err != nil {
				return nil, fmt.Errorf("incentive: block %d tx %s: %w", n, tx.Hash().Short(), err)
			}
		}
	}
	return b, b.check(v)
}

// settle books the value a transaction moved.
func (b *Books) settle(tx *types.Transaction, r *chain.Receipt) error {
	if !r.Success {
		return nil
	}
	switch {
	case tx.Kind == types.TxSRA:
		sra, err := tx.SRA()
		if err != nil {
			return err
		}
		b.move(tx.From, contract.Address, tx.Value)
		b.SRAs[sra.ID] = &SRA{Provider: sra.Provider, Insurance: sra.Insurance}
	case tx.Kind == types.TxDetailedReport:
		rep, err := tx.DetailedReport()
		if err != nil {
			return err
		}
		s, ok := b.SRAs[rep.SRAID]
		if !ok {
			return fmt.Errorf("a payout from SRA %s, which is not chained", rep.SRAID.Short())
		}
		paid, accepted := r.Payout.Paid, uint64(len(r.Payout.Accepted))
		detector := b.get(rep.Wallet)
		detector.Bounty += paid
		detector.Accepted += accepted
		b.get(contract.Address).Out += paid
		b.get(s.Provider).Punishment += paid
		s.PaidOut += paid
		s.Confirmed += accepted
	case tx.Kind == types.TxContractCall && tx.To == contract.Address:
		// The refund is the contract's only native method.
		if len(tx.Data) != 1+types.HashSize || tx.Data[0] != contract.MethodRefund {
			return fmt.Errorf("a native call with input %x succeeded", tx.Data)
		}
		s, ok := b.SRAs[types.Hash(tx.Data[1:])]
		if !ok {
			return fmt.Errorf("a refund of SRA %x, which is not chained", tx.Data[1:])
		}
		refund := s.Insurance - s.PaidOut - s.Refund
		s.Refund += refund
		b.get(contract.Address).Out += refund
		b.get(s.Provider).Refund += refund
	case tx.Kind == types.TxTransfer || tx.Kind == types.TxContractCall:
		b.move(tx.From, tx.To, tx.Value) // no other account holds code
	}
	return nil
}

// move books a value transfer.
func (b *Books) move(from, to types.Address, value types.Amount) {
	b.get(from).Out += value
	b.get(to).In += value
}

// check holds the books against v's genesis and head states. Amounts are
// summed modulo 2⁶⁴, which keeps every equality exact.
func (b *Books) check(v *chain.ReadView) error {
	want := make(map[types.Address]types.Amount, len(b.balances))
	var allocated, supply types.Amount
	v.Genesis().Balances(func(a types.Address, bal types.Amount) {
		want[a] += bal
		allocated += bal
	})
	for a, bal := range b.balances {
		want[a] += bal.Mining + bal.Fees + bal.Bounty + bal.Refund + bal.In - bal.Gas - bal.Out
	}
	var err error
	v.State().Balances(func(a types.Address, bal types.Amount) {
		if supply += bal; want[a] != bal && err == nil {
			err = fmt.Errorf("%w: %s holds %s at the head, its books %s", ErrUnbalanced, a, bal, want[a])
		}
		delete(want, a)
	})
	if minted := types.Amount(v.HeadNumber()) * chain.BlockReward; supply != allocated+minted {
		return fmt.Errorf("%w: the head holds %s, genesis allocated %s and %d blocks minted %s",
			ErrUnbalanced, supply, allocated, v.HeadNumber(), minted)
	}
	for a, w := range want {
		if w != 0 && err == nil {
			err = fmt.Errorf("%w: %s holds nothing at the head, its books %s", ErrUnbalanced, a, w)
		}
	}
	return err
}
