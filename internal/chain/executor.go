// Package chain implements the SmartCrowd blockchain: block execution with
// the SmartCrowd contract wired into the state-transition function,
// longest-chain (total difficulty) fork choice, reorganizations, and the
// 6-block confirmation rule the paper adopts from Bitcoin (§V-C).
package chain

import (
	"errors"
	"fmt"

	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/state"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// Receipt records the canonical outcome of one transaction.
type Receipt struct {
	// TxHash identifies the transaction.
	TxHash types.Hash
	// Kind mirrors the transaction kind.
	Kind types.TxKind
	// Success is false when the protocol action or contract call failed;
	// gas is charged either way.
	Success bool
	// Err is the failure description (empty on success).
	Err string
	// GasUsed is the gas the transaction consumed.
	GasUsed uint64
	// Fee is the amount paid to the mining provider (ψ in Eq. 8).
	Fee types.Amount
	// Payout carries the incentive allocation for detailed reports.
	Payout contract.Payout
}

// Execution errors that make an entire block invalid (consensus rules).
var (
	ErrBadNonce       = errors.New("chain: transaction nonce out of order")
	ErrUnaffordableTx = errors.New("chain: sender cannot cover value plus max fee")
	ErrGasLimitTooLow = errors.New("chain: transaction gas limit below intrinsic requirement")
	ErrBlockGasLimit  = errors.New("chain: block exceeds gas limit")
	ErrTxSender       = errors.New("chain: transaction sender unrecoverable")
	ErrTxPayload      = errors.New("chain: malformed transaction payload")
	ErrFeeSettle      = errors.New("chain: fee settlement failed")
)

// executor applies transactions to a state.
type executor struct {
	cfg    Config
	st     *state.DB
	number uint64
	miner  types.Address
}

// execBlock runs every transaction of a block against st (mutating it) in
// order, credits the miner, and returns receipts. It enforces the
// consensus validity rules: nonces in order, senders solvent, gas limits
// sufficient, cumulative gas within the block limit.
//
// Senders are pre-recovered for the whole block through the striped
// pool before execution starts, so ECDSA recovery never sits on the
// execution critical path (per-tx Sender() calls below hit the memo).
//
// The block's writes share one trie write generation, from the first to
// the caller's Root: each transaction's snapshot only marks st's undo
// journal, which is returned to its pool here on every path.
func execBlock(cfg Config, st *state.DB, blk *types.Block) ([]*Receipt, error) {
	defer st.DiscardSnapshots()
	types.RecoverSenders(blk.Txs)
	ex := &executor{cfg: cfg, st: st, number: blk.Header.Number, miner: blk.Header.Miner}
	receipts := make([]*Receipt, len(blk.Txs))
	var gasUsed uint64
	for i, tx := range blk.Txs {
		r, err := ex.applyTx(tx)
		if err != nil {
			return nil, fmt.Errorf("chain: block %d tx %d: %w", blk.Header.Number, i, err)
		}
		gasUsed += r.GasUsed
		if gasUsed > blockGasLimit {
			return nil, fmt.Errorf("%w: %d > %d", ErrBlockGasLimit, gasUsed, blockGasLimit)
		}
		receipts[i] = r
	}
	// Block reward (χ·ν of Eq. 8): fees were credited per-tx.
	if err := st.Credit(blk.Header.Miner, BlockReward); err != nil {
		return nil, fmt.Errorf("chain: credit block reward: %w", err)
	}
	return receipts, nil
}

// Intrinsic gas, Ethereum's schedule: every transaction pays the base,
// and a call pays for its input bytes on top.
const (
	gasTxBase        = 21_000
	gasTxDataZero    = 4
	gasTxDataNonZero = 68
)

// intrinsicGas is what a call with input data costs before the call runs:
// all a call to an address other than the contract's ever costs.
func intrinsicGas(data []byte) uint64 {
	gas := uint64(gasTxBase)
	for _, b := range data {
		if b == 0 {
			gas += gasTxDataZero
		} else {
			gas += gasTxDataNonZero
		}
	}
	return gas
}

// requiredGas returns the gas a transaction consumes when its protocol
// action succeeds. A call to the contract is priced GasRefund in applyTx;
// its validity check here is the intrinsic gas.
func (ex *executor) requiredGas(tx *types.Transaction) uint64 {
	switch tx.Kind {
	case types.TxTransfer:
		return gasTxBase
	case types.TxSRA:
		return contract.GasSRA
	case types.TxInitialReport:
		return contract.GasInitialReport
	case types.TxDetailedReport:
		return contract.GasDetailedReport
	default:
		return intrinsicGas(tx.Data)
	}
}

// applyTx applies one transaction. A returned error invalidates the whole
// block; protocol/VM failures are recorded in the receipt instead.
func (ex *executor) applyTx(tx *types.Transaction) (*Receipt, error) {
	sender, err := tx.Sender()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrTxSender, err)
	}
	if got := ex.st.Nonce(sender); got != tx.Nonce {
		return nil, fmt.Errorf("%w: have %d, tx %d", ErrBadNonce, got, tx.Nonce)
	}
	if ex.st.Balance(sender) < tx.Cost() {
		return nil, fmt.Errorf("%w: balance %s, cost %s", ErrUnaffordableTx,
			ex.st.Balance(sender), tx.Cost())
	}
	needed := ex.requiredGas(tx)
	if tx.GasLimit < needed {
		return nil, fmt.Errorf("%w: limit %d, need %d", ErrGasLimitTooLow, tx.GasLimit, needed)
	}

	// The snapshot marks the state's undo journal and freezes nothing, so
	// every write of the transaction — nonce, value, contract storage, fee,
	// miner — rewrites the trie paths this block's earlier writes copied.
	// The nonce bump survives failure, as in Ethereum: fail() writes the
	// journaled pre-images back and then the bump again, which only a
	// failed transaction pays for, in proportion to what it wrote.
	snap := ex.st.Snapshot()
	ex.st.SetNonce(sender, tx.Nonce+1)

	receipt := &Receipt{TxHash: tx.Hash(), Kind: tx.Kind, Success: true, GasUsed: needed}
	fail := func(cause error) {
		if revertErr := ex.st.RevertToSnapshot(snap); revertErr != nil {
			panic("chain: snapshot revert failed: " + revertErr.Error())
		}
		ex.st.SetNonce(sender, tx.Nonce+1)
		receipt.Success = false
		receipt.Err = cause.Error()
		receipt.GasUsed = tx.GasLimit // failed actions burn the gas limit
	}

	switch tx.Kind {
	case types.TxTransfer:
		if err := ex.st.Transfer(sender, tx.To, tx.Value); err != nil {
			fail(err)
		}

	case types.TxSRA:
		sra, err := tx.SRA()
		if err != nil {
			// Unparseable payloads invalidate the block.
			return nil, fmt.Errorf("%w: %w", ErrTxPayload, err)
		}
		if err := ex.st.Transfer(sender, contract.Address, tx.Value); err != nil {
			fail(err)
			break
		}
		if err := ex.cfg.Contract.ApplySRA(ex.st, ex.number, sra); err != nil {
			fail(err)
		}

	case types.TxInitialReport:
		r, err := tx.InitialReport()
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrTxPayload, err)
		}
		if err := ex.cfg.Contract.ApplyInitialReport(ex.st, ex.number, r); err != nil {
			fail(err)
		}

	case types.TxDetailedReport:
		r, err := tx.DetailedReport()
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrTxPayload, err)
		}
		payout, err := ex.cfg.Contract.ApplyDetailedReport(ex.st, ex.number, r)
		if err != nil {
			fail(err)
		} else {
			receipt.Payout = payout
		}

	case types.TxContractCall:
		ex.execCall(tx, sender, receipt, fail)

	default:
		return nil, fmt.Errorf("%w: kind %d", types.ErrTxBadKind, tx.Kind)
	}

	// Fee to the mining provider (ψ·ω of Eq. 8).
	fee := types.Amount(receipt.GasUsed) * tx.GasPrice
	if err := ex.st.Debit(sender, fee); err != nil {
		// Unreachable: cost check above reserved GasLimit×price ≥ fee.
		return nil, fmt.Errorf("%w: debit sender: %w", ErrFeeSettle, err)
	}
	if fee > 0 {
		if err := ex.st.Credit(ex.miner, fee); err != nil {
			return nil, fmt.Errorf("%w: credit miner: %w", ErrFeeSettle, err)
		}
	}
	receipt.Fee = fee
	return receipt, nil
}

// execCall runs a TxContractCall. A call to the SmartCrowd contract runs
// one of its native methods (an insurance refund after the detection
// window) and is priced GasRefund. No other account holds code, so a call
// to any other address moves its value and costs the intrinsic gas
// requiredGas already charged.
func (ex *executor) execCall(tx *types.Transaction, sender types.Address, receipt *Receipt, fail func(error)) {
	if tx.To == contract.Address {
		receipt.GasUsed = contract.GasRefund
		if tx.GasLimit < receipt.GasUsed {
			fail(ErrGasLimitTooLow)
			return
		}
		if _, err := ex.cfg.Contract.Call(ex.st, ex.number, sender, tx.Data); err != nil {
			fail(err)
		}
		return
	}
	if tx.Value > 0 {
		if err := ex.st.Transfer(sender, tx.To, tx.Value); err != nil {
			fail(err)
		}
	}
}
