// Package contract implements the SmartCrowd contract: the on-chain
// program that holds SRA insurance in escrow, tracks two-phase detection
// reports, verifies findings through AutoVerif (paper Eq. 6), and allocates
// incentives automatically (paper §V-D, Eq. 7-10).
//
// The contract runs natively inside the chain's state-transition function
// at a reserved address, with its records laid out in that account's
// storage slots — so reorganizations, snapshots and state roots cover it
// like any other state. It is the chain's only contract: no transaction
// can deploy code. Its gas prices (Params) are constants calibrated to
// the paper's prototype costs, not metered execution.
package contract

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// StateDB is the state surface the contract operates through: balances,
// value transfer and its own storage slots. *state.DB satisfies it.
type StateDB interface {
	Balance(addr types.Address) types.Amount
	Transfer(from, to types.Address, value types.Amount) error
	GetStorage(addr types.Address, key types.Hash) types.Hash
	SetStorage(addr types.Address, key, value types.Hash)
}

// Address is the reserved account the SmartCrowd contract lives at. The
// last byte is 0x5C ("SmartCrowd").
var Address = func() types.Address {
	var a types.Address
	a[19] = 0x5C
	return a
}()

// Verifier is AutoVerif (paper Eq. 6): it decides whether a reported
// finding is genuine for the released system. IoT providers plug in their
// verification engines (the detection package supplies the reference
// implementation backed by ground truth).
type Verifier interface {
	AutoVerif(sraID types.Hash, finding types.Finding) bool
}

// VerifierFunc adapts a function to the Verifier interface.
type VerifierFunc func(types.Hash, types.Finding) bool

// AutoVerif implements Verifier.
func (f VerifierFunc) AutoVerif(sraID types.Hash, finding types.Finding) bool {
	return f(sraID, finding)
}

// Params tunes the contract.
type Params struct {
	// CommitDepth is how many blocks after the R† inclusion a matching R*
	// becomes acceptable ("when the block containing R† is confirmed").
	CommitDepth uint64
	// DetectionWindow is how many blocks after release the insurance stays
	// locked; afterwards the provider may reclaim the remainder.
	DetectionWindow uint64
	// GasSRA is the gas consumed by an SRA registration (contract
	// deployment in the paper; ≈0.095 ether at 50 gwei).
	GasSRA uint64
	// GasInitialReport and GasDetailedReport price report submissions
	// (≈0.011 ether at 50 gwei per report).
	GasInitialReport  uint64
	GasDetailedReport uint64
	// GasRefund prices an insurance reclaim.
	GasRefund uint64
	// SeverityWeightsPercent optionally scales the bounty per severity
	// class, indexed by types.Severity (1..3); 0 entries mean 100%. The
	// paper presets a single μ per vulnerability — weighting by risk class
	// is a natural extension that keeps Eq. 7's structure (μ becomes
	// μ·w(sev)) while paying high-risk findings more.
	SeverityWeightsPercent [4]uint32
}

// bountyFor applies the severity weighting to the preset bounty.
func (p Params) bountyFor(base types.Amount, sev types.Severity) types.Amount {
	if sev < 0 || int(sev) >= len(p.SeverityWeightsPercent) {
		return base
	}
	w := p.SeverityWeightsPercent[sev]
	if w == 0 {
		return base
	}
	return base * types.Amount(w) / 100
}

// DefaultParams mirrors the paper's prototype measurements: SRA release
// cost ≈ 0.095 ether and per-report cost ≈ 0.011 ether at the standard 50
// gwei gas price.
func DefaultParams() Params {
	return Params{
		CommitDepth:       1,
		DetectionWindow:   40, // ×15.35 s ≈ the paper's 10-minute horizon
		GasSRA:            1_900_000,
		GasInitialReport:  110_000,
		GasDetailedReport: 110_000,
		GasRefund:         60_000,
	}
}

// Contract is the native SmartCrowd contract logic.
type Contract struct {
	params   Params
	verifier Verifier
}

// New constructs the contract with the given AutoVerif engine.
func New(params Params, verifier Verifier) *Contract {
	return &Contract{params: params, verifier: verifier}
}

// Params returns the contract parameters.
func (c *Contract) Params() Params { return c.params }

// Contract errors.
var (
	ErrSRAExists           = errors.New("contract: SRA already registered")
	ErrSRAUnknown          = errors.New("contract: unknown SRA")
	ErrEscrowShort         = errors.New("contract: escrow not funded with the announced insurance")
	ErrCommitExists        = errors.New("contract: commitment already registered")
	ErrCommitMissing       = errors.New("contract: no confirmed initial report for this detailed report")
	ErrCommitNotReady      = errors.New("contract: initial report not yet confirmed")
	ErrCommitWrongDetector = errors.New("contract: commitment owned by a different detector")
	ErrWindowOpen          = errors.New("contract: detection window still open")
	ErrNotProvider         = errors.New("contract: caller is not the SRA provider")
	ErrNoVerifier          = errors.New("contract: no AutoVerif engine configured")
)

// --- storage layout -------------------------------------------------------
//
// Every record lives in the contract account's storage under
// keccak-derived slots; helper accessors below keep the layout in one
// place.

func slot(parts ...[]byte) types.Hash {
	all := make([][]byte, 0, len(parts)+1)
	all = append(all, []byte("smartcrowd.v1"))
	all = append(all, parts...)
	return types.HashConcat(all...)
}

func amountHash(a types.Amount) types.Hash {
	var h types.Hash
	binary.BigEndian.PutUint64(h[24:], uint64(a))
	return h
}

func hashAmount(h types.Hash) types.Amount {
	return types.Amount(binary.BigEndian.Uint64(h[24:]))
}

func uintHash(v uint64) types.Hash {
	var h types.Hash
	binary.BigEndian.PutUint64(h[24:], v)
	return h
}

func hashUint(h types.Hash) uint64 {
	return binary.BigEndian.Uint64(h[24:])
}

func addrHash(a types.Address) types.Hash {
	var h types.Hash
	copy(h[12:], a[:])
	return h
}

func hashAddr(h types.Hash) types.Address {
	var a types.Address
	copy(a[:], h[12:])
	return a
}

// one is the marker value for boolean flags; flags use a non-zero value so
// SetStorage does not prune them.
var one = uintHash(1)

// --- SRA registration (Phase #1) -------------------------------------------

// ApplySRA registers a verified announcement and records the escrowed
// insurance. The caller (chain executor) must already have moved
// sra.Insurance from the provider to the contract address; ApplySRA checks
// the funding invariant.
func (c *Contract) ApplySRA(st StateDB, blockNum uint64, sra *types.SRA) error {
	if err := sra.Verify(); err != nil {
		return fmt.Errorf("contract: SRA failed decentralized verification: %w", err)
	}
	id := sra.ID
	if !st.GetStorage(Address, slot([]byte("sra"), id[:])).IsZero() {
		return fmt.Errorf("%w: %s", ErrSRAExists, id.Short())
	}
	// Funding invariant: the contract balance must cover all outstanding
	// escrow plus this announcement's insurance.
	outstanding := hashAmount(st.GetStorage(Address, slot([]byte("escrow-total"))))
	if st.Balance(Address) < outstanding+sra.Insurance {
		return fmt.Errorf("%w: contract holds %s, escrow needs %s",
			ErrEscrowShort, st.Balance(Address), outstanding+sra.Insurance)
	}
	st.SetStorage(Address, slot([]byte("sra"), id[:]), one)
	st.SetStorage(Address, slot([]byte("sra-provider"), id[:]), addrHash(sra.Provider))
	st.SetStorage(Address, slot([]byte("sra-insurance"), id[:]), amountHash(sra.Insurance))
	st.SetStorage(Address, slot([]byte("sra-bounty"), id[:]), amountHash(sra.Bounty))
	st.SetStorage(Address, slot([]byte("sra-release-block"), id[:]), uintHash(blockNum))
	st.SetStorage(Address, slot([]byte("escrow-total")), amountHash(outstanding+sra.Insurance))
	mSRAAnnounced.Inc()
	return nil
}

// --- report submission (Phases #2/#3) --------------------------------------

// ApplyInitialReport records the R† commitment (paper Phase I).
func (c *Contract) ApplyInitialReport(st StateDB, blockNum uint64, r *types.InitialReport) error {
	if err := r.Verify(); err != nil {
		return fmt.Errorf("contract: R† failed verification: %w", err)
	}
	if st.GetStorage(Address, slot([]byte("sra"), r.SRAID[:])).IsZero() {
		return fmt.Errorf("%w: %s", ErrSRAUnknown, r.SRAID.Short())
	}
	key := slot([]byte("commit"), r.DetailHash[:])
	if !st.GetStorage(Address, key).IsZero() {
		return fmt.Errorf("%w: %s", ErrCommitExists, r.DetailHash.Short())
	}
	st.SetStorage(Address, key, uintHash(blockNum+1)) // +1 so block 0 is representable
	st.SetStorage(Address, slot([]byte("commit-owner"), r.DetailHash[:]), addrHash(r.Detector))
	st.SetStorage(Address, slot([]byte("commit-wallet"), r.DetailHash[:]), addrHash(r.Wallet))
	mCommitRecorded.Inc()
	return nil
}

// Payout describes the incentives allocated for one accepted detailed
// report.
type Payout struct {
	// Paid is the total amount transferred to the detector's wallet.
	Paid types.Amount
	// Accepted lists the findings that passed AutoVerif and were first
	// reported by this detector (the n_i·ρ_i of Eq. 7).
	Accepted []types.Finding
	// RejectedForged counts findings AutoVerif rejected.
	RejectedForged int
	// RejectedDuplicate counts findings already claimed by another
	// detector (the 1−ρ_i share).
	RejectedDuplicate int
}

// ApplyDetailedReport processes an R* reveal (paper Phase II): it requires
// a confirmed matching commitment, runs AutoVerif on every finding, pays
// the preset bounty μ per first-reported genuine vulnerability out of the
// escrowed insurance, and records the claims. This is the "decentralized
// and automated incentives allocation" of §V-D — no authority intervenes.
func (c *Contract) ApplyDetailedReport(st StateDB, blockNum uint64, r *types.DetailedReport) (Payout, error) {
	var payout Payout
	if c.verifier == nil {
		return payout, ErrNoVerifier
	}
	if err := r.Verify(); err != nil {
		return payout, fmt.Errorf("contract: R* failed verification: %w", err)
	}
	if st.GetStorage(Address, slot([]byte("sra"), r.SRAID[:])).IsZero() {
		return payout, fmt.Errorf("%w: %s", ErrSRAUnknown, r.SRAID.Short())
	}

	// Two-phase gate: the commitment must exist, belong to this detector,
	// and have been chained at least CommitDepth blocks ago.
	commitment := r.CommitmentHash()
	commitVal := st.GetStorage(Address, slot([]byte("commit"), commitment[:]))
	if commitVal.IsZero() {
		return payout, fmt.Errorf("%w (commitment %s)", ErrCommitMissing, commitment.Short())
	}
	owner := hashAddr(st.GetStorage(Address, slot([]byte("commit-owner"), commitment[:])))
	if owner != r.Detector {
		return payout, fmt.Errorf("%w: owner %s, reporter %s", ErrCommitWrongDetector, owner, r.Detector)
	}
	commitBlock := hashUint(commitVal) - 1
	if blockNum < commitBlock+c.params.CommitDepth {
		return payout, fmt.Errorf("%w: committed at block %d, revealed at %d, depth %d",
			ErrCommitNotReady, commitBlock, blockNum, c.params.CommitDepth)
	}
	// Consume the commitment so the same reveal cannot be paid twice.
	st.SetStorage(Address, slot([]byte("commit"), commitment[:]), types.Hash{})
	st.SetStorage(Address, slot([]byte("commit-owner"), commitment[:]), types.Hash{})
	st.SetStorage(Address, slot([]byte("commit-wallet"), commitment[:]), types.Hash{})

	bounty := hashAmount(st.GetStorage(Address, slot([]byte("sra-bounty"), r.SRAID[:])))
	remaining := hashAmount(st.GetStorage(Address, slot([]byte("sra-insurance"), r.SRAID[:])))
	escrowTotal := hashAmount(st.GetStorage(Address, slot([]byte("escrow-total"))))

	for _, f := range r.Findings {
		if !c.verifier.AutoVerif(r.SRAID, f) {
			payout.RejectedForged++
			continue
		}
		vulnKey := slot([]byte("claim"), r.SRAID[:], []byte(f.VulnID))
		if !st.GetStorage(Address, vulnKey).IsZero() {
			payout.RejectedDuplicate++
			continue
		}
		pay := c.params.bountyFor(bounty, f.Severity)
		if pay > remaining {
			pay = remaining // insurance exhausted: pay what is left
		}
		st.SetStorage(Address, vulnKey, addrHash(r.Wallet))
		payout.Accepted = append(payout.Accepted, f)
		if pay > 0 {
			if err := st.Transfer(Address, r.Wallet, pay); err != nil {
				return payout, fmt.Errorf("contract: payout transfer: %w", err)
			}
			payout.Paid += pay
			remaining -= pay
			escrowTotal -= pay
		}
	}
	st.SetStorage(Address, slot([]byte("sra-insurance"), r.SRAID[:]), amountHash(remaining))
	st.SetStorage(Address, slot([]byte("escrow-total")), amountHash(escrowTotal))

	count := hashUint(st.GetStorage(Address, slot([]byte("sra-vulns"), r.SRAID[:])))
	st.SetStorage(Address, slot([]byte("sra-vulns"), r.SRAID[:]), uintHash(count+uint64(len(payout.Accepted))))
	mRevealAccepted.Inc()
	mFindingsOK.Add(uint64(len(payout.Accepted)))
	mFindingsForged.Add(uint64(payout.RejectedForged))
	mFindingsDup.Add(uint64(payout.RejectedDuplicate))
	mPayoutGwei.Add(uint64(payout.Paid))
	return payout, nil
}

// --- insurance reclaim ------------------------------------------------------

// Refund returns the un-forfeited insurance to the provider once the
// detection window has elapsed. Only the SRA's provider may claim it.
func (c *Contract) Refund(st StateDB, blockNum uint64, sraID types.Hash, caller types.Address) (types.Amount, error) {
	if st.GetStorage(Address, slot([]byte("sra"), sraID[:])).IsZero() {
		return 0, fmt.Errorf("%w: %s", ErrSRAUnknown, sraID.Short())
	}
	provider := hashAddr(st.GetStorage(Address, slot([]byte("sra-provider"), sraID[:])))
	if caller != provider {
		return 0, fmt.Errorf("%w: %s", ErrNotProvider, caller)
	}
	release := hashUint(st.GetStorage(Address, slot([]byte("sra-release-block"), sraID[:])))
	if blockNum < release+c.params.DetectionWindow {
		return 0, fmt.Errorf("%w: until block %d", ErrWindowOpen, release+c.params.DetectionWindow)
	}
	remaining := hashAmount(st.GetStorage(Address, slot([]byte("sra-insurance"), sraID[:])))
	if remaining == 0 {
		return 0, nil
	}
	st.SetStorage(Address, slot([]byte("sra-insurance"), sraID[:]), amountHash(0))
	escrowTotal := hashAmount(st.GetStorage(Address, slot([]byte("escrow-total"))))
	st.SetStorage(Address, slot([]byte("escrow-total")), amountHash(escrowTotal-remaining))
	if err := st.Transfer(Address, provider, remaining); err != nil {
		return 0, fmt.Errorf("contract: refund transfer: %w", err)
	}
	mRefundPaid.Inc()
	mRefundGwei.Add(uint64(remaining))
	return remaining, nil
}

// --- native call dispatch ----------------------------------------------------

// Native method selectors for TxContractCall transactions addressed to the
// SmartCrowd contract (Address).
const (
	// MethodRefund reclaims un-forfeited insurance after the detection
	// window (input: selector byte || 32-byte SRA id).
	MethodRefund byte = 0x01
)

// ErrBadCall is returned for malformed native-call inputs.
var ErrBadCall = errors.New("contract: malformed native call input")

// RefundInput encodes a refund call's input data.
func RefundInput(sraID types.Hash) []byte {
	return append([]byte{MethodRefund}, sraID[:]...)
}

// Call dispatches a native contract invocation (the chain executor routes
// TxContractCall transactions addressed to the contract here). It returns
// the amount transferred out, if any.
func (c *Contract) Call(st StateDB, blockNum uint64, caller types.Address, input []byte) (types.Amount, error) {
	if len(input) == 0 {
		return 0, ErrBadCall
	}
	switch input[0] {
	case MethodRefund:
		if len(input) != 1+len(types.Hash{}) {
			return 0, fmt.Errorf("%w: refund wants 33 bytes, got %d", ErrBadCall, len(input))
		}
		var id types.Hash
		copy(id[:], input[1:])
		return c.Refund(st, blockNum, id, caller)
	default:
		return 0, fmt.Errorf("%w: unknown method 0x%02x", ErrBadCall, input[0])
	}
}

// --- queries (the consumer's "authoritative reference") ---------------------

// SRAInfo is a consumer-facing view of a registered announcement.
type SRAInfo struct {
	Provider           types.Address
	InsuranceRemaining types.Amount
	Bounty             types.Amount
	ReleaseBlock       uint64
	ConfirmedVulns     uint64
}

// GetSRA returns the registered record for an announcement.
func (c *Contract) GetSRA(st StateDB, sraID types.Hash) (SRAInfo, error) {
	if st.GetStorage(Address, slot([]byte("sra"), sraID[:])).IsZero() {
		return SRAInfo{}, fmt.Errorf("%w: %s", ErrSRAUnknown, sraID.Short())
	}
	return SRAInfo{
		Provider:           hashAddr(st.GetStorage(Address, slot([]byte("sra-provider"), sraID[:]))),
		InsuranceRemaining: hashAmount(st.GetStorage(Address, slot([]byte("sra-insurance"), sraID[:]))),
		Bounty:             hashAmount(st.GetStorage(Address, slot([]byte("sra-bounty"), sraID[:]))),
		ReleaseBlock:       hashUint(st.GetStorage(Address, slot([]byte("sra-release-block"), sraID[:]))),
		ConfirmedVulns:     hashUint(st.GetStorage(Address, slot([]byte("sra-vulns"), sraID[:]))),
	}, nil
}
