// Package contract implements the SmartCrowd contract: the on-chain
// program that holds SRA insurance in escrow, tracks two-phase detection
// reports, verifies findings through AutoVerif (paper Eq. 6), and allocates
// incentives automatically (paper §V-D, Eq. 7-10).
//
// The contract runs natively inside the chain's state-transition function
// at a reserved address, with its records laid out in that account's
// storage slots — so reorganizations, snapshots and state roots cover it
// like any other state. It is the chain's only contract: no transaction
// can deploy code. Its gas costs (GasSRA, ...) are constants calibrated
// to the paper's prototype costs, not metered execution.
package contract

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/smartcrowd/smartcrowd/internal/crypto/keccak"
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
}

// DefaultParams returns the protocol timing the paper's prototype runs.
func DefaultParams() Params {
	return Params{
		CommitDepth:     1,
		DetectionWindow: 40, // ×15.35 s ≈ the paper's 10-minute horizon
	}
}

// Gas each contract action consumes, calibrated to the paper's prototype
// measurements at GasPrice: an SRA release costs ≈ 0.095 ether and a
// report ≈ 0.011 ether (§VII).
const (
	// GasSRA is the gas an SRA registration consumes (contract deployment
	// in the paper).
	GasSRA uint64 = 1_900_000
	// GasInitialReport and GasDetailedReport price report submissions.
	GasInitialReport  uint64 = 110_000
	GasDetailedReport uint64 = 110_000
	// GasRefund prices an insurance reclaim.
	GasRefund uint64 = 60_000
)

// GasPrice is the 50 gwei standard gas price the paper's costs assume;
// every transaction the platform, the simulator and detector nodes sign
// offers it.
const GasPrice = 50 * types.GWei

// Contract is the native SmartCrowd contract logic.
type Contract struct {
	params   Params
	verifier Verifier
}

// New constructs the contract with the given AutoVerif engine.
func New(params Params, verifier Verifier) *Contract {
	return &Contract{params: params, verifier: verifier}
}

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
// Every record lives in the contract account's storage under keys
// prefix ‖ field ‖ 15 bytes (zero but for claims), with
// prefix = keccak256(kind ‖ id)[:16]: each record is one subtree of the
// storage trie, so a write costs one path into it, not one per field.
// The consumer's reference is read from these records alone: an SRA's
// tally slot counts its reports and its confirmed findings by severity,
// and the global record lists the SRAs in registration order. PROTOCOL.md
// §3 has the table. Keys are derived on the stack.

// Record kinds, and the fields under each.
const (
	kindGlobal, kindSRA, kindCommit = 0x00, 0x01, 0x02

	fieldSRA          = 0x00 // registered flag
	fieldSRAProvider  = 0x01
	fieldSRAInsurance = 0x02 // insurance remaining
	fieldSRABounty    = 0x03
	fieldSRARelease   = 0x04 // release block
	fieldSRATally     = 0x05 // reports and confirmed findings (tally)
	fieldSRAClaim     = 0x10 // claim[VulnID]: keccak256(VulnID)[:15] follows

	fieldCommitBlock  = 0x00 // inclusion block + 1
	fieldCommitOwner  = 0x01
	fieldCommitWallet = 0x02

	fieldGlobalEscrow = 0x00 // SRA count in bytes 0–7, escrow outstanding in 24–31
	fieldGlobalSRA    = 0x01 // ‖ u64 index: the id of the index-th SRA registered
)

// recordPrefix is the first 16 bytes every key of one record shares.
type recordPrefix [16]byte

func prefixOf(kind byte, id types.Hash) recordPrefix {
	var buf [1 + types.HashSize]byte
	buf[0] = kind
	copy(buf[1:], id[:])
	h := keccak.Sum256(buf[:])
	return recordPrefix(h[:16])
}

func sraPrefix(id types.Hash) recordPrefix    { return prefixOf(kindSRA, id) }
func commitPrefix(id types.Hash) recordPrefix { return prefixOf(kindCommit, id) }

// field returns the slot of one of the record's fields.
func (p recordPrefix) field(f byte) (k types.Hash) {
	copy(k[:], p[:])
	k[len(p)] = f
	return k
}

// claim returns the slot recording which wallet first reported vulnID
// against the SRA whose prefix p is.
func (p recordPrefix) claim(vulnID string) types.Hash {
	k, h := p.field(fieldSRAClaim), keccak.Sum256String(vulnID)
	copy(k[len(p)+1:], h[:])
	return k
}

// globalRecord is the prefix of the records that span every SRA.
var globalRecord = prefixOf(kindGlobal, types.Hash{})

// escrowTotalSlot holds the escrow outstanding across every SRA in bytes
// 24–31 (hashAmount reads it) and the number of SRAs registered in bytes
// 0–7 (sraCount).
var escrowTotalSlot = globalRecord.field(fieldGlobalEscrow)

func sraCount(escrow types.Hash) uint64 { return binary.BigEndian.Uint64(escrow[:8]) }

// sraSlot returns the slot holding the id of the i-th SRA registered.
func sraSlot(i uint64) types.Hash {
	k := globalRecord.field(fieldGlobalSRA)
	binary.BigEndian.PutUint64(k[len(globalRecord)+1:], i)
	return k
}

// withAmount returns h with a in the bytes hashAmount reads, keeping the
// rest of a packed slot.
func withAmount(h types.Hash, a types.Amount) types.Hash {
	binary.BigEndian.PutUint64(h[24:], uint64(a))
	return h
}

// tally is an SRA's fieldSRATally slot: the successful R† and R*
// transactions in bytes 0–7, the confirmed findings of severity low,
// medium and high as u32 in bytes 8–19, and their total in bytes 24–31.
type tally struct {
	reports    uint64
	bySeverity [3]uint32
	confirmed  uint64
}

func tallyOf(h types.Hash) tally {
	t := tally{reports: binary.BigEndian.Uint64(h[:8]), confirmed: hashUint(h)}
	for i := range t.bySeverity {
		t.bySeverity[i] = binary.BigEndian.Uint32(h[8+4*i:])
	}
	return t
}

func (t tally) hash() types.Hash {
	h := uintHash(t.confirmed)
	binary.BigEndian.PutUint64(h[:8], t.reports)
	for i, n := range t.bySeverity {
		binary.BigEndian.PutUint32(h[8+4*i:], n)
	}
	return h
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
	rec := sraPrefix(id)
	if !st.GetStorage(Address, rec.field(fieldSRA)).IsZero() {
		return fmt.Errorf("%w: %s", ErrSRAExists, id.Short())
	}
	// Funding invariant: the contract balance must cover all outstanding
	// escrow plus this announcement's insurance.
	escrow := st.GetStorage(Address, escrowTotalSlot)
	outstanding := hashAmount(escrow)
	if st.Balance(Address) < outstanding+sra.Insurance {
		return fmt.Errorf("%w: contract holds %s, escrow needs %s",
			ErrEscrowShort, st.Balance(Address), outstanding+sra.Insurance)
	}
	st.SetStorage(Address, rec.field(fieldSRA), one)
	st.SetStorage(Address, rec.field(fieldSRAProvider), addrHash(sra.Provider))
	st.SetStorage(Address, rec.field(fieldSRAInsurance), amountHash(sra.Insurance))
	st.SetStorage(Address, rec.field(fieldSRABounty), amountHash(sra.Bounty))
	st.SetStorage(Address, rec.field(fieldSRARelease), uintHash(blockNum))
	n := sraCount(escrow)
	st.SetStorage(Address, sraSlot(n), id)
	binary.BigEndian.PutUint64(escrow[:8], n+1)
	st.SetStorage(Address, escrowTotalSlot, withAmount(escrow, outstanding+sra.Insurance))
	mSRAAnnounced.Inc()
	return nil
}

// --- report submission (Phases #2/#3) --------------------------------------

// ApplyInitialReport records the R† commitment (paper Phase I).
func (c *Contract) ApplyInitialReport(st StateDB, blockNum uint64, r *types.InitialReport) error {
	if err := r.Verify(); err != nil {
		return fmt.Errorf("contract: R† failed verification: %w", err)
	}
	sra := sraPrefix(r.SRAID)
	if st.GetStorage(Address, sra.field(fieldSRA)).IsZero() {
		return fmt.Errorf("%w: %s", ErrSRAUnknown, r.SRAID.Short())
	}
	rec := commitPrefix(r.DetailHash)
	if !st.GetStorage(Address, rec.field(fieldCommitBlock)).IsZero() {
		return fmt.Errorf("%w: %s", ErrCommitExists, r.DetailHash.Short())
	}
	st.SetStorage(Address, rec.field(fieldCommitBlock), uintHash(blockNum+1)) // +1 so block 0 is representable
	st.SetStorage(Address, rec.field(fieldCommitOwner), addrHash(r.Detector))
	st.SetStorage(Address, rec.field(fieldCommitWallet), addrHash(r.Wallet))
	t := tallyOf(st.GetStorage(Address, sra.field(fieldSRATally)))
	t.reports++
	st.SetStorage(Address, sra.field(fieldSRATally), t.hash())
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
	rec := sraPrefix(r.SRAID)
	if st.GetStorage(Address, rec.field(fieldSRA)).IsZero() {
		return payout, fmt.Errorf("%w: %s", ErrSRAUnknown, r.SRAID.Short())
	}

	// Two-phase gate: the commitment must exist, belong to this detector,
	// and have been chained at least CommitDepth blocks ago.
	commitment := r.CommitmentHash()
	crec := commitPrefix(commitment)
	commitVal := st.GetStorage(Address, crec.field(fieldCommitBlock))
	if commitVal.IsZero() {
		return payout, fmt.Errorf("%w (commitment %s)", ErrCommitMissing, commitment.Short())
	}
	owner := hashAddr(st.GetStorage(Address, crec.field(fieldCommitOwner)))
	if owner != r.Detector {
		return payout, fmt.Errorf("%w: owner %s, reporter %s", ErrCommitWrongDetector, owner, r.Detector)
	}
	commitBlock := hashUint(commitVal) - 1
	if blockNum < commitBlock+c.params.CommitDepth {
		return payout, fmt.Errorf("%w: committed at block %d, revealed at %d, depth %d",
			ErrCommitNotReady, commitBlock, blockNum, c.params.CommitDepth)
	}
	// Consume the commitment so the same reveal cannot be paid twice.
	st.SetStorage(Address, crec.field(fieldCommitBlock), types.Hash{})
	st.SetStorage(Address, crec.field(fieldCommitOwner), types.Hash{})
	st.SetStorage(Address, crec.field(fieldCommitWallet), types.Hash{})

	bounty := hashAmount(st.GetStorage(Address, rec.field(fieldSRABounty)))
	remaining := hashAmount(st.GetStorage(Address, rec.field(fieldSRAInsurance)))
	escrow := st.GetStorage(Address, escrowTotalSlot)
	escrowTotal := hashAmount(escrow)
	t := tallyOf(st.GetStorage(Address, rec.field(fieldSRATally)))

	for _, f := range r.Findings {
		if !c.verifier.AutoVerif(r.SRAID, f) {
			payout.RejectedForged++
			continue
		}
		vulnKey := rec.claim(f.VulnID)
		if !st.GetStorage(Address, vulnKey).IsZero() {
			payout.RejectedDuplicate++
			continue
		}
		pay := bounty
		if pay > remaining {
			pay = remaining // insurance exhausted: pay what is left
		}
		st.SetStorage(Address, vulnKey, addrHash(r.Wallet))
		payout.Accepted = append(payout.Accepted, f)
		t.bySeverity[f.Severity-1]++ // Verify admitted only valid severities
		if pay > 0 {
			if err := st.Transfer(Address, r.Wallet, pay); err != nil {
				return payout, fmt.Errorf("contract: payout transfer: %w", err)
			}
			payout.Paid += pay
			remaining -= pay
			escrowTotal -= pay
		}
	}
	st.SetStorage(Address, rec.field(fieldSRAInsurance), amountHash(remaining))
	st.SetStorage(Address, escrowTotalSlot, withAmount(escrow, escrowTotal))
	t.reports++
	t.confirmed += uint64(len(payout.Accepted))
	st.SetStorage(Address, rec.field(fieldSRATally), t.hash())
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
	rec := sraPrefix(sraID)
	if st.GetStorage(Address, rec.field(fieldSRA)).IsZero() {
		return 0, fmt.Errorf("%w: %s", ErrSRAUnknown, sraID.Short())
	}
	provider := hashAddr(st.GetStorage(Address, rec.field(fieldSRAProvider)))
	if caller != provider {
		return 0, fmt.Errorf("%w: %s", ErrNotProvider, caller)
	}
	release := hashUint(st.GetStorage(Address, rec.field(fieldSRARelease)))
	if blockNum < release+c.params.DetectionWindow {
		return 0, fmt.Errorf("%w: until block %d", ErrWindowOpen, release+c.params.DetectionWindow)
	}
	remaining := hashAmount(st.GetStorage(Address, rec.field(fieldSRAInsurance)))
	if remaining == 0 {
		return 0, nil
	}
	st.SetStorage(Address, rec.field(fieldSRAInsurance), amountHash(0))
	escrow := st.GetStorage(Address, escrowTotalSlot)
	st.SetStorage(Address, escrowTotalSlot, withAmount(escrow, hashAmount(escrow)-remaining))
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
	// Reports counts the successful R† and R* transactions for the release;
	// a failed report transaction leaves no trace in state.
	Reports    uint64
	bySeverity [3]uint32
}

// BySeverity returns how many of the confirmed vulnerabilities are of risk
// class sev. Summed over the three classes it is ConfirmedVulns.
func (i SRAInfo) BySeverity(sev types.Severity) uint64 {
	if !sev.Valid() {
		return 0
	}
	return uint64(i.bySeverity[sev-1])
}

// GetSRA returns the registered record for an announcement.
func (c *Contract) GetSRA(st StateDB, sraID types.Hash) (SRAInfo, error) {
	rec := sraPrefix(sraID)
	if st.GetStorage(Address, rec.field(fieldSRA)).IsZero() {
		return SRAInfo{}, fmt.Errorf("%w: %s", ErrSRAUnknown, sraID.Short())
	}
	t := tallyOf(st.GetStorage(Address, rec.field(fieldSRATally)))
	return SRAInfo{
		Provider:           hashAddr(st.GetStorage(Address, rec.field(fieldSRAProvider))),
		InsuranceRemaining: hashAmount(st.GetStorage(Address, rec.field(fieldSRAInsurance))),
		Bounty:             hashAmount(st.GetStorage(Address, rec.field(fieldSRABounty))),
		ReleaseBlock:       hashUint(st.GetStorage(Address, rec.field(fieldSRARelease))),
		ConfirmedVulns:     t.confirmed,
		Reports:            t.reports,
		bySeverity:         t.bySeverity,
	}, nil
}

// SRACount returns how many SRAs the contract has registered.
func (c *Contract) SRACount(st StateDB) int {
	return int(sraCount(st.GetStorage(Address, escrowTotalSlot)))
}

// SRAAt returns the id of the i-th SRA registered, counting from 0 in
// registration (chain) order, if there is one.
func (c *Contract) SRAAt(st StateDB, i int) (types.Hash, bool) {
	if i < 0 || i >= c.SRACount(st) {
		return types.Hash{}, false
	}
	return st.GetStorage(Address, sraSlot(uint64(i))), true
}
