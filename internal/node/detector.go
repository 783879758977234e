package node

import (
	"fmt"
	"sort"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/detection"
	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// ChainReader is the thin query surface a lightweight detector needs: the
// published read view of a provider's chain. The paper's detectors "no
// longer construct, synchronize and store a heavyweight blockchain
// locally" (§V-B) — they consult the providers' chain instead.
type ChainReader interface {
	CurrentView() *chain.ReadView
}

var _ ChainReader = (*chain.Chain)(nil)

// revealConfirmations is how many confirmations the R† needs before the
// detector publishes R*: two, so the commitment survives a one-block
// reorg before the findings it hides become public (PROTOCOL.md §3).
const revealConfirmations = 2

// resendAfter is how many blocks the chain's confirmed nonce for the
// detector may rest on one of its signed transactions before the
// detector broadcasts its unconfirmed transactions again: long enough that
// a transaction pooled everywhere is mined first, so a funded detector
// never resends.
const resendAfter = 2 * revealConfirmations

// pendingReveal is a committed R† whose R* has not been published yet.
type pendingReveal struct {
	initialTxHash types.Hash
	detailed      *types.DetailedReport
}

// DetectorNode is a lightweight detector driving the two-phase submission
// protocol with a pluggable detection engine.
type DetectorNode struct {
	id     p2p.NodeID
	wallet *wallet.Wallet
	engine detection.Engine
	reader ChainReader
	net    p2p.Transport

	nonce    uint64
	pending  []pendingReveal
	revealed []types.Hash // the R* transactions the detector sent

	// unconfirmed is every transaction the detector signed that its view
	// has not confirmed yet, by nonce. A broadcast's refusal (a detector
	// short of gas money) never comes back, and the pools admit nonce gaps,
	// so without a resend one refused report would leave every later one
	// pooled but never mined.
	unconfirmed map[uint64]sentTx
	// confirmed is the confirmed nonce the view last showed, and
	// confirmedAt the head number at which it first showed it.
	confirmed, confirmedAt uint64
}

// sentTx is a signed transaction's encoding and the head number at which
// it was last broadcast.
type sentTx struct {
	raw []byte
	at  uint64
}

// NewDetector creates a detector node and joins it to the network.
func NewDetector(id p2p.NodeID, w *wallet.Wallet, engine detection.Engine, reader ChainReader, net p2p.Transport) *DetectorNode {
	if net != nil {
		net.Join(id)
	}
	return &DetectorNode{
		id:          id,
		wallet:      w,
		engine:      engine,
		reader:      reader,
		net:         net,
		unconfirmed: make(map[uint64]sentTx),
	}
}

// Address is the detector's account: it signs the reports and is paid.
func (d *DetectorNode) Address() types.Address { return d.wallet.Address() }

// OnSRA reacts to a system release with one scan and one commitment:
// everything the scan found shares one R†. It returns the R† transaction,
// or nil when the scan came up empty.
func (d *DetectorNode) OnSRA(sra *types.SRA, img *detection.SystemImage) (*types.Transaction, error) {
	detections, err := d.Scan(sra, img)
	if err != nil || len(detections) == 0 {
		return nil, err
	}
	findings := make([]types.Finding, len(detections))
	for i, det := range detections {
		findings[i] = det.Finding
	}
	return d.Commit(sra.ID, findings)
}

// Scan is the detector's work on a release: it checks the announcement's
// signature, checks the downloaded image against U_h, and runs its engine
// over the image. Each detection carries the search time its engine
// needed; the caller decides when to Commit what.
func (d *DetectorNode) Scan(sra *types.SRA, img *detection.SystemImage) ([]detection.Detection, error) {
	if err := sra.Verify(); err != nil {
		return nil, fmt.Errorf("node: detector %s rejects SRA: %w", d.id, err)
	}
	if img.Hash() != sra.SystemHash {
		return nil, fmt.Errorf("node: image hash does not match SRA U_h (download tampered?)")
	}
	return d.engine.Scan(img), nil
}

// Commit submits Phase I for findings about the SRA sraID: it signs the
// detailed report R* over them and broadcasts the initial report R† that
// commits to it, and Poll reveals R* once the R† is revealConfirmations
// deep. It returns the R† transaction.
func (d *DetectorNode) Commit(sraID types.Hash, findings []types.Finding) (*types.Transaction, error) {
	findings = append([]types.Finding(nil), findings...)
	sort.Slice(findings, func(i, j int) bool { return findings[i].VulnID < findings[j].VulnID })
	detailed := &types.DetailedReport{
		SRAID:    sraID,
		Detector: d.wallet.Address(),
		Wallet:   d.wallet.Address(),
		Findings: findings,
	}
	if err := types.SignDetailedReport(detailed, d.wallet); err != nil {
		return nil, err
	}
	initial := &types.InitialReport{
		SRAID:      sraID,
		Detector:   d.wallet.Address(),
		DetailHash: detailed.CommitmentHash(),
		Wallet:     d.wallet.Address(),
	}
	if err := types.SignInitialReport(initial, d.wallet); err != nil {
		return nil, err
	}

	itx := types.NewInitialReportTx(initial, d.nonce, contract.GasInitialReport, contract.GasPrice)
	if err := types.SignTx(itx, d.wallet); err != nil {
		return nil, err
	}
	d.pending = append(d.pending, pendingReveal{initialTxHash: itx.Hash(), detailed: detailed})
	d.send(itx, d.reader.CurrentView().HeadNumber())
	return itx, nil
}

// Poll advances Phase II: for every pending commitment whose R† has
// reached revealConfirmations, the detector publishes the
// detailed report R*. It returns the reveal transactions submitted. One
// view answers for every pending commitment.
//
// First, when the chain's confirmed nonce for the detector has rested on
// one of its signed transactions for resendAfter blocks, the detector
// broadcasts the exact bytes of every unconfirmed one again, in nonce
// order: a report refused for want of gas money is admitted once the
// detector can pay, and the reports signed after it chain behind it.
//
// The detector reads the chain through its ChainReader, never the gossip
// its peers push and announce to it, so Poll drops its inbox: the
// transport keeps what nobody receives.
func (d *DetectorNode) Poll() []*types.Transaction {
	if d.net != nil {
		d.net.Receive(d.id)
	}
	v := d.reader.CurrentView()
	d.resendStuck(v)
	var revealed []*types.Transaction
	var still []pendingReveal
	for _, p := range d.pending {
		if v.Confirmations(p.initialTxHash) < revealConfirmations {
			still = append(still, p)
			continue
		}
		dtx := types.NewDetailedReportTx(p.detailed, d.nonce, contract.GasDetailedReport, contract.GasPrice)
		if err := types.SignTx(dtx, d.wallet); err != nil {
			still = append(still, p)
			continue
		}
		d.revealed = append(d.revealed, dtx.Hash())
		d.send(dtx, v.HeadNumber())
		revealed = append(revealed, dtx)
	}
	d.pending = still
	return revealed
}

// send spends the transaction's nonce, keeps its bytes until the chain
// confirms it and broadcasts them; head is the view's head number.
func (d *DetectorNode) send(tx *types.Transaction, head uint64) {
	raw := types.EncodeTx(tx)
	d.unconfirmed[tx.Nonce] = sentTx{raw: raw, at: head}
	d.nonce++
	d.broadcast(raw)
}

// resendStuck forgets the transactions v confirms and, when the confirmed
// nonce has rested on an unconfirmed one for resendAfter blocks — counted
// from when it reached that nonce or from the last broadcast, whichever is
// later — broadcasts every unconfirmed transaction again.
func (d *DetectorNode) resendStuck(v *chain.ReadView) {
	if len(d.unconfirmed) == 0 {
		return
	}
	confirmed, head := v.State().Nonce(d.wallet.Address()), v.HeadNumber()
	for n := range d.unconfirmed {
		if n < confirmed {
			delete(d.unconfirmed, n)
		}
	}
	if confirmed != d.confirmed {
		d.confirmed, d.confirmedAt = confirmed, head
	}
	stuck, ok := d.unconfirmed[confirmed]
	if !ok || head < max(stuck.at, d.confirmedAt)+resendAfter {
		return
	}
	for n := confirmed; n < d.nonce; n++ {
		if s, ok := d.unconfirmed[n]; ok {
			d.unconfirmed[n] = sentTx{raw: s.raw, at: head}
			d.broadcast(s.raw)
		}
	}
}

func (d *DetectorNode) broadcast(raw []byte) {
	if d.net != nil {
		d.net.Broadcast(d.id, p2p.Message{Kind: p2p.MsgTx, Payload: raw})
	}
}

// Earnings sums the payouts of the detector's confirmed detailed reports,
// as visible from one view of the chain.
func (d *DetectorNode) Earnings() types.Amount {
	v := d.reader.CurrentView()
	var total types.Amount
	for _, dtx := range d.revealed {
		if r, err := v.ReceiptOf(dtx); err == nil && r.Success {
			total += r.Payout.Paid
		}
	}
	return total
}
