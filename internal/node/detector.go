package node

import (
	"sort"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/detection"
	"github.com/smartcrowd/smartcrowd/internal/incentive"
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

// heldFinding is a finding about the SRA sraID, held until the poll clock
// reaches due.
type heldFinding struct {
	sraID   types.Hash
	finding types.Finding
	due     time.Duration
}

// ImageSource is where a detector downloads a released image (the SRA's
// download link U_l) by the hash U_h the SRA commits to; ok is false
// while the source does not hold it.
type ImageSource interface {
	Image(systemHash types.Hash) (img *detection.SystemImage, ok bool)
}

var _ ImageSource = (*detection.GroundTruthVerifier)(nil)

// DetectorNode is a lightweight detector driving the two-phase submission
// protocol with a pluggable detection engine. It finds released systems
// in its own view of the chain, and it sends but never receives.
type DetectorNode struct {
	id       p2p.NodeID
	wallet   *wallet.Wallet
	engine   detection.Engine
	reader   ChainReader
	contract *contract.Contract
	images   ImageSource
	net      p2p.Transport

	// listed is how many entries of the contract's SRA listing were read
	// at the head listedAt (height listedNum). The listing only grows
	// along a chain, so they stay read while listedAt is canonical.
	listed    int
	listedAt  types.Hash
	listedNum uint64
	// scanned holds the SRAs scanned or rejected, so a reorg that
	// re-chains one does not get it scanned again; waiting holds those
	// whose image the source did not hold yet.
	scanned map[types.Hash]bool
	waiting []*types.SRA
	held    []heldFinding

	nonce   uint64
	pending []pendingReveal

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

// NewDetector creates a detector node that reads the chain through
// reader, the releases through sc's SRA listing and their images from
// images. It broadcasts its reports on net without joining it, so it is
// no one's peer: providers push it no block and relay it nothing.
func NewDetector(id p2p.NodeID, w *wallet.Wallet, engine detection.Engine, reader ChainReader,
	sc *contract.Contract, images ImageSource, net p2p.Transport) *DetectorNode {
	return &DetectorNode{
		id:          id,
		wallet:      w,
		engine:      engine,
		reader:      reader,
		contract:    sc,
		images:      images,
		net:         net,
		scanned:     make(map[types.Hash]bool),
		unconfirmed: make(map[uint64]sentTx),
	}
}

// Address is the detector's account: it signs the reports and is paid.
func (d *DetectorNode) Address() types.Address { return d.wallet.Address() }

// Poll runs the protocol at time now on the driver's clock, against one
// view of the chain. It scans each SRA chained since its last poll once
// (Phase #2: the SRA's signature, the image got by U_h and checked
// against it, the engine), holding each finding until now reaches the
// scanning poll's now plus the engine's search time; an SRA whose image
// is not there yet is tried again next poll. It commits all of one SRA's
// due findings in one R† (Phase I), resends stalled transactions
// (resendStuck) and reveals each R* whose R† is revealConfirmations deep
// (Phase II), dropping the reveal of an R† that failed. It returns when
// the findings this poll found fall due, so a driver can poll again then;
// a poll at a now past every search time commits each scan whole.
func (d *DetectorNode) Poll(now time.Duration) []time.Duration {
	v := d.reader.CurrentView()
	wake := d.scanReleases(v, now)
	d.commitDue(v, now)
	d.resendStuck(v)
	var still []pendingReveal
	for _, p := range d.pending {
		if v.Confirmations(p.initialTxHash) < revealConfirmations {
			still = append(still, p)
			continue
		}
		if r, err := v.ReceiptOf(p.initialTxHash); err == nil && !r.Success {
			continue // a failed R† commits nothing: its R* would fail too
		}
		dtx := types.NewDetailedReportTx(p.detailed, d.nonce, contract.GasDetailedReport, contract.GasPrice)
		if err := types.SignTx(dtx, d.wallet); err != nil {
			still = append(still, p)
			continue
		}
		d.send(dtx, v.HeadNumber())
	}
	d.pending = still
	return wake
}

// scanReleases scans the SRAs v lists that the detector has not scanned
// and holds what its engine finds, returning when each falls due.
func (d *DetectorNode) scanReleases(v *chain.ReadView, now time.Duration) []time.Duration {
	if at, err := v.HeaderByNumber(d.listedNum); err != nil || at.ID() != d.listedAt {
		// A reorg dropped the head the listing was read at and may have
		// replaced its tail: read it again from the start.
		d.listed, d.waiting = 0, nil
	}
	sras := d.waiting
	d.waiting = nil
	st := v.State()
	for count := d.contract.SRACount(st); d.listed < count; d.listed++ {
		id, _ := d.contract.SRAAt(st, d.listed) // below count, so present
		if d.scanned[id] {
			continue
		}
		sra, ok := d.announcement(v, id)
		if !ok {
			break // read it again at the next poll
		}
		sras = append(sras, sra)
	}
	d.listedAt, d.listedNum = v.HeadID(), v.HeadNumber()

	var wake []time.Duration
	for _, sra := range sras {
		img, ok := d.images.Image(sra.SystemHash)
		if !ok {
			d.waiting = append(d.waiting, sra)
			continue
		}
		d.scanned[sra.ID] = true
		if sra.Verify() != nil || img.Hash() != sra.SystemHash {
			continue // a forged SRA or a tampered download gets no report
		}
		for _, det := range d.engine.Scan(img) {
			due := max(now+det.After, now) // saturated at the end of time
			d.held = append(d.held, heldFinding{sraID: sra.ID, finding: det.Finding, due: due})
			wake = append(wake, due)
		}
	}
	return wake
}

// announcement reads the SRA id from its announcing transaction, in the
// block the contract records as its release.
func (d *DetectorNode) announcement(v *chain.ReadView, id types.Hash) (*types.SRA, bool) {
	info, _ := d.contract.GetSRA(v.State(), id) // listed, so registered
	blk, err := v.BlockByNumber(info.ReleaseBlock)
	if err != nil {
		return nil, false
	}
	for _, tx := range blk.Txs {
		if sra, err := tx.SRA(); err == nil && sra.ID == id {
			return sra, true
		}
	}
	return nil, false
}

// commitDue commits the findings due at now, one R† per SRA: an SRA is
// scanned once, so its findings are held side by side. Findings whose
// commitment cannot be signed stay held.
func (d *DetectorNode) commitDue(v *chain.ReadView, now time.Duration) {
	var still, due []heldFinding
	for i, h := range d.held {
		if h.due <= now {
			due = append(due, h)
		} else {
			still = append(still, h)
		}
		if len(due) > 0 && (i+1 == len(d.held) || d.held[i+1].sraID != h.sraID) {
			if d.commit(v, due) != nil {
				still = append(still, due...)
			}
			due = nil
		}
	}
	d.held = still
}

// commit submits Phase I for held findings about one SRA: it signs the
// detailed report R* over them and broadcasts the initial report R† that
// commits to it.
func (d *DetectorNode) commit(v *chain.ReadView, held []heldFinding) error {
	findings := make([]types.Finding, len(held))
	for i, h := range held {
		findings[i] = h.finding
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].VulnID < findings[j].VulnID })
	detailed := &types.DetailedReport{
		SRAID:    held[0].sraID,
		Detector: d.wallet.Address(),
		Wallet:   d.wallet.Address(),
		Findings: findings,
	}
	if err := types.SignDetailedReport(detailed, d.wallet); err != nil {
		return err
	}
	initial := &types.InitialReport{
		SRAID:      held[0].sraID,
		Detector:   d.wallet.Address(),
		DetailHash: detailed.CommitmentHash(),
		Wallet:     d.wallet.Address(),
	}
	if err := types.SignInitialReport(initial, d.wallet); err != nil {
		return err
	}
	itx := types.NewInitialReportTx(initial, d.nonce, contract.GasInitialReport, contract.GasPrice)
	if err := types.SignTx(itx, d.wallet); err != nil {
		return err
	}
	d.pending = append(d.pending, pendingReveal{initialTxHash: itx.Hash(), detailed: detailed})
	d.send(itx, v.HeadNumber())
	return nil
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
	d.net.Broadcast(d.id, p2p.Message{Kind: p2p.MsgTx, Payload: raw})
}

// Earnings is the bounty the chain's books credit the detector's wallet
// with, as read from one view of the chain (incentive.Read); 0 when the
// view cannot be read whole: a snap-joined chain's receipts start at its
// snapshot.
func (d *DetectorNode) Earnings() types.Amount {
	books, err := incentive.Read(d.reader.CurrentView())
	if err != nil {
		return 0
	}
	return books.Of(d.Address()).Bounty
}
