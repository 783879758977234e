package node

import (
	"fmt"
	"sort"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/detection"
	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// ChainReader is the thin query surface a lightweight detector needs; a
// ProviderNode's chain satisfies it. The paper's detectors "no longer
// construct, synchronize and store a heavyweight blockchain locally"
// (§V-B) — they consult the providers' chain instead.
type ChainReader interface {
	HeadNumber() uint64
	Confirmations(txHash types.Hash) uint64
	ReceiptOf(txHash types.Hash) (*chain.Receipt, error)
}

var _ ChainReader = (*chain.Chain)(nil)

// DetectorConfig tunes a detector node.
type DetectorConfig struct {
	// GasLimit and GasPrice apply to report transactions.
	GasLimit uint64
	// GasPrice defaults to 50 gwei, the paper-era standard.
	GasPrice types.Amount
	// RevealConfirmations is how many confirmations the R† needs before
	// the detector publishes R* (the paper waits for block confirmation).
	RevealConfirmations uint64
}

// DefaultDetectorConfig returns the standard settings.
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{
		GasLimit:            150_000,
		GasPrice:            50 * types.GWei,
		RevealConfirmations: 2,
	}
}

// pendingReveal is a committed R† whose R* has not been published yet.
type pendingReveal struct {
	initialTxHash types.Hash
	detailed      *types.DetailedReport
	// foundAfter is when (relative to the SRA) the detection completed;
	// the sim uses it to stagger submissions.
	foundAfter time.Duration
}

// DetectorNode is a lightweight detector driving the two-phase submission
// protocol with a pluggable detection engine.
type DetectorNode struct {
	id     p2p.NodeID
	wallet *wallet.Wallet
	engine detection.Engine
	reader ChainReader
	net    p2p.Transport
	cfg    DetectorConfig

	nonce    uint64
	pending  []pendingReveal
	revealed map[types.Hash]types.Hash // detailed tx hash → initial tx hash
}

// NewDetector creates a detector node and joins it to the network.
func NewDetector(id p2p.NodeID, w *wallet.Wallet, engine detection.Engine, reader ChainReader, net p2p.Transport, cfg DetectorConfig) *DetectorNode {
	if cfg.GasLimit == 0 {
		cfg = DefaultDetectorConfig()
	}
	if net != nil {
		net.Join(id)
	}
	return &DetectorNode{
		id:       id,
		wallet:   w,
		engine:   engine,
		reader:   reader,
		net:      net,
		cfg:      cfg,
		revealed: make(map[types.Hash]types.Hash),
	}
}

// OnSRA reacts to a system release: the detector downloads the image,
// verifies U_h against the announcement, scans it, and — if anything was
// found — submits the initial report R† (Phase I). It returns the R†
// transaction, or nil when the scan came up empty.
func (d *DetectorNode) OnSRA(sra *types.SRA, img *detection.SystemImage) (*types.Transaction, error) {
	if err := sra.Verify(); err != nil {
		return nil, fmt.Errorf("node: detector %s rejects SRA: %w", d.id, err)
	}
	if img.Hash() != sra.SystemHash {
		return nil, fmt.Errorf("node: image hash does not match SRA U_h (download tampered?)")
	}
	detections := d.engine.Scan(img)
	if len(detections) == 0 {
		return nil, nil
	}
	findings := make([]types.Finding, len(detections))
	var latest time.Duration
	for i, det := range detections {
		findings[i] = det.Finding
		if det.After > latest {
			latest = det.After
		}
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].VulnID < findings[j].VulnID })

	detailed := &types.DetailedReport{
		SRAID:    sra.ID,
		Detector: d.wallet.Address(),
		Wallet:   d.wallet.Address(),
		Findings: findings,
	}
	if err := types.SignDetailedReport(detailed, d.wallet); err != nil {
		return nil, err
	}
	initial := &types.InitialReport{
		SRAID:      sra.ID,
		Detector:   d.wallet.Address(),
		DetailHash: detailed.CommitmentHash(),
		Wallet:     d.wallet.Address(),
	}
	if err := types.SignInitialReport(initial, d.wallet); err != nil {
		return nil, err
	}

	itx := types.NewInitialReportTx(initial, d.nonce, d.cfg.GasLimit, d.cfg.GasPrice)
	if err := types.SignTx(itx, d.wallet); err != nil {
		return nil, err
	}
	d.nonce++
	d.pending = append(d.pending, pendingReveal{
		initialTxHash: itx.Hash(),
		detailed:      detailed,
		foundAfter:    latest,
	})
	d.broadcastTx(itx)
	return itx, nil
}

// Poll advances Phase II: for every pending commitment whose R† has
// reached the configured confirmation depth, the detector publishes the
// detailed report R*. It returns the reveal transactions submitted.
func (d *DetectorNode) Poll() []*types.Transaction {
	var revealed []*types.Transaction
	var still []pendingReveal
	for _, p := range d.pending {
		if d.reader.Confirmations(p.initialTxHash) < d.cfg.RevealConfirmations {
			still = append(still, p)
			continue
		}
		dtx := types.NewDetailedReportTx(p.detailed, d.nonce, d.cfg.GasLimit, d.cfg.GasPrice)
		if err := types.SignTx(dtx, d.wallet); err != nil {
			still = append(still, p)
			continue
		}
		d.nonce++
		d.revealed[dtx.Hash()] = p.initialTxHash
		d.broadcastTx(dtx)
		revealed = append(revealed, dtx)
	}
	d.pending = still
	return revealed
}

func (d *DetectorNode) broadcastTx(tx *types.Transaction) {
	if d.net != nil {
		d.net.Broadcast(d.id, p2p.Message{Kind: p2p.MsgTx, Payload: types.EncodeTx(tx)})
	}
}

// Earnings sums the payouts of the detector's confirmed detailed reports,
// as visible from the chain.
func (d *DetectorNode) Earnings() types.Amount {
	var total types.Amount
	for dtx := range d.revealed {
		if r, err := d.reader.ReceiptOf(dtx); err == nil && r.Success {
			total += r.Payout.Paid
		}
	}
	return total
}
