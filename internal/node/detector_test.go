package node

import (
	"math"
	"slices"
	"testing"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/detection"
	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// allDue is a poll time past every finding's search time: a poll at it
// commits each scan whole.
const allDue = time.Duration(math.MaxInt64)

// release signs an SRA by w for img, registers its ground truth (which
// publishes the image) and submits the announcement to provider 0 with
// the given nonce, settling the bus.
func (cl *cluster) release(w *wallet.Wallet, img *detection.SystemImage, nonce uint64) *types.SRA {
	cl.t.Helper()
	return cl.releaseAt(cl.providers[0], w, img, nonce)
}

// releaseAt is release submitting to provider p.
func (cl *cluster) releaseAt(p *ProviderNode, w *wallet.Wallet, img *detection.SystemImage, nonce uint64) *types.SRA {
	cl.t.Helper()
	sra := &types.SRA{
		Provider:     w.Address(),
		Name:         img.Name,
		Version:      img.Version,
		SystemHash:   img.Hash(),
		DownloadLink: "sc://releases/" + img.Name + "/" + img.Version,
		Insurance:    types.EtherAmount(1000),
		Bounty:       types.EtherAmount(5),
	}
	if err := types.SignSRA(sra, w); err != nil {
		cl.t.Fatal(err)
	}
	cl.verifier.Register(sra.ID, img)
	tx := types.NewSRATx(sra, nonce, contract.GasSRA, contract.GasPrice)
	if err := types.SignTx(tx, w); err != nil {
		cl.t.Fatal(err)
	}
	if err := p.SubmitTx(tx); err != nil {
		cl.t.Fatal(err)
	}
	cl.settle()
	return sra
}

// detector builds a detector that reads provider 0's chain and downloads
// images from images.
func (cl *cluster) detector(w *wallet.Wallet, engine detection.Engine, images ImageSource) *DetectorNode {
	return NewDetector("d0", w, engine, cl.providers[0].Chain(), cl.contract, images, cl.net)
}

// reportTxs returns the canonical transactions of a kind that addr sent,
// as provider p's chain holds them.
func reportTxs(p *ProviderNode, kind types.TxKind, addr types.Address) []*types.Transaction {
	var out []*types.Transaction
	for _, b := range p.Chain().CanonicalBlocks() {
		for _, tx := range b.Txs {
			if from, err := tx.Sender(); err == nil && tx.Kind == kind && from == addr {
				out = append(out, tx)
			}
		}
	}
	return out
}

// imageMap is an ImageSource a test fills by hand.
type imageMap map[types.Hash]*detection.SystemImage

func (m imageMap) Image(h types.Hash) (*detection.SystemImage, bool) {
	img, ok := m[h]
	return img, ok
}

// countingEngine counts the scans it runs.
type countingEngine struct {
	detection.Engine
	scans int
}

func (e *countingEngine) Scan(img *detection.SystemImage) []detection.Detection {
	e.scans++
	return e.Engine.Scan(img)
}

func fullEngine() *countingEngine {
	return &countingEngine{Engine: &detection.CapabilityEngine{Name: "det", Capability: 1, Speed: 4, Seed: 5}}
}

func TestDetectorLifecycleEndToEnd(t *testing.T) {
	alloc, releasing, detecting := fundedActors()
	cl := newCluster(t, 2, alloc)

	// The releasing provider announces a vulnerable firmware.
	img := detection.GenerateImage("lock-fw", "2.0", detection.UniverseSpec{High: 3, Medium: 4, Low: 3, Seed: 77})
	sra := cl.release(releasing, img, 0)
	cl.mine(0)

	// A lightweight detector finds the SRA in its view and commits.
	det := cl.detector(detecting, fullEngine(), cl.verifier)
	det.Poll(allDue)
	if det.nonce != 1 || len(det.pending) != 1 {
		t.Fatalf("full-capability detector sent %d transactions with %d pending reveals, want one R†", det.nonce, len(det.pending))
	}
	cl.settle()
	cl.mine(1) // R† chained

	// Not confirmed deeply enough yet → no reveal.
	if det.Poll(allDue); det.nonce != 1 {
		t.Fatal("revealed before confirmation depth")
	}
	cl.mine(0) // depth 2
	if det.Poll(allDue); det.nonce != 2 || len(det.pending) != 0 {
		t.Fatalf("after depth 2: %d transactions sent, %d reveals pending; want the R* sent", det.nonce, len(det.pending))
	}
	cl.settle()
	cl.mine(1) // R* chained, payout executes

	reveals := reportTxs(cl.providers[0], types.TxDetailedReport, detecting.Address())
	if len(reveals) != 1 {
		t.Fatalf("chain holds %d R* from the detector, want 1", len(reveals))
	}
	r, err := cl.providers[0].CurrentView().ReceiptOf(reveals[0].Hash())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Success {
		t.Fatalf("reveal failed: %s", r.Err)
	}
	if r.Payout.Paid == 0 || len(r.Payout.Accepted) == 0 {
		t.Error("no payout for genuine findings")
	}
	if det.Earnings() != r.Payout.Paid {
		t.Errorf("Earnings() = %s, receipt says %s", det.Earnings(), r.Payout.Paid)
	}

	// Consumer consults the authoritative reference.
	consumer := NewConsumer(cl.providers[1].Chain(), cl.contract, 0)
	ref, err := consumer.Lookup(sra.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ref.ConfirmedVulns == 0 || ref.SafeToDeploy {
		t.Errorf("consumer verdict wrong: %+v", ref)
	}
	if ref.Provider != releasing.Address() {
		t.Error("reference does not name the accountable provider")
	}
	if ref.Reports != 2 {
		t.Errorf("reference lists %d reports, want 2 (R† + R*)", ref.Reports)
	}
	sum := 0
	for _, n := range ref.BySeverity {
		sum += n
	}
	if sum != int(ref.ConfirmedVulns) {
		t.Errorf("BySeverity %v sums to %d, want ConfirmedVulns %d", ref.BySeverity, sum, ref.ConfirmedVulns)
	}
}

// TestDetectorScansReleaseChainedBeforeIt: a detector built after an SRA
// is chained, and a few blocks later, finds it on its first poll and
// scans it once.
func TestDetectorScansReleaseChainedBeforeIt(t *testing.T) {
	alloc, releasing, detecting := fundedActors()
	cl := newCluster(t, 1, alloc)
	cl.release(releasing, detection.GenerateImage("fw", "1.0", detection.UniverseSpec{High: 2, Seed: 3}), 0)
	for i := 0; i < 3; i++ {
		cl.mine(0)
	}
	engine := fullEngine()
	det := cl.detector(detecting, engine, cl.verifier)
	det.Poll(allDue)
	if engine.scans != 1 || det.nonce != 1 {
		t.Fatalf("first poll: %d scans, %d transactions sent; want 1 scan and its R†", engine.scans, det.nonce)
	}
	cl.mine(0)
	det.Poll(allDue)
	if engine.scans != 1 || det.nonce != 1 {
		t.Errorf("second poll: %d scans, %d transactions sent; want the release left scanned", engine.scans, det.nonce)
	}
}

// TestDetectorRetriesImageNotYetPublished: an SRA whose image the source
// does not hold yet is not given up: the next poll asks again, and scans
// it once the image is there.
func TestDetectorRetriesImageNotYetPublished(t *testing.T) {
	alloc, releasing, detecting := fundedActors()
	cl := newCluster(t, 1, alloc)
	img := detection.GenerateImage("fw", "1.0", detection.UniverseSpec{High: 2, Seed: 3})
	cl.release(releasing, img, 0)
	cl.mine(0)
	engine, images := fullEngine(), imageMap{}
	det := cl.detector(detecting, engine, images)
	det.Poll(allDue)
	if engine.scans != 0 || det.nonce != 0 {
		t.Fatalf("without the image: %d scans, %d transactions sent", engine.scans, det.nonce)
	}
	images[img.Hash()] = img
	det.Poll(allDue)
	if engine.scans != 1 || det.nonce != 1 {
		t.Errorf("with the image: %d scans, %d transactions sent; want 1 scan and its R†", engine.scans, det.nonce)
	}
}

// TestDetectorRejectsTamperedImage: an image whose hash is not the U_h
// the SRA commits to is not scanned and gets no R†, and the release is
// not scanned again when the right image turns up.
func TestDetectorRejectsTamperedImage(t *testing.T) {
	alloc, releasing, detecting := fundedActors()
	cl := newCluster(t, 1, alloc)
	img := detection.GenerateImage("fw", "1.0", detection.UniverseSpec{High: 2, Seed: 1})
	cl.release(releasing, img, 0)
	cl.mine(0)

	tampered := detection.GenerateImage("fw", "1.0", detection.UniverseSpec{High: 2, Seed: 999})
	engine, images := fullEngine(), imageMap{img.Hash(): tampered}
	det := cl.detector(detecting, engine, images)
	det.Poll(allDue)
	if engine.scans != 0 || det.nonce != 0 {
		t.Fatalf("tampered download: %d scans, %d transactions sent; want none", engine.scans, det.nonce)
	}
	images[img.Hash()] = img
	cl.mine(0)
	det.Poll(allDue)
	if engine.scans != 0 || det.nonce != 0 {
		t.Errorf("after the rejection: %d scans, %d transactions sent; want the release never rescanned", engine.scans, det.nonce)
	}
}

func TestDetectorSkipsCleanImage(t *testing.T) {
	alloc, releasing, detecting := fundedActors()
	cl := newCluster(t, 1, alloc)
	cl.release(releasing, detection.GenerateImage("clean-fw", "1.0", detection.UniverseSpec{Seed: 1}), 0) // zero vulns
	cl.mine(0)
	engine := fullEngine()
	det := cl.detector(detecting, engine, cl.verifier)
	det.Poll(allDue)
	if engine.scans != 1 {
		t.Fatalf("%d scans of the clean release, want 1", engine.scans)
	}
	if det.nonce != 0 || len(det.pending) != 0 {
		t.Error("detector reported findings on a clean image")
	}
}

// TestDetectorScansReorgedReleaseOnce: a one-block reorg replaces the
// block that chained an SRA the detector has scanned with one that chains
// it again. The detector reads the listing again from the start and finds
// the SRA scanned: one scan, one R†, and the R† is chained and revealed on
// the new branch.
func TestDetectorScansReorgedReleaseOnce(t *testing.T) {
	alloc, releasing, detecting := fundedActors()
	cl := newCluster(t, 2, alloc)
	a, b := cl.providers[0], cl.providers[1]
	cl.release(releasing, detection.GenerateImage("fw", "1.0", detection.UniverseSpec{High: 2, Seed: 3}), 0)

	// Both pools hold the SRA; b seals its heavier block 1 out of sight.
	cl.net.Partition([]p2p.NodeID{b.ID()})
	light := cl.mine(0)
	engine := fullEngine()
	det := cl.detector(detecting, engine, cl.verifier)
	det.Poll(allDue)
	if engine.scans != 1 || det.nonce != 1 {
		t.Fatalf("on a's block: %d scans, %d transactions sent; want 1 scan and its R†", engine.scans, det.nonce)
	}
	cl.settle()
	cl.now += 15_350
	heavy, err := b.SealAndPublish(pow.AsBuilt{}, cl.now, 10_000, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(heavy.Txs) != 1 || heavy.Txs[0].Kind != types.TxSRA {
		t.Fatalf("b's block carries %d transactions, want the SRA alone", len(heavy.Txs))
	}
	cl.net.Heal()
	_ = cl.net.Send(b.ID(), a.ID(), p2p.Message{Kind: p2p.MsgBlock, Payload: types.EncodeBlock(heavy)})
	cl.settle()
	if got := a.Chain().Head().ID(); got != heavy.ID() {
		t.Fatalf("a's head is %s, want b's heavier block %s over its own %s", got.Short(), heavy.ID().Short(), light.ID().Short())
	}

	for i := 0; i < 4; i++ {
		det.Poll(allDue)
		cl.settle()
		cl.mine(0)
	}
	if engine.scans != 1 {
		t.Errorf("the re-chained SRA was scanned %d times, want once", engine.scans)
	}
	if n := len(reportTxs(a, types.TxInitialReport, detecting.Address())); n != 1 {
		t.Errorf("chain holds %d R† from the detector, want 1", n)
	}
	if n := len(reportTxs(a, types.TxDetailedReport, detecting.Address())); n != 1 {
		t.Errorf("chain holds %d R* from the detector, want 1", n)
	}
}

// TestDetectorScansReleaseAReorgPutInAnothersPlace: a reorg replaces the
// block that chained SRA A with one that chains SRA B, so B takes A's
// place in the contract's listing and the listing is no longer than the
// detector last read it. The head the detector read it at is gone, so it
// reads the listing again and scans B.
func TestDetectorScansReleaseAReorgPutInAnothersPlace(t *testing.T) {
	alloc, releasing, detecting := fundedActors()
	cl := newCluster(t, 2, alloc)
	a, b := cl.providers[0], cl.providers[1]
	cl.net.Partition([]p2p.NodeID{b.ID()})
	imgA := detection.GenerateImage("fw-a", "1.0", detection.UniverseSpec{High: 2, Seed: 3})
	imgB := detection.GenerateImage("fw-b", "1.0", detection.UniverseSpec{High: 2, Seed: 4})
	cl.releaseAt(a, releasing, imgA, 0)
	sraB := cl.releaseAt(b, releasing, imgB, 0) // the same nonce: A and B conflict
	cl.mine(0)
	engine := fullEngine()
	det := cl.detector(detecting, engine, cl.verifier)
	det.Poll(allDue)

	cl.now += 15_350
	heavy, err := b.SealAndPublish(pow.AsBuilt{}, cl.now, 10_000, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cl.net.Heal()
	_ = cl.net.Send(b.ID(), a.ID(), p2p.Message{Kind: p2p.MsgBlock, Payload: types.EncodeBlock(heavy)})
	cl.settle()
	v := a.CurrentView()
	if id, _ := cl.contract.SRAAt(v.State(), 0); v.HeadID() != heavy.ID() || cl.contract.SRACount(v.State()) != 1 || id != sraB.ID {
		t.Fatalf("setup: a's head %s, want b's block %s listing B alone", v.HeadID().Short(), heavy.ID().Short())
	}
	det.Poll(allDue)
	if engine.scans != 2 {
		t.Errorf("%d scans, want 2: A before the reorg, B after", engine.scans)
	}
}

// TestDetectorCommitsEachFindingWhenDue: a scan holds each finding until
// the poll clock reaches the scanning poll's time plus the search time the
// engine needed. A poll before the first finding is due commits nothing;
// the poll at its due time commits it alone; a poll past the rest commits
// them together in one R†.
func TestDetectorCommitsEachFindingWhenDue(t *testing.T) {
	alloc, releasing, detecting := fundedActors()
	cl := newCluster(t, 1, alloc)
	cl.release(releasing, detection.GenerateImage("fw", "1.0", detection.UniverseSpec{High: 4, Seed: 8}), 0)
	cl.mine(0)
	det := cl.detector(detecting, &detection.CapabilityEngine{Capability: 1, MeanFindTime: time.Minute, Seed: 2}, cl.verifier)

	const scannedAt = time.Hour
	wake := det.Poll(scannedAt)
	if len(wake) != 4 || det.nonce != 0 {
		t.Fatalf("the scan returned %d due times and sent %d transactions; want 4 and none", len(wake), det.nonce)
	}
	slices.Sort(wake)
	if wake[0] <= scannedAt || wake[0] == wake[1] {
		t.Fatalf("due times %v: want the first after the scan and alone", wake)
	}
	if det.Poll(wake[0] - 1); det.nonce != 0 {
		t.Fatalf("a poll before the first finding is due sent %d transactions", det.nonce)
	}
	if again := det.Poll(wake[0]); len(again) != 0 || det.nonce != 1 || len(det.pending[0].detailed.Findings) != 1 {
		t.Fatalf("the poll at the first due time sent %d transactions (%d due times again); want one R† over one finding", det.nonce, len(again))
	}
	if det.Poll(wake[3]); det.nonce != 2 || len(det.pending[1].detailed.Findings) != 3 {
		t.Errorf("the poll past every due time sent %d transactions; want one more R† over the other 3 findings", det.nonce)
	}
}

// TestDetectorIsSentNothing: a detector sends its reports and receives
// nothing. It never joins, so it is in no provider's peers, and a whole
// release → R† → R* round delivers it no block, announcement or report
// while its own reports reach the chain.
func TestDetectorIsSentNothing(t *testing.T) {
	alloc, releasing, detecting := fundedActors()
	cl := newCluster(t, 2, alloc)
	det := cl.detector(detecting, fullEngine(), cl.verifier)
	cl.release(releasing, detection.GenerateImage("fw", "1.0", detection.UniverseSpec{High: 2, Seed: 3}), 0)
	for i := 0; i < 5; i++ {
		cl.mine(i % 2)
		det.Poll(allDue)
		cl.settle()
	}
	for _, p := range cl.providers {
		if slices.Contains(cl.net.Peers(p.ID()), det.id) {
			t.Errorf("the detector is among %s's peers", p.ID())
		}
		if n := len(reportTxs(p, types.TxDetailedReport, detecting.Address())); n != 1 {
			t.Errorf("%s chained %d R* from the detector, want 1", p.ID(), n)
		}
	}
	if msgs := cl.net.Receive(det.id); len(msgs) != 0 {
		t.Errorf("the detector was delivered %d messages", len(msgs))
	}
}
