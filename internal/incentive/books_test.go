package incentive_test

import (
	"errors"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/core"
	"github.com/smartcrowd/smartcrowd/internal/detection"
	"github.com/smartcrowd/smartcrowd/internal/incentive"
	"github.com/smartcrowd/smartcrowd/internal/node"
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// insurance and bounty price the release every scenario makes.
var (
	insurance = types.EtherAmount(1000)
	bounty    = types.EtherAmount(5)
)

// outsider is an address no genesis funds and no node owns.
var outsider = types.Address{0xAB}

// scenario is a platform of two funded providers and one detector, on
// which provider 0 released an image with four vulnerabilities and the
// detector was paid for what it found.
type scenario struct {
	p   *core.Platform
	sra *types.SRA
}

func newScenario(t *testing.T) *scenario {
	t.Helper()
	p := core.NewPlatform(core.Config{Seed: 9})
	for _, name := range []string{"alpha", "beta"} {
		if err := p.Fund(p.ProviderWallet(name).Address(), types.EtherAmount(10_000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Fund(p.DetectorWallet("lab").Address(), types.EtherAmount(100)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alpha", "beta"} {
		if _, err := p.AddProvider(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.AddDetector("lab", &detection.CapabilityEngine{Name: "lab", Capability: 1, Speed: 8, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	img := detection.GenerateImage("cam-fw", "1.0", detection.UniverseSpec{High: 4, Seed: 12})
	sra, err := p.Release(0, img, insurance, bounty)
	if err != nil {
		t.Fatal(err)
	}
	s := &scenario{p: p, sra: sra}
	for i := 0; i < 6; i++ {
		s.mine(t, i%2)
	}
	return s
}

func (s *scenario) mine(t *testing.T, provider int) {
	t.Helper()
	if _, err := s.p.Mine(provider); err != nil {
		t.Fatal(err)
	}
}

// send signs a transaction from provider i at its next nonce and pools it
// there; the caller mines it with the same provider.
func (s *scenario) send(t *testing.T, i int, tx *types.Transaction) *types.Transaction {
	t.Helper()
	prov := s.p.Providers()[i]
	tx.Nonce = prov.CurrentView().State().Nonce(prov.Address())
	tx.GasPrice = contract.GasPrice
	if err := types.SignTx(tx, prov.Wallet()); err != nil {
		t.Fatal(err)
	}
	if err := prov.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	return tx
}

func (s *scenario) refundTx() *types.Transaction {
	return &types.Transaction{
		Kind: types.TxContractCall, To: contract.Address,
		GasLimit: contract.GasRefund, Data: contract.RefundInput(s.sra.ID),
	}
}

func (s *scenario) read(t *testing.T) (*incentive.Books, *chain.ReadView) {
	t.Helper()
	v := s.p.Providers()[0].CurrentView()
	books, err := incentive.Read(v)
	if err != nil {
		t.Fatal(err)
	}
	return books, v
}

// TestTrackerFlows: the books track every flow. It reads a chain that
// mined, paid a detector, failed a transaction and moved value both ways
// a transaction can, and holds every category against what the chain did: each miner earns the
// block reward per block and the fees of its blocks, every sender pays
// its receipts' fees, the bounty the detector earns is the insurance the
// provider forfeits, and the transfers reach the outsider. Read's own
// check holds the sum against every head balance.
func TestTrackerFlows(t *testing.T) {
	s := newScenario(t)
	early := s.send(t, 0, s.refundTx()) // the detection window is open: fails, burns its gas limit
	s.mine(t, 0)
	s.send(t, 1, &types.Transaction{Kind: types.TxTransfer, To: outsider, Value: types.EtherAmount(3), GasLimit: 21_000})
	s.mine(t, 1)
	s.send(t, 1, &types.Transaction{Kind: types.TxContractCall, To: outsider, Value: types.EtherAmount(2), GasLimit: 21_000})
	s.mine(t, 1)

	books, v := s.read(t)
	r, err := v.ReceiptOf(early.Hash())
	if err != nil || r.Success {
		t.Fatalf("the early refund: receipt %+v, %v; want a failed one", r, err)
	}

	provs, det := s.p.Providers(), s.p.Detectors()[0]
	var mined, fees types.Amount
	for i, prov := range provs {
		bal := books.Of(prov.Address())
		if bal.Blocks == 0 || bal.Mining != chain.BlockReward*types.Amount(bal.Blocks) {
			t.Errorf("provider %d: mining %s over %d blocks", i, bal.Mining, bal.Blocks)
		}
		mined += bal.Mining
		fees += bal.Fees
	}
	if want := chain.BlockReward * types.Amount(v.HeadNumber()); mined != want {
		t.Errorf("providers mined %s, %d blocks reward %s", mined, v.HeadNumber(), want)
	}
	var blockFees, gas types.Amount
	for _, b := range books.Blocks {
		blockFees += b.Fees
	}
	for _, a := range []types.Address{provs[0].Address(), provs[1].Address(), det.Address()} {
		gas += books.Of(a).Gas
	}
	if fees != gas || blockFees != gas {
		t.Errorf("miners earned %s in fees, blocks carry %s, senders paid %s", fees, blockFees, gas)
	}
	if alpha := books.Of(provs[0].Address()); alpha.Gas < types.Amount(contract.GasSRA+contract.GasRefund)*contract.GasPrice {
		t.Errorf("provider 0 paid %s gas, less than its release and the failed refund's limit", alpha.Gas)
	}

	out := books.SRAs[s.sra.ID]
	if out == nil || out.PaidOut == 0 || out.Confirmed == 0 {
		t.Fatalf("the release's outcome %+v; want the detector paid", out)
	}
	paid := books.Of(det.Address())
	if paid.Bounty != out.PaidOut || paid.Accepted != out.Confirmed || out.PaidOut != bounty*types.Amount(out.Confirmed) {
		t.Errorf("detector booked %s for %d findings; the release paid %s for %d", paid.Bounty, paid.Accepted, out.PaidOut, out.Confirmed)
	}
	if got := det.Earnings(); got != paid.Bounty {
		t.Errorf("Earnings %s, books %s", got, paid.Bounty)
	}
	if alpha := books.Of(provs[0].Address()); alpha.Punishment != out.PaidOut || alpha.Out != insurance || alpha.Refund != 0 {
		t.Errorf("provider 0: punishment %s, escrowed %s, refund %s; want %s, %s, 0", alpha.Punishment, alpha.Out, alpha.Refund, out.PaidOut, insurance)
	}
	if got := books.Of(outsider); got.In != types.EtherAmount(5) || v.State().Balance(outsider) != types.EtherAmount(5) {
		t.Errorf("the outsider received %s and holds %s; want 5 ETH", got.In, v.State().Balance(outsider))
	}
}

// TestTrackerUnknownAddressZero: an address the chain never touched has
// a zero balance in the books.
func TestTrackerUnknownAddressZero(t *testing.T) {
	s := newScenario(t)
	books, _ := s.read(t)
	for _, a := range []types.Address{outsider, wallet.NewDeterministic("ghost").Address()} {
		if got := books.Of(a); got != (incentive.Balance{}) {
			t.Errorf("%x, which the chain never touched, has %+v", a[:4], got)
		}
	}
}

// TestBooksCountARefund: once the detection window has passed, the
// provider reclaims its insurance. The receipt does not carry the amount;
// the books credit the provider the insurance its detector payouts left,
// the contract ends empty, and the books still balance.
func TestBooksCountARefund(t *testing.T) {
	s := newScenario(t)
	for s.p.Providers()[0].CurrentView().HeadNumber() <= 1+contract.DefaultParams().DetectionWindow {
		s.mine(t, 0) // the release is in block 1
	}
	refund := s.send(t, 0, s.refundTx())
	s.mine(t, 0)

	books, v := s.read(t)
	if r, err := v.ReceiptOf(refund.Hash()); err != nil || !r.Success {
		t.Fatalf("refund receipt %+v, %v", r, err)
	}
	out := books.SRAs[s.sra.ID]
	if out == nil || out.PaidOut == 0 {
		t.Fatalf("the release's outcome %+v; want some insurance forfeited", out)
	}
	alpha := books.Of(s.p.Providers()[0].Address())
	if want := insurance - out.PaidOut; out.Refund != want || alpha.Refund != want {
		t.Errorf("refund booked %s (release) and %s (provider), want the %s not forfeited", out.Refund, alpha.Refund, want)
	}
	escrow := books.Of(contract.Address)
	if escrow.In != insurance || escrow.Out != insurance || v.State().Balance(contract.Address) != 0 {
		t.Errorf("contract took in %s and paid out %s, and holds %s; want all %s returned", escrow.In, escrow.Out, v.State().Balance(contract.Address), insurance)
	}
}

// TestBooksRefuseASnapJoinedView: a chain installed from a snapshot has
// no receipts below it, so its books cannot be read whole.
func TestBooksRefuseASnapJoinedView(t *testing.T) {
	cfg := chain.DefaultConfig(contract.New(contract.DefaultParams(), nil))
	cfg.SkipPoWCheck = true
	cfg.Alloc = map[types.Address]types.Amount{outsider: types.EtherAmount(1)}
	src, err := node.NewProvider("src", wallet.NewDeterministic("src"), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for ts := uint64(1); ts <= 2; ts++ {
		if _, err := src.SealAndPublish(pow.AsBuilt{}, ts, 1, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := incentive.Read(src.CurrentView()); err != nil {
		t.Fatalf("the source's books: %v", err)
	}
	var recs []types.BlockRecord
	for _, blk := range src.Chain().CanonicalBlocks()[1:] {
		recs = append(recs, types.BlockRecord{Block: &types.Block{Header: blk.Header}, Raw: types.EncodeBlock(blk)})
	}
	joined, err := node.NewProvider("joined", wallet.NewDeterministic("joined"), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := joined.Chain().AdoptSnapshot(recs, src.Chain().SnapshotNow().State); err != nil {
		t.Fatal(err)
	}
	if _, err := incentive.Read(joined.CurrentView()); !errors.Is(err, chain.ErrBelowHorizon) {
		t.Errorf("books of a snap-joined view: %v, want ErrBelowHorizon", err)
	}
}
