package chain

import (
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// refundHarness is a harness with a short detection window.
func refundHarness(t *testing.T) *harness {
	t.Helper()
	h := &harness{
		t:        t,
		provider: wallet.NewDeterministic("provider"),
		detector: wallet.NewDeterministic("detector"),
		miner:    wallet.NewDeterministic("miner"),
		nonces:   make(map[types.Address]uint64),
	}
	verifier := contract.VerifierFunc(func(types.Hash, types.Finding) bool { return true })
	params := contract.DefaultParams()
	params.DetectionWindow = 3
	cfg := DefaultConfig(contract.New(params, verifier))
	cfg.SkipPoWCheck = true
	cfg.Alloc = map[types.Address]types.Amount{
		h.provider.Address(): types.EtherAmount(5000),
		h.detector.Address(): types.EtherAmount(50),
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.chain = c
	return h
}

func (h *harness) refundTx(sraID types.Hash) *types.Transaction {
	h.t.Helper()
	tx := &types.Transaction{
		Kind:     types.TxContractCall,
		Nonce:    h.nextNonce(h.provider.Address()),
		To:       contract.Address,
		GasLimit: contract.GasRefund,
		GasPrice: testGasPrice,
		Data:     contract.RefundInput(sraID),
	}
	if err := types.SignTx(tx, h.provider); err != nil {
		h.t.Fatal(err)
	}
	return tx
}

func TestRefundViaTransaction(t *testing.T) {
	h := refundHarness(t)
	sraTx, sra := h.sraTx(types.EtherAmount(1000), types.EtherAmount(5))
	h.extend(sraTx) // block 1: window runs to block 4
	itx, dtx := h.reportPair(sra.ID, "V-1")
	h.extend(itx) // block 2
	h.extend(dtx) // block 3: 5 ETH forfeited
	h.extend()    // block 4: window elapsed

	before := h.chain.State().Balance(h.provider.Address())
	refund := h.refundTx(sra.ID)
	h.extend(refund) // block 5: refund executes
	r, err := h.chain.CurrentView().ReceiptOf(refund.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Success {
		t.Fatalf("refund failed: %s", r.Err)
	}
	after := h.chain.State().Balance(h.provider.Address())
	fee := types.Amount(r.GasUsed) * testGasPrice
	want := before + types.EtherAmount(995) - fee
	if after != want {
		t.Errorf("provider balance %s, want %s (995 ETH refund minus fee)", after, want)
	}
	if h.chain.State().Balance(contract.Address) != 0 {
		t.Error("contract still holds escrow after refund")
	}
}

func TestRefundBeforeWindowFailsAndBurnsGas(t *testing.T) {
	h := refundHarness(t)
	sraTx, sra := h.sraTx(types.EtherAmount(1000), types.EtherAmount(5))
	h.extend(sraTx) // block 1; window open until block 4

	refund := h.refundTx(sra.ID)
	h.extend(refund) // block 2: too early
	r, err := h.chain.CurrentView().ReceiptOf(refund.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if r.Success {
		t.Fatal("early refund succeeded")
	}
	if r.GasUsed != refund.GasLimit {
		t.Error("failed refund did not burn the gas limit")
	}
	// Escrow untouched.
	if h.chain.State().Balance(contract.Address) != types.EtherAmount(1000) {
		t.Error("early refund moved escrow")
	}
}

func TestNativeCallRejectsGarbageInput(t *testing.T) {
	h := refundHarness(t)
	sraTx, _ := h.sraTx(types.EtherAmount(1000), types.EtherAmount(5))
	h.extend(sraTx)

	tx := &types.Transaction{
		Kind:     types.TxContractCall,
		Nonce:    h.nextNonce(h.provider.Address()),
		To:       contract.Address,
		GasLimit: 100_000,
		GasPrice: testGasPrice,
		Data:     []byte{0xFF, 0x01},
	}
	if err := types.SignTx(tx, h.provider); err != nil {
		t.Fatal(err)
	}
	h.extend(tx)
	r, err := h.chain.CurrentView().ReceiptOf(tx.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if r.Success {
		t.Error("garbage native call succeeded")
	}
}
