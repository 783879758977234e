package types

import (
	"errors"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

func signedTransfer(t *testing.T, from *wallet.Wallet, to Address, value Amount, nonce uint64) *Transaction {
	t.Helper()
	tx := &Transaction{
		Kind:     TxTransfer,
		Nonce:    nonce,
		To:       to,
		Value:    value,
		GasLimit: 21_000,
		GasPrice: 50 * GWei,
	}
	if err := SignTx(tx, from); err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestTransferSignAndValidate(t *testing.T) {
	alice := wallet.NewDeterministic("alice")
	bob := wallet.NewDeterministic("bob")
	tx := signedTransfer(t, alice, bob.Address(), EtherAmount(1), 0)
	if err := tx.ValidateBasic(); err != nil {
		t.Fatalf("valid transfer rejected: %v", err)
	}
	sender, err := tx.Sender()
	if err != nil {
		t.Fatal(err)
	}
	if sender != alice.Address() {
		t.Errorf("sender = %s, want %s", sender, alice.Address())
	}
}

func TestTamperedTxRejected(t *testing.T) {
	alice := wallet.NewDeterministic("alice")
	bob := wallet.NewDeterministic("bob")
	mallory := wallet.NewDeterministic("mallory")

	t.Run("value raised after signing", func(t *testing.T) {
		tx := signedTransfer(t, alice, bob.Address(), EtherAmount(1), 0)
		tx.Value = EtherAmount(1000)
		if _, err := tx.Sender(); err == nil {
			t.Error("tampered value accepted")
		}
	})

	t.Run("recipient redirected", func(t *testing.T) {
		tx := signedTransfer(t, alice, bob.Address(), EtherAmount(1), 0)
		tx.To = mallory.Address()
		if _, err := tx.Sender(); err == nil {
			t.Error("redirected recipient accepted")
		}
	})

	t.Run("from impersonated", func(t *testing.T) {
		tx := signedTransfer(t, mallory, bob.Address(), EtherAmount(1), 0)
		tx.From = alice.Address() // claim to be alice with mallory's signature
		if _, err := tx.Sender(); !errors.Is(err, ErrTxWrongSender) && err == nil {
			t.Errorf("impersonation accepted: err = %v", err)
		}
	})
}

func TestValidateBasicKindAndGas(t *testing.T) {
	alice := wallet.NewDeterministic("alice")
	tx := signedTransfer(t, alice, Address{}, 1, 0)
	tx.Kind = TxKind(99)
	if err := tx.ValidateBasic(); !errors.Is(err, ErrTxBadKind) {
		t.Errorf("bad kind: err = %v", err)
	}

	// A contract creation (kind 2) that was valid while accounts could
	// hold code: signed, with code in Data.
	create := &Transaction{Kind: TxKind(2), GasLimit: 500_000, GasPrice: 1, Data: []byte{0x60, 0x00, 0x60, 0x00, 0xf3}}
	if err := SignTx(create, alice); err != nil {
		t.Fatal(err)
	}
	if err := create.ValidateBasic(); !errors.Is(err, ErrTxBadKind) {
		t.Errorf("contract creation: err = %v, want ErrTxBadKind", err)
	}

	tx2 := &Transaction{Kind: TxTransfer, GasLimit: 0}
	if err := tx2.ValidateBasic(); !errors.Is(err, ErrTxNoGas) {
		t.Errorf("zero gas: err = %v", err)
	}
}

func TestSRATransactionLifecycle(t *testing.T) {
	provider := wallet.NewDeterministic("provider")
	s := testSRA(t, provider)
	tx := NewSRATx(s, 0, 2_000_000, 50*GWei)
	if err := SignTx(tx, provider); err != nil {
		t.Fatal(err)
	}
	if err := tx.ValidateBasic(); err != nil {
		t.Fatalf("valid SRA tx rejected: %v", err)
	}
	decoded, err := tx.SRA()
	if err != nil {
		t.Fatal(err)
	}
	if decoded.ID != s.ID {
		t.Error("SRA payload lost identity through tx")
	}
}

func TestSRATxMustAttachInsurance(t *testing.T) {
	provider := wallet.NewDeterministic("provider")
	s := testSRA(t, provider)
	tx := NewSRATx(s, 0, 2_000_000, 50*GWei)
	tx.Value = 0 // strip the escrow deposit
	if err := SignTx(tx, provider); err != nil {
		t.Fatal(err)
	}
	if err := tx.ValidateBasic(); err == nil {
		t.Error("SRA tx without attached insurance accepted")
	}
}

func TestSRATxSenderMustBeProvider(t *testing.T) {
	provider := wallet.NewDeterministic("provider")
	mallory := wallet.NewDeterministic("mallory")
	s := testSRA(t, provider)
	tx := NewSRATx(s, 0, 2_000_000, 50*GWei)
	if err := SignTx(tx, mallory); err != nil { // mallory relays the victim's SRA
		t.Fatal(err)
	}
	if err := tx.ValidateBasic(); err == nil {
		t.Error("SRA tx relayed by non-provider accepted")
	}
}

func TestReportTransactionsLifecycle(t *testing.T) {
	detector := wallet.NewDeterministic("detector")
	sraID := HashBytes([]byte("sra"))
	initial, detailed := buildReportPair(t, detector, sraID, sampleFindings())

	itx := NewInitialReportTx(initial, 0, 200_000, 50*GWei)
	if err := SignTx(itx, detector); err != nil {
		t.Fatal(err)
	}
	if err := itx.ValidateBasic(); err != nil {
		t.Fatalf("valid R† tx rejected: %v", err)
	}

	dtx := NewDetailedReportTx(detailed, 1, 200_000, 50*GWei)
	if err := SignTx(dtx, detector); err != nil {
		t.Fatal(err)
	}
	if err := dtx.ValidateBasic(); err != nil {
		t.Fatalf("valid R* tx rejected: %v", err)
	}

	gotInitial, err := itx.InitialReport()
	if err != nil {
		t.Fatal(err)
	}
	gotDetailed, err := dtx.DetailedReport()
	if err != nil {
		t.Fatal(err)
	}
	if err := gotDetailed.VerifyAgainstCommitment(gotInitial); err != nil {
		t.Errorf("roundtripped pair no longer linked: %v", err)
	}
}

func TestReportTxSenderMustBeDetector(t *testing.T) {
	detector := wallet.NewDeterministic("detector")
	mallory := wallet.NewDeterministic("mallory")
	initial, _ := buildReportPair(t, detector, HashBytes([]byte("sra")), sampleFindings())
	tx := NewInitialReportTx(initial, 0, 200_000, 50*GWei)
	if err := SignTx(tx, mallory); err != nil {
		t.Fatal(err)
	}
	if err := tx.ValidateBasic(); err == nil {
		t.Error("R† tx submitted by non-detector accepted")
	}
}

func TestWrongPayloadAccessors(t *testing.T) {
	alice := wallet.NewDeterministic("alice")
	tx := signedTransfer(t, alice, Address{}, 1, 0)
	if _, err := tx.SRA(); !errors.Is(err, ErrTxWrongPayload) {
		t.Errorf("SRA() on transfer: err = %v", err)
	}
	if _, err := tx.InitialReport(); !errors.Is(err, ErrTxWrongPayload) {
		t.Errorf("InitialReport() on transfer: err = %v", err)
	}
	if _, err := tx.DetailedReport(); !errors.Is(err, ErrTxWrongPayload) {
		t.Errorf("DetailedReport() on transfer: err = %v", err)
	}
}

func TestTxHashCoversSignature(t *testing.T) {
	alice := wallet.NewDeterministic("alice")
	a := signedTransfer(t, alice, Address{}, 1, 0)
	b := signedTransfer(t, alice, Address{}, 1, 0)
	if a.Hash() != b.Hash() {
		t.Error("deterministic signing should produce identical tx hashes")
	}
	if a.SigHash() == a.Hash() {
		t.Error("tx hash must differ from the signing hash")
	}
}

func TestTxFeeAndCost(t *testing.T) {
	tx := &Transaction{Value: EtherAmount(2), GasLimit: 1000, GasPrice: 3}
	if tx.Fee() != 3000 {
		t.Errorf("Fee = %d, want 3000", tx.Fee())
	}
	if tx.Cost() != EtherAmount(2)+3000 {
		t.Errorf("Cost = %d", tx.Cost())
	}
}

func TestTxEncodeDecodeRoundtrip(t *testing.T) {
	alice := wallet.NewDeterministic("alice")
	bob := wallet.NewDeterministic("bob")
	tx := signedTransfer(t, alice, bob.Address(), EtherAmount(7), 42)
	decoded, err := DecodeTx(EncodeTx(tx))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Hash() != tx.Hash() {
		t.Error("tx roundtrip changed hash")
	}
	if err := decoded.ValidateBasic(); err != nil {
		t.Errorf("roundtripped tx invalid: %v", err)
	}
}

func TestDecodeTxRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, {0x80}, {0xc0}, {0xc3, 1, 2, 3}} {
		if _, err := DecodeTx(data); err == nil {
			t.Errorf("DecodeTx accepted %x", data)
		}
	}
}

func TestAmountUnits(t *testing.T) {
	if EtherAmount(3) != 3*Ether {
		t.Error("EtherAmount mismatch")
	}
	if got := EtherAmount(5).Ether(); got != 5.0 {
		t.Errorf("Ether() = %v, want 5.0", got)
	}
	if Ether != 1e9*GWei || Finny != 1e6*GWei {
		t.Error("unit ladder inconsistent")
	}
}

func TestSeverityValidity(t *testing.T) {
	for _, s := range []Severity{SeverityLow, SeverityMedium, SeverityHigh} {
		if !s.Valid() {
			t.Errorf("%v should be valid", s)
		}
	}
	for _, s := range []Severity{0, 4, -1} {
		if s.Valid() {
			t.Errorf("%v should be invalid", s)
		}
	}
	if SeverityHigh.String() != "high" || SeverityLow.String() != "low" || SeverityMedium.String() != "medium" {
		t.Error("severity names wrong")
	}
}

func TestTxKindStrings(t *testing.T) {
	kinds := map[TxKind]string{
		TxTransfer:       "transfer",
		TxContractCall:   "contract-call",
		TxSRA:            "sra",
		TxInitialReport:  "initial-report",
		TxDetailedReport: "detailed-report",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %s, want %s", k, k.String(), want)
		}
		if !k.Valid() {
			t.Errorf("%s should be valid", want)
		}
	}
	if TxKind(0).Valid() || TxKind(7).Valid() {
		t.Error("out-of-range kinds should be invalid")
	}
	// Kind 2, contract creation, is retired; its neighbours keep their
	// numbers.
	if TxKind(2).Valid() || TxKind(2).String() != "kind(2)" {
		t.Errorf("kind 2 is %q, valid %v: want a retired kind", TxKind(2), TxKind(2).Valid())
	}
	if TxTransfer != 1 || TxContractCall != 3 || TxSRA != 4 || TxInitialReport != 5 || TxDetailedReport != 6 {
		t.Error("a transaction kind changed its number")
	}
}
