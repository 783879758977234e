package types

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// goldenTxs builds one signed transaction of each of the five kinds from
// deterministic wallets (signatures are RFC 6979, so the bytes are stable).
// The field values cover the encoder's edge forms: a zero nonce and value
// (empty string), a one-byte payload below 0x80 (bare byte), payloads
// above 55 bytes (long string form).
func goldenTxs(t *testing.T) map[string]*Transaction {
	t.Helper()
	alice := wallet.NewDeterministic("alice")
	bob := wallet.NewDeterministic("bob")
	provider := wallet.NewDeterministic("provider-1")
	detector := wallet.NewDeterministic("detector-1")
	sign := func(tx *Transaction, w *wallet.Wallet) *Transaction {
		if err := SignTx(tx, w); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	initial, detailed := buildReportPair(t, detector, HashBytes([]byte("sra")), sampleFindings())
	return map[string]*Transaction{
		"transfer": signedTransfer(t, alice, bob.Address(), EtherAmount(7), 42),
		"contract-call": sign(&Transaction{
			Kind: TxContractCall, Nonce: 1, To: Address{0xc0, 0xde}, Value: 1, GasLimit: 90_000, GasPrice: 1,
			Data: []byte{0x05},
		}, bob),
		"sra":             sign(NewSRATx(testSRA(t, provider), 3, 300_000, 50*GWei), provider),
		"initial-report":  sign(NewInitialReportTx(initial, 0, 200_000, 50*GWei), detector),
		"detailed-report": sign(NewDetailedReportTx(detailed, 1, 400_000, 50*GWei), detector),
	}
}

// TestWireEncodingGolden pins the bytes every node must agree on: the
// signing and identity digests and the transport encoding of one
// transaction per kind, a header identifier, and the encoding of an empty
// and a 3-transaction block (which is also the store's log record and the
// range-sync payload). testdata/wire_golden.txt was generated at e6da21a,
// by the Item-tree encoder this one replaced; it changes only with a
// deliberate format change. (Its three contract-create rows went with
// that kind; no other row moved.)
func TestWireEncodingGolden(t *testing.T) {
	got := map[string]string{}
	txs := goldenTxs(t)
	for name, tx := range txs {
		sh, h := tx.loadMemo().sigHash, tx.Hash()
		got[name+".sighash"] = hex.EncodeToString(sh[:])
		got[name+".hash"] = hex.EncodeToString(h[:])
		got[name+".enc"] = hex.EncodeToString(EncodeTx(tx))
	}
	hdr := Header{
		ParentID:   HashBytes([]byte("parent")),
		Number:     123456,
		Time:       1_851_840_000,
		Difficulty: 0xf00000,
		Nonce:      1<<63 + 5,
		Miner:      wallet.NewDeterministic("miner").Address(),
		TxRoot:     ComputeTxRoot(nil),
		StateRoot:  HashBytes([]byte("state")),
	}
	id := hdr.ID()
	got["header.id"] = hex.EncodeToString(id[:])
	got["block.empty"] = hex.EncodeToString(EncodeBlock(&Block{Header: hdr}))
	three := []*Transaction{txs["transfer"], txs["sra"], txs["initial-report"]}
	hdr.TxRoot = ComputeTxRoot(three)
	got["block.three"] = hex.EncodeToString(EncodeBlock(&Block{Header: hdr, Txs: three}))

	raw, err := os.ReadFile(filepath.Join("testdata", "wire_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, hexBytes, _ := strings.Cut(line, " ")
		want[name] = hexBytes
	}
	if len(got) != len(want) {
		t.Errorf("%d golden entries, computed %d", len(want), len(got))
	}
	for name, g := range got {
		if g != want[name] {
			t.Errorf("%s:\n got %s\nwant %s", name, g, want[name])
		}
	}
}
