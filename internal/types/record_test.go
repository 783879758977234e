package types

import (
	"errors"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// recordCase is a block encoding and the PoW setting it is checked under.
type recordCase struct {
	raw     []byte
	skipPoW bool
	want    error // the sentinel VerifyShape's error wraps; nil = accepted
}

// sealRecord fills in the root and grinds the nonce of a block over txs,
// then encodes it: a record whose only defect is whatever txs carry.
func sealRecord(tb testing.TB, txs []*Transaction, edit func(*Header)) []byte {
	tb.Helper()
	b := &Block{Header: Header{Number: 7, Time: 105_000, Difficulty: 16, TxRoot: ComputeTxRoot(txs)}, Txs: txs}
	if edit != nil {
		edit(&b.Header)
	}
	for !b.Header.MeetsPoW() {
		b.Header.Nonce++
	}
	return EncodeBlock(b)
}

// recordCases is the table FuzzVerifyRecord starts from: an honest
// record and one of each way a peer's record can be wrong.
func recordCases(tb testing.TB) map[string]recordCase {
	tb.Helper()
	alice, bob := wallet.NewDeterministic("alice"), wallet.NewDeterministic("bob")
	transfer := func(nonce uint64) *Transaction {
		tx := &Transaction{Kind: TxTransfer, Nonce: nonce, To: Address{0xb0}, Value: GWei, GasLimit: 21_000, GasPrice: GWei}
		if err := SignTx(tx, alice); err != nil {
			tb.Fatal(err)
		}
		return tx
	}
	honest := []*Transaction{transfer(0), transfer(1), transfer(2)}
	valid := sealRecord(tb, honest, nil)

	flipped := Edited(transfer(1), func(tx *Transaction) { tx.Sig.S[9] ^= 0x40 })
	wrongFrom := Edited(transfer(1), func(tx *Transaction) { tx.From = bob.Address() })

	// An SRA alice announces, carried in a transaction bob signs.
	sra := &SRA{Provider: alice.Address(), Name: "fw", Version: "1", SystemHash: HashBytes([]byte("img")),
		DownloadLink: "sc://fw", Insurance: EtherAmount(10), Bounty: EtherAmount(1)}
	if err := SignSRA(sra, alice); err != nil {
		tb.Fatal(err)
	}
	foreignSRA := NewSRATx(sra, 0, 200_000, GWei)
	if err := SignTx(foreignSRA, bob); err != nil {
		tb.Fatal(err)
	}

	cases := map[string]recordCase{
		"honest":            {raw: valid},
		"empty":             {raw: sealRecord(tb, nil, nil)},
		"flipped signature": {raw: sealRecord(tb, []*Transaction{transfer(0), flipped}, nil), want: ErrTxWrongSender},
		"wrong From":        {raw: sealRecord(tb, []*Transaction{wrongFrom}, nil), want: ErrTxWrongSender},
		"SRA of another":    {raw: sealRecord(tb, []*Transaction{foreignSRA}, nil), want: ErrTxWrongSender},
		"bad tx root":       {raw: sealRecord(tb, honest, func(h *Header) { h.TxRoot[0] ^= 1 }), want: ErrBlockBadTxRoot},
		"zero time":         {raw: sealRecord(tb, honest, func(h *Header) { h.Time = 0 }), want: ErrBlockNoTime},
		"truncated":         {raw: valid[:len(valid)-3], want: errDecode},
		"trailing bytes":    {raw: append(valid[:len(valid):len(valid)], 0x80), want: errDecode},
	}
	// A header that claims more work than its nonce did: refused unless
	// the predicate is skipped, when the same record is honest.
	unmined := &Block{Header: Header{Number: 7, Time: 105_000, Difficulty: 1 << 62, TxRoot: ComputeTxRoot(honest)}, Txs: honest}
	for !meetsDifficulty(unmined.Header.ID(), 16) || unmined.Header.MeetsPoW() {
		unmined.Header.Nonce++
	}
	cases["bad PoW"] = recordCase{raw: EncodeBlock(unmined), want: ErrBlockBadPoW}
	cases["bad PoW, skipped"] = recordCase{raw: EncodeBlock(unmined), skipPoW: true}
	cases["bad tx root, PoW skipped"] = recordCase{raw: cases["bad tx root"].raw, skipPoW: true, want: ErrBlockBadTxRoot}
	cases["zero time, PoW skipped"] = recordCase{raw: cases["zero time"].raw, skipPoW: true}
	cases["flipped signature, PoW skipped"] = recordCase{raw: cases["flipped signature"].raw, skipPoW: true, want: ErrTxWrongSender}
	return cases
}

// errDecode stands for any DecodeBlock failure in recordCases.
var errDecode = errors.New("decode failure")

// checkRecord holds RecordVerifier to DecodeBlock + VerifyShape on raw:
// both accept, or both fail with the same error, and an accepted record
// yields the decoded header. The verifier first checks an honest record,
// so what it reuses from one record to the next is dirty when raw comes.
func checkRecord(t *testing.T, raw, honest []byte, skipPoW bool) error {
	t.Helper()
	var want error
	blk, err := DecodeBlock(raw)
	if want = err; err == nil {
		want = blk.VerifyShape(skipPoW)
	}
	v := RecordVerifier{SkipPoW: skipPoW}
	if _, err := v.Verify(honest); err != nil {
		t.Fatalf("honest record refused: %v", err)
	}
	h, got := v.Verify(raw)
	switch {
	case (got == nil) != (want == nil):
		t.Fatalf("record check says %v, DecodeBlock + VerifyShape say %v", got, want)
	case got != nil && got.Error() != want.Error():
		t.Fatalf("record check fails with %q, DecodeBlock + VerifyShape with %q", got, want)
	case got == nil && h != blk.Header:
		t.Fatalf("record check returned header %+v, DecodeBlock %+v", h, blk.Header)
	}
	return got
}

// TestVerifyRecordTable runs every seed of FuzzVerifyRecord and pins the
// error class each is refused with.
func TestVerifyRecordTable(t *testing.T) {
	cases := recordCases(t)
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			err := checkRecord(t, c.raw, cases["honest"].raw, c.skipPoW)
			switch {
			case c.want == nil && err != nil:
				t.Fatalf("refused: %v", err)
			case c.want == errDecode:
				if _, derr := DecodeBlock(c.raw); derr == nil || err == nil {
					t.Fatalf("accepted by the decoder, error %v", err)
				}
			case c.want != nil && !errors.Is(err, c.want):
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}
}

// TestVerifierReuseMatchesDecode: one verifier walks a good record, one
// whose signature is bad, and another good one, then a bad record and a
// good one, and says of each what DecodeBlock + VerifyShape say of the
// same bytes: the same header and the same error. Its scratch
// transaction gets a fresh memo for every record, and this is what
// shows a stale one.
func TestVerifierReuseMatchesDecode(t *testing.T) {
	cases := recordCases(t)
	bob := wallet.NewDeterministic("bob")
	var others []*Transaction
	for nonce := range uint64(4) {
		tx := &Transaction{Kind: TxTransfer, Nonce: nonce, To: Address{0xa1}, Value: 2 * GWei, GasLimit: 21_000, GasPrice: GWei}
		if err := SignTx(tx, bob); err != nil {
			t.Fatal(err)
		}
		others = append(others, tx)
	}
	records := map[string][]byte{"good'": sealRecord(t, others, nil)}
	for name, c := range cases {
		records[name] = c.raw
	}
	var v RecordVerifier
	for _, walk := range [][]string{{"honest", "flipped signature", "good'"}, {"wrong From", "honest"}} {
		for _, name := range walk {
			raw := records[name]
			blk, want := DecodeBlock(raw)
			if want != nil {
				t.Fatalf("%s: %v", name, want)
			}
			want = blk.VerifyShape(false)
			h, got := v.Verify(raw)
			if h != blk.Header {
				t.Errorf("%s after %v: header %+v, DecodeBlock %+v", name, walk, h, blk.Header)
			}
			if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
				t.Errorf("%s after %v: verifier says %v, DecodeBlock + VerifyShape say %v", name, walk, got, want)
			}
		}
	}
}

// TestVerifyRecordAllocatesNothing: a verifier that has seen a record
// checks it again — decode, root, PoW, and one recovery per transaction —
// on the scratch it already holds.
func TestVerifyRecordAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget is not meaningful under -race")
	}
	raw := recordCases(t)["honest"].raw
	var v RecordVerifier
	if _, err := v.Verify(raw); err != nil {
		t.Fatal(err)
	}
	before := mSenderCacheMiss.Value()
	if n := testing.AllocsPerRun(10, func() { _, _ = v.Verify(raw) }); n != 0 {
		t.Errorf("Verify made %v allocations, want 0", n)
	}
	if got := mSenderCacheMiss.Value() - before; got != 3*11 {
		t.Errorf("%d sender recoveries over 11 checks of 3 transactions, want 33", got)
	}
}

// FuzzVerifyRecord: the record check accepts exactly the records
// DecodeBlock + VerifyShape accept, failing with the same error.
func FuzzVerifyRecord(f *testing.F) {
	cases := recordCases(f)
	for _, c := range cases {
		f.Add(c.raw, c.skipPoW)
	}
	honest := cases["honest"].raw
	f.Fuzz(func(t *testing.T, raw []byte, skipPoW bool) { checkRecord(t, raw, honest, skipPoW) })
}
