package types

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/crypto/secp256k1"
	"github.com/smartcrowd/smartcrowd/internal/rlp"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// txFieldEncodings returns the nine encoded fields of tx, so a test can
// swap one for a hostile encoding and frame the result.
func txFieldEncodings(tx *Transaction) [][]byte {
	sig := tx.sigBytes()
	return [][]byte{
		rlp.AppendUint64(nil, uint64(tx.Kind)),
		rlp.AppendUint64(nil, tx.Nonce),
		rlp.AppendBytes(nil, tx.From[:]),
		rlp.AppendBytes(nil, tx.To[:]),
		rlp.AppendUint64(nil, uint64(tx.Value)),
		rlp.AppendUint64(nil, tx.GasLimit),
		rlp.AppendUint64(nil, uint64(tx.GasPrice)),
		rlp.AppendBytes(nil, tx.Data),
		rlp.AppendBytes(nil, sig[:]),
	}
}

func rlpList(elems ...[]byte) []byte {
	return rlp.AppendList(nil, bytes.Join(elems, nil))
}

// with returns fields with element i replaced.
func with(fields [][]byte, i int, enc []byte) [][]byte {
	out := append([][]byte(nil), fields...)
	out[i] = enc
	return out
}

// hostileTxFrames are encodings that differ from EncodeTx(tx) in one
// place. None may decode: several of them used to decode to tx itself
// (same Hash, ValidateBasic passes), giving one transaction many
// encodings.
func hostileTxFrames(tx *Transaction) map[string][]byte {
	f := txFieldEncodings(tx)
	junkList := rlpList(rlp.AppendBytes(nil, []byte("junk")), rlpList())
	return map[string][]byte{
		"list in the data position":       rlpList(with(f, 7, junkList)...),
		"empty list in the data position": rlpList(with(f, 7, rlpList())...),
		"list in the from position":       rlpList(with(f, 2, rlpList(f[2]))...),
		"list in the signature position":  rlpList(with(f, 8, rlpList(f[8]))...),
		"list in the nonce position":      rlpList(with(f, 1, rlpList())...),
		"kind wider than a byte":          rlpList(with(f, 0, rlp.AppendUint64(nil, 0x100|uint64(tx.Kind)))...),
		"nonce with a leading zero":       rlpList(with(f, 1, []byte{0x82, 0x00, 0x2a})...),
		"nonce wider than 8 bytes":        rlpList(with(f, 1, rlp.AppendBytes(nil, bytes.Repeat([]byte{1}, 9)))...),
		"gas limit as a wrapped byte":     rlpList(with(f, 5, []byte{0x81, 0x05})...),
		"19-byte recipient":               rlpList(with(f, 3, rlp.AppendBytes(nil, tx.To[1:]))...),
		"64-byte signature":               rlpList(with(f, 8, rlp.AppendBytes(nil, appendSig(nil, &tx.Sig)[:64]))...),
		"eight fields":                    rlpList(f[:8]...),
		"ten fields":                      rlpList(append(f[:9:9], rlp.AppendBytes(nil, nil))...),
		"trailing byte":                   append(rlpList(f...), 0x80),
		"truncated":                       rlpList(f...)[:40],
		"bare payload, no list header":    bytes.Join(f, nil),
	}
}

func strictTx(t testing.TB) *Transaction {
	t.Helper()
	tx := &Transaction{Kind: TxTransfer, Nonce: 42, To: Address{0xb0, 0xb0}, Value: EtherAmount(7), GasLimit: 21_000, GasPrice: 50 * GWei}
	if err := SignTx(tx, wallet.NewDeterministic("alice")); err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestDecodeTxAcceptsOnlyTheCanonicalEncoding(t *testing.T) {
	tx := strictTx(t)
	if enc := rlpList(txFieldEncodings(tx)...); !bytes.Equal(enc, EncodeTx(tx)) {
		t.Fatalf("test framing drifted from EncodeTx:\n%x\n%x", enc, EncodeTx(tx))
	}
	for name, frame := range hostileTxFrames(tx) {
		got, err := DecodeTx(frame)
		if err != nil {
			continue
		}
		t.Errorf("%s: accepted (decoded hash %s, original %s, ValidateBasic: %v)",
			name, got.Hash().Short(), tx.Hash().Short(), got.ValidateBasic())
	}
}

// highSTwin returns a copy of tx signed (R, n−S, V⊕1): the other solution
// of the same ECDSA equation, which anyone who sees tx can compute. Its
// frame is well-formed, so it decodes; it must not validate.
func highSTwin(tx *Transaction) *Transaction {
	twin := &Transaction{Kind: tx.Kind, Nonce: tx.Nonce, From: tx.From, To: tx.To, Value: tx.Value,
		GasLimit: tx.GasLimit, GasPrice: tx.GasPrice, Data: tx.Data}
	twin.Sig = secp256k1.Signature{R: tx.Sig.R, V: tx.Sig.V ^ 1}
	new(big.Int).Sub(secp256k1.S256().N, new(big.Int).SetBytes(tx.Sig.S[:])).FillBytes(twin.Sig.S[:])
	return twin
}

// TestHighSTwinIsNotASecondValidEncoding: the twin used to pass
// ValidateBasic and recover the same sender under a different Hash — one
// signed transfer, two admissible transactions.
func TestHighSTwinIsNotASecondValidEncoding(t *testing.T) {
	tx := strictTx(t)
	twin, err := DecodeTx(EncodeTx(highSTwin(tx)))
	if err != nil {
		t.Fatalf("the twin's frame is well-formed and should decode: %v", err)
	}
	if twin.Hash() == tx.Hash() || twin.SigHash() != tx.SigHash() {
		t.Fatal("the twin should share the signing hash and differ in Hash")
	}
	if err := twin.ValidateBasic(); !errors.Is(err, ErrTxBadSignature) {
		sender, _ := twin.Sender()
		t.Errorf("high-S twin: ValidateBasic = %v (sender %s, original %s), want ErrTxBadSignature",
			err, sender.Short(), tx.From.Short())
	}
	if err := tx.ValidateBasic(); err != nil {
		t.Errorf("the low-S original no longer validates: %v", err)
	}
}

func TestDecodeBlockAcceptsOnlyTheCanonicalEncoding(t *testing.T) {
	tx := strictTx(t)
	blk := &Block{Header: Header{Number: 7, Time: 105_000, Difficulty: 16, TxRoot: ComputeTxRoot([]*Transaction{tx})}, Txs: []*Transaction{tx}}
	hdr := blk.Header.appendRLP(nil)
	goodTx := EncodeTx(tx)
	if enc := rlpList(hdr, rlpList(goodTx)); !bytes.Equal(enc, EncodeBlock(blk)) {
		t.Fatalf("test framing drifted from EncodeBlock:\n%x\n%x", enc, EncodeBlock(blk))
	}
	hdrFields, _, err := rlp.SplitList(hdr)
	if err != nil {
		t.Fatal(err)
	}
	frames := map[string][]byte{
		"three elements":            rlpList(hdr, rlpList(goodTx), rlpList()),
		"header only":               rlpList(hdr),
		"txs as a string":           rlpList(hdr, rlp.AppendBytes(nil, goodTx)),
		"header as a string":        rlpList(rlp.AppendBytes(nil, hdrFields), rlpList(goodTx)),
		"nine header fields":        rlpList(rlp.AppendList(nil, append(hdrFields[:len(hdrFields):len(hdrFields)], 0x80)), rlpList(goodTx)),
		"seven header fields":       rlpList(rlp.AppendList(nil, hdrFields[:len(hdrFields)-33]), rlpList(goodTx)),
		"tx as a string in the txs": rlpList(hdr, rlpList(rlp.AppendBytes(nil, goodTx))),
		"trailing byte":             append(rlpList(hdr, rlpList(goodTx)), 0x80),
	}
	for name, frame := range hostileTxFrames(tx) {
		frames["tx with "+name] = rlpList(hdr, rlpList(goodTx, frame))
	}
	for name, frame := range frames {
		if got, err := DecodeBlock(frame); err == nil {
			t.Errorf("%s: accepted (%d txs, id %s, original %s)", name, len(got.Txs), got.ID().Short(), blk.ID().Short())
		}
		if h, err := DecodeHeader(frame); err == nil {
			t.Errorf("%s: DecodeHeader accepted (id %s, original %s)", name, h.ID().Short(), blk.ID().Short())
		}
	}
}

// TestDecodeHeaderAllocatesNothing: reading a header walks every
// transaction as strictly as DecodeBlock but builds none of them.
func TestDecodeHeaderAllocatesNothing(t *testing.T) {
	txs := goldenTxs(t)
	var all []*Transaction
	for _, tx := range txs {
		all = append(all, tx)
	}
	blk := &Block{Header: Header{Number: 3, Time: 45_000, Difficulty: 8, TxRoot: ComputeTxRoot(all)}, Txs: all}
	enc := EncodeBlock(blk)
	var h Header
	var err error
	if n := testing.AllocsPerRun(20, func() { h, err = DecodeHeader(enc) }); n != 0 {
		t.Errorf("DecodeHeader of a %d-transaction block made %v allocations, want 0", len(all), n)
	}
	if err != nil || h != blk.Header {
		t.Fatalf("DecodeHeader = %+v, %v; want %+v", h, err, blk.Header)
	}
}

// checkTxRoundtrip is the property behind "a transaction has exactly one
// encoding": whatever DecodeTx accepts, EncodeTx maps back to the same
// bytes. checkBlockRoundtrip is the same for blocks, and also holds
// DecodeHeader to accepting exactly what DecodeBlock accepts, with the
// same header. Both also hold the
// decoder to the consequence it relies on: the Hash it seeds from the
// bytes it read is the Hash the object would compute.
func checkTxRoundtrip(t testing.TB, b []byte) {
	t.Helper()
	tx, err := DecodeTx(b)
	if err != nil {
		return
	}
	if enc := EncodeTx(tx); !bytes.Equal(enc, b) {
		t.Errorf("DecodeTx accepted %x, which re-encodes to %x", b, enc)
	}
	checkSeededHash(t, tx)
}

func checkBlockRoundtrip(t testing.TB, b []byte) {
	t.Helper()
	blk, err := DecodeBlock(b)
	h, herr := DecodeHeader(b)
	if (err == nil) != (herr == nil) {
		t.Fatalf("on %x DecodeBlock says %v, DecodeHeader says %v", b, err, herr)
	}
	if err != nil {
		return
	}
	if h != blk.Header || h.ID() != blk.ID() {
		t.Errorf("on %x DecodeHeader read %+v (id %s), DecodeBlock %+v (id %s)", b, h, h.ID().Short(), blk.Header, blk.ID().Short())
	}
	if enc := EncodeBlock(blk); !bytes.Equal(enc, b) {
		t.Errorf("DecodeBlock accepted %x, which re-encodes to %x", b, enc)
	}
	// AppendBlock writes the same bytes after whatever dst holds, and
	// BlockSize predicts their length.
	prefix := []byte("prefix")
	if enc := AppendBlock(prefix[:len(prefix):len(prefix)], blk); !bytes.Equal(enc, append(prefix, b...)) {
		t.Errorf("AppendBlock(prefix, %x) = %x", b, enc)
	}
	if n := BlockSize(blk); n != len(b) {
		t.Errorf("BlockSize of a %d-byte encoding = %d", len(b), n)
	}
	for _, tx := range blk.Txs {
		checkSeededHash(t, tx)
	}
}

// checkSeededHash compares a decoded transaction's memoised Hash and
// SigHash with the digests of its own encodings, computed without the memo.
func checkSeededHash(t testing.TB, tx *Transaction) {
	t.Helper()
	if tx.memo.Load() == nil {
		t.Errorf("decoder left the memo of %x empty", EncodeTx(tx))
	}
	if got, want := tx.Hash(), HashBytes(EncodeTx(tx)); got != want {
		t.Errorf("decoded %x: seeded hash %s, recomputed %s", EncodeTx(tx), got.Short(), want.Short())
	}
	unsigned := rlp.AppendList(nil, tx.appendFields(nil, false))
	if got, want := tx.SigHash(), HashBytes(unsigned); got != want {
		t.Errorf("decoded %x: seeded signing hash %s, recomputed %s", EncodeTx(tx), got.Short(), want.Short())
	}
}

// mutations yields b itself and seeded single-byte corruptions of it:
// flips, insertions and deletions at random offsets.
func mutations(b []byte, rng *rand.Rand, n int) [][]byte {
	out := [][]byte{b}
	for i := 0; i < n; i++ {
		at := rng.Intn(len(b))
		m := append([]byte(nil), b...)
		switch rng.Intn(3) {
		case 0:
			m[at] ^= byte(1 << rng.Intn(8))
		case 1:
			m = append(m[:at], append([]byte{byte(rng.Intn(256))}, m[at:]...)...)
		default:
			m = append(m[:at], m[at+1:]...)
		}
		out = append(out, m)
	}
	return out
}

func TestDecodeEncodeIsIdentityOnAcceptedBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	txs := goldenTxs(t)
	var all []*Transaction
	for _, kind := range []string{"transfer", "contract-call", "sra", "initial-report", "detailed-report"} {
		all = append(all, txs[kind])
		for _, m := range mutations(EncodeTx(txs[kind]), rng, 200) {
			checkTxRoundtrip(t, m)
		}
	}
	hostile := hostileTxFrames(strictTx(t))
	for _, frame := range hostile {
		checkTxRoundtrip(t, frame)
	}

	blk := &Block{Header: Header{Number: 3, Time: 45_000, Difficulty: 8, TxRoot: ComputeTxRoot(all)}, Txs: all}
	for _, m := range mutations(EncodeBlock(blk), rng, 500) {
		checkBlockRoundtrip(t, m)
	}
	checkBlockRoundtrip(t, EncodeBlock(&Block{}))
	for _, frame := range hostile {
		checkBlockRoundtrip(t, rlpList(blk.Header.appendRLP(nil), rlpList(frame)))
	}
}

func FuzzDecodeTx(f *testing.F) {
	tx := strictTx(f)
	f.Add(EncodeTx(tx))
	f.Add(hostileTxFrames(tx)["list in the data position"])
	f.Add(hostileTxFrames(tx)["kind wider than a byte"])
	f.Add(EncodeTx(highSTwin(tx)))
	f.Add([]byte{0xc0})
	f.Fuzz(func(t *testing.T, data []byte) { checkTxRoundtrip(t, data) })
}

func FuzzDecodeBlock(f *testing.F) {
	tx := strictTx(f)
	hdr := (&Header{Number: 1, Time: 15_000, Difficulty: 4}).appendRLP(nil)
	f.Add(EncodeBlock(&Block{Header: Header{Number: 1, Time: 15_000, Difficulty: 4}, Txs: []*Transaction{tx}}))
	f.Add(rlpList(hdr, rlpList(hostileTxFrames(tx)["list in the data position"])))
	f.Add(rlpList(hdr, rlpList()))
	f.Add([]byte{0xc2, 0xc0, 0xc0})
	f.Fuzz(func(t *testing.T, data []byte) { checkBlockRoundtrip(t, data) })
}
