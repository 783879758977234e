package types

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

func minedBlock(t *testing.T, parent Hash, number uint64, txs []*Transaction, difficulty uint64) *Block {
	t.Helper()
	miner := wallet.NewDeterministic("miner")
	b := &Block{
		Header: Header{
			ParentID:   parent,
			Number:     number,
			Time:       number * 15_000,
			Difficulty: difficulty,
			Miner:      miner.Address(),
			TxRoot:     ComputeTxRoot(txs),
			StateRoot:  HashBytes([]byte("state")),
		},
		Txs: txs,
	}
	for nonce := uint64(0); ; nonce++ {
		b.Header.Nonce = nonce
		if b.Header.MeetsPoW() {
			return b
		}
		if nonce > 1_000_000 {
			t.Fatal("could not mine test block; difficulty too high for test")
		}
	}
}

// PoWTarget is the threshold a block ID may not exceed for the given
// difficulty, ⌊(2²⁵⁶−1)/d⌋ on math/big, difficulty 0 treated as 1: the
// oracle MeetsPoW's limb arithmetic is checked against.
func PoWTarget(difficulty uint64) *big.Int {
	maxTarget := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	return maxTarget.Div(maxTarget, new(big.Int).SetUint64(max(difficulty, 1)))
}

// TestMeetsPoWMatchesTarget: meetsDifficulty, MeetsPoW's predicate on a
// given id, is exactly id ≤ PoWTarget(d) — on random ids and difficulties,
// on the difficulties at the ends of the range, and on the ids at the
// boundary (target − 1, target, target + 1) of each.
func TestMeetsPoWMatchesTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	diffs := []uint64{0, 1, 2, 3, 7, 1 << 32, 1<<63 + 1, 1<<64 - 1}
	for i := 0; i < 200; i++ {
		diffs = append(diffs, rng.Uint64()>>uint(rng.Intn(64)))
	}
	idOf := func(v *big.Int) (id Hash, ok bool) {
		if v.Sign() < 0 || v.BitLen() > 256 {
			return id, false
		}
		v.FillBytes(id[:])
		return id, true
	}
	for _, d := range diffs {
		target := PoWTarget(d)
		ids := []*big.Int{
			new(big.Int).Set(target),
			new(big.Int).Add(target, big.NewInt(1)),
			new(big.Int).Sub(target, big.NewInt(1)),
			new(big.Int),
		}
		for j := 0; j < 8; j++ {
			var raw Hash
			rng.Read(raw[:])
			ids = append(ids, new(big.Int).SetBytes(raw[:]))
			ids = append(ids, new(big.Int).Rsh(new(big.Int).SetBytes(raw[:]), uint(rng.Intn(256))))
		}
		for _, v := range ids {
			id, ok := idOf(v)
			if !ok {
				continue
			}
			want := new(big.Int).SetBytes(id[:]).Cmp(target) <= 0
			if got := meetsDifficulty(id, d); got != want {
				t.Fatalf("d=%d id=%x: limb predicate %v, target comparison %v", d, id[:], got, want)
			}
		}
	}
}

// TestMeetsPoWOnHashedHeaders runs the predicate itself, hash and all,
// against the target on real headers.
func TestMeetsPoWOnHashedHeaders(t *testing.T) {
	for _, d := range []uint64{0, 1, 2, 5, 1000, 1 << 40, 1<<64 - 1} {
		for nonce := uint64(0); nonce < 64; nonce++ {
			h := Header{Number: 7, Time: 99, Difficulty: d, Nonce: nonce}
			id := h.ID()
			if want := new(big.Int).SetBytes(id[:]).Cmp(PoWTarget(d)) <= 0; h.MeetsPoW() != want {
				t.Fatalf("d=%d nonce=%d: MeetsPoW %v, target comparison %v", d, nonce, h.MeetsPoW(), want)
			}
		}
	}
}

// TestHeaderHashAllocatesNothing: a nonce search hashes one header per
// attempt, so ID and MeetsPoW work on the stack.
func TestHeaderHashAllocatesNothing(t *testing.T) {
	h := Header{Number: 1, Time: 15_000, Difficulty: 1 << 20, Miner: Address{1}, TxRoot: Hash{2}, StateRoot: Hash{3}}
	if n := testing.AllocsPerRun(100, func() { h.Nonce++; _ = h.MeetsPoW() }); n != 0 {
		t.Errorf("MeetsPoW allocates %v times per call, want 0", n)
	}
}

func TestPoWTargetMonotone(t *testing.T) {
	if PoWTarget(1).Cmp(PoWTarget(2)) <= 0 {
		t.Error("higher difficulty must lower the target")
	}
	if PoWTarget(0).Cmp(PoWTarget(1)) != 0 {
		t.Error("difficulty 0 must behave as 1")
	}
	// Target(1) is 2^256-1: any hash qualifies.
	max := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	if PoWTarget(1).Cmp(max) != 0 {
		t.Error("difficulty-1 target should be 2^256-1")
	}
}

func TestHeaderIDDeterministicAndSensitive(t *testing.T) {
	h := Header{Number: 5, Time: 100, Difficulty: 4, Nonce: 9}
	if h.ID() != h.ID() {
		t.Error("header ID not deterministic")
	}
	h2 := h
	h2.Nonce++
	if h.ID() == h2.ID() {
		t.Error("nonce change did not change header ID")
	}
	h3 := h
	h3.ParentID = HashBytes([]byte("x"))
	if h.ID() == h3.ID() {
		t.Error("parent change did not change header ID")
	}
}

func TestBlockVerifyShape(t *testing.T) {
	alice := wallet.NewDeterministic("alice")
	txs := []*Transaction{signedTransfer(t, alice, Address{}, 5, 0)}
	b := minedBlock(t, HashBytes([]byte("genesis")), 1, txs, 16)
	if err := b.VerifyShape(); err != nil {
		t.Fatalf("valid block rejected: %v", err)
	}
}

func TestBlockVerifyShapeRejectsBadTxRoot(t *testing.T) {
	alice := wallet.NewDeterministic("alice")
	txs := []*Transaction{signedTransfer(t, alice, Address{}, 5, 0)}
	b := minedBlock(t, Hash{}, 1, txs, 16)
	// A colluding miner swaps in a different transaction set after sealing.
	b.Txs = []*Transaction{signedTransfer(t, alice, Address{}, 500, 0)}
	if err := b.VerifyShape(); !errors.Is(err, ErrBlockBadTxRoot) {
		t.Errorf("tampered tx set: err = %v, want ErrBlockBadTxRoot", err)
	}
}

func TestBlockVerifyShapeRejectsBadPoW(t *testing.T) {
	b := minedBlock(t, Hash{}, 1, nil, 16)
	b.Header.Difficulty = 1 << 60 // claim a difficulty the nonce doesn't meet
	if err := b.VerifyShape(); !errors.Is(err, ErrBlockBadPoW) {
		t.Errorf("unmined block: err = %v, want ErrBlockBadPoW", err)
	}
}

func TestBlockVerifyShapeRejectsInvalidTx(t *testing.T) {
	alice := wallet.NewDeterministic("alice")
	tx := signedTransfer(t, alice, Address{}, 5, 0)
	tx.Value = 99 // break the signature
	b := minedBlock(t, Hash{}, 1, []*Transaction{tx}, 4)
	if err := b.VerifyShape(); err == nil {
		t.Error("block with invalid tx accepted")
	}
}

func TestBlockVerifyShapeRejectsZeroTime(t *testing.T) {
	b := minedBlock(t, Hash{}, 1, nil, 4)
	b.Header.Time = 0
	// Re-mine with time zero to isolate the timestamp check.
	for nonce := uint64(0); ; nonce++ {
		b.Header.Nonce = nonce
		if b.Header.MeetsPoW() {
			break
		}
	}
	if err := b.VerifyShape(); !errors.Is(err, ErrBlockNoTime) {
		t.Errorf("zero-time block: err = %v, want ErrBlockNoTime", err)
	}
}

func TestGenesisExemptFromPoW(t *testing.T) {
	g := &Block{Header: Header{Number: 0, Difficulty: 1 << 62}}
	g.Header.TxRoot = ComputeTxRoot(nil)
	if err := g.VerifyShape(); err != nil {
		t.Errorf("genesis rejected: %v", err)
	}
}

func TestCountReports(t *testing.T) {
	detector := wallet.NewDeterministic("detector")
	provider := wallet.NewDeterministic("provider")
	initial, detailed := buildReportPair(t, detector, HashBytes([]byte("s")), sampleFindings())
	itx := NewInitialReportTx(initial, 0, 1, 1)
	dtx := NewDetailedReportTx(detailed, 1, 1, 1)
	transfer := signedTransfer(t, provider, Address{}, 1, 0)
	b := &Block{Txs: []*Transaction{itx, dtx, transfer}}
	if got := b.CountReports(); got != 2 {
		t.Errorf("CountReports = %d, want 2", got)
	}
}

func TestBlockEncodeDecodeRoundtrip(t *testing.T) {
	alice := wallet.NewDeterministic("alice")
	detector := wallet.NewDeterministic("detector")
	initial, _ := buildReportPair(t, detector, HashBytes([]byte("s")), sampleFindings())
	itx := NewInitialReportTx(initial, 0, 200_000, 50*GWei)
	if err := SignTx(itx, detector); err != nil {
		t.Fatal(err)
	}
	txs := []*Transaction{signedTransfer(t, alice, Address{}, 5, 0), itx}
	b := minedBlock(t, HashBytes([]byte("parent")), 3, txs, 8)

	decoded, err := DecodeBlock(EncodeBlock(b))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.ID() != b.ID() {
		t.Error("block roundtrip changed ID")
	}
	if len(decoded.Txs) != len(b.Txs) {
		t.Fatalf("roundtrip lost transactions")
	}
	if err := decoded.VerifyShape(); err != nil {
		t.Errorf("roundtripped block invalid: %v", err)
	}
	// The embedded report must survive intact.
	r, err := decoded.Txs[1].InitialReport()
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != initial.ID {
		t.Error("embedded report identity changed through block roundtrip")
	}
}

func TestDecodeBlockRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, {0xc0}, {0xc2, 0xc0, 0xc0}} {
		if _, err := DecodeBlock(data); err == nil {
			t.Errorf("DecodeBlock accepted %x", data)
		}
	}
}

func TestComputeTxRootEmptyStable(t *testing.T) {
	if ComputeTxRoot(nil) != ComputeTxRoot([]*Transaction{}) {
		t.Error("empty tx root unstable")
	}
}

func BenchmarkHeaderID(b *testing.B) {
	h := Header{Number: 123456, Time: 99, Difficulty: 0xf00000, Nonce: 42}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Nonce = uint64(i)
		h.ID()
	}
}

// TestFieldsSizeMatchesAppendFields walks the payload lengths at which an
// RLP string changes form; the integers ride along at both extremes.
func TestFieldsSizeMatchesAppendFields(t *testing.T) {
	alice := wallet.NewDeterministic("alice")
	for _, n := range []int{0, 1, 2, 55, 56, 255, 256, 70_000} {
		for _, fill := range []byte{0x00, 0x7f, 0x80} {
			tx := &Transaction{Kind: TxContractCall, GasLimit: 1, Data: bytes.Repeat([]byte{fill}, n)}
			if n%2 == 1 {
				tx.Nonce, tx.Value, tx.GasLimit, tx.GasPrice = 1<<64-1, 1<<63, 0x80, 0x7f
			}
			if err := SignTx(tx, alice); err != nil {
				t.Fatal(err)
			}
			if got, want := tx.fieldsSize(), len(tx.appendFields(nil, true)); got != want {
				t.Errorf("data %d×%#x: fieldsSize = %d, appendFields wrote %d", n, fill, got, want)
			}
		}
	}
	unsigned := &Transaction{Kind: TxTransfer}
	if got, want := unsigned.fieldsSize(), len(unsigned.appendFields(nil, true)); got != want {
		t.Errorf("unsigned: fieldsSize = %d, appendFields wrote %d", got, want)
	}
}

// TestEncodeBlockWritesOnce pins the encoder's allocation count: one
// exactly-sized output for a 100-transaction block (a second is allowed
// for), where building the payload up list by list took about a dozen and
// four times the bytes.
func TestEncodeBlockWritesOnce(t *testing.T) {
	alice := wallet.NewDeterministic("alice")
	txs := make([]*Transaction, 100)
	for i := range txs {
		txs[i] = signedTransfer(t, alice, Address{byte(i)}, Amount(i), uint64(i))
	}
	b := &Block{Header: Header{Number: 9, Time: 135_000, TxRoot: ComputeTxRoot(txs)}, Txs: txs}
	var enc []byte
	if n := testing.AllocsPerRun(20, func() { enc = EncodeBlock(b) }); n > 2 {
		t.Errorf("EncodeBlock made %v allocations for 100 transactions, want at most 2", n)
	}
	if len(enc) != cap(enc) {
		t.Errorf("output is %d bytes in a %d-byte slice", len(enc), cap(enc))
	}
	back, err := DecodeBlock(enc)
	if err != nil || back.ID() != b.ID() || len(back.Txs) != len(txs) {
		t.Fatalf("round trip: %v", err)
	}
}
