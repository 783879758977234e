package types

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"github.com/smartcrowd/smartcrowd/internal/crypto/merkle"
	"github.com/smartcrowd/smartcrowd/internal/crypto/secp256k1"
	"github.com/smartcrowd/smartcrowd/internal/rlp"
)

// Header is a SmartCrowd block header (paper Fig. 2). PreBlockID and
// CurBlockID link blocks into a chain; Timestamp is the generation time;
// Nonce is the PoW solution the mining provider searched for; the Merkle
// root commits to the ω_i detection results recorded in the block.
type Header struct {
	// ParentID is PreBlockID, the identifier of the previous block.
	ParentID Hash
	// Number is the block height (0 for genesis).
	Number uint64
	// Time is the block generation timestamp in simulation milliseconds.
	Time uint64
	// Difficulty is the PoW difficulty; the header hash must be below
	// 2²⁵⁶/Difficulty.
	Difficulty uint64
	// Nonce is the PoW solution.
	Nonce uint64
	// Miner is the IoT provider that sealed the block and receives the
	// block reward and transaction fees (Eq. 8).
	Miner Address
	// TxRoot is the Merkle root over the block's transactions — the
	// detection-result organization of paper Fig. 2.
	TxRoot Hash
	// StateRoot commits to the post-execution account state.
	StateRoot Hash
}

// appendRLP appends the header's RLP list. This is the one place the
// header's field order is written down; the PoW nonce is included so the
// sealed hash covers it.
func (h *Header) appendRLP(dst []byte) []byte {
	var buf [160]byte // eight fields: three hashes, an address, four integers
	f := rlp.AppendBytes(buf[:0], h.ParentID[:])
	f = rlp.AppendUint64(f, h.Number)
	f = rlp.AppendUint64(f, h.Time)
	f = rlp.AppendUint64(f, h.Difficulty)
	f = rlp.AppendUint64(f, h.Nonce)
	f = rlp.AppendBytes(f, h.Miner[:])
	f = rlp.AppendBytes(f, h.TxRoot[:])
	f = rlp.AppendBytes(f, h.StateRoot[:])
	return rlp.AppendList(dst, f)
}

// ID computes CurBlockID: the Keccak-256 of the RLP-encoded header. This is
// also the value the PoW predicate constrains. The encoding is hashed from
// the stack, so a nonce search allocates nothing.
func (h *Header) ID() Hash {
	var scratch [160]byte // an encoded header is at most 158 bytes
	return HashBytes(h.appendRLP(scratch[:0]))
}

// MeetsPoW reports whether the header's ID satisfies its difficulty.
func (h *Header) MeetsPoW() bool { return meetsDifficulty(h.ID(), h.Difficulty) }

// meetsDifficulty is the PoW predicate id ≤ ⌊(2²⁵⁶−1)/d⌋, which for
// integers is id·d < 2²⁵⁶: one 256×64-bit multiplication on four limbs
// whose carry out must be zero. Difficulty 0 counts as 1, under which
// every id qualifies.
func meetsDifficulty(id Hash, d uint64) bool {
	d = max(d, 1)
	var carry uint64
	for i := len(id) - 8; i >= 0; i -= 8 { // least-significant limb first
		hi, lo := bits.Mul64(binary.BigEndian.Uint64(id[i:]), d)
		_, c := bits.Add64(lo, carry, 0)
		carry = hi + c // hi ≤ 2⁶⁴−2, so this cannot wrap
	}
	return carry == 0
}

// Block is a full SmartCrowd block: a sealed header plus the transactions
// (value transfers, SRAs and detection reports) it records.
//
// A block is open until BuildBlock or sealing returns it, and nothing
// writes it after that: a sealer grinds nonces on a Header value, and the
// sealed header goes into a new Block.
type Block struct {
	Header Header
	Txs    []*Transaction

	// id memoizes the header hash: fork choice, indexing and PoW
	// verification all ask for it again.
	id atomic.Pointer[Hash]
}

// Block validation errors.
var (
	ErrBlockBadTxRoot = errors.New("types: block transaction root mismatch")
	// ErrCheckStopped is a check given up at its caller's request, whose
	// result the caller will not read (RecordVerifier.Stop,
	// RecoverSendersUntil).
	ErrCheckStopped = errors.New("types: check stopped")
)

// ID returns the block's identifier (its header hash), memoized on first
// use. Built with the memoguard tag, it hashes the header again on every
// call and panics when it no longer matches the memo.
func (b *Block) ID() Hash {
	if id := b.id.Load(); id != nil {
		if memoGuard && *id != b.Header.ID() {
			panic("types: block " + id.Short() + " written after it was hashed")
		}
		return *id
	}
	id := b.Header.ID()
	b.id.Store(&id)
	return id
}

// Edited returns a copy of v, a *Transaction or a *Block, with edit
// applied to the copy before anything hashes it: the way to derive a
// different value from one that is signed or built, which nothing writes.
// A transaction's Data and a block's Txs are copied, so edit may write
// them in place; a block's transactions are shared, so replace one
// (with an Edited copy) rather than write it.
func Edited[T Transaction | Block](v *T, edit func(*T)) *T {
	var out any
	switch v := any(v).(type) {
	case *Transaction:
		tx := v.withoutMemo()
		tx.Data = bytes.Clone(tx.Data)
		out = &tx
	case *Block:
		out = &Block{Header: v.Header, Txs: slices.Clone(v.Txs)}
	}
	edit(out.(*T))
	return out.(*T)
}

// ComputeTxRoot builds the Merkle root over the block's transactions.
func ComputeTxRoot(txs []*Transaction) Hash {
	level := make([]merkle.Hash, len(txs))
	for i, tx := range txs {
		h := tx.Hash()
		level[i] = merkle.LeafHash(h[:])
	}
	return Hash(merkle.Fold(level))
}

// VerifyShape checks the block's self-consistency, cheapest first: the
// Merkle root, then the transactions — their senders recovered together
// (RecoverSendersUntil, polling stop), then each one's structural
// validity. The seal and the parent link are pow.Rule's, and the state
// transition is the chain package's.
func (b *Block) VerifyShape(stop func() bool) error {
	if ComputeTxRoot(b.Txs) != b.Header.TxRoot {
		return ErrBlockBadTxRoot
	}
	if err := RecoverSendersUntil(b.Txs, stop); err != nil {
		return err
	}
	for i, tx := range b.Txs {
		if err := tx.ValidateBasic(); err != nil {
			return fmt.Errorf("types: block tx %d: %w", i, err)
		}
	}
	return nil
}

// RecordVerifier runs VerifyShape on a block's EncodeBlock bytes without
// building the block: it accepts exactly what DecodeBlock followed by
// VerifyShape accepts, with the same error, recovering each sender once.
// One scratch transaction and memo and one leaf set are reused from
// record to record, so checking allocates nothing. Not safe for
// concurrent use: give each goroutine its own.
type RecordVerifier struct {
	// Stop, when set, is polled before each transaction's validation (and
	// so its sender recovery); once it reports true, Verify returns
	// ErrCheckStopped.
	Stop func() bool

	tx    Transaction
	memo  txMemo
	level []merkle.Hash // the transactions' leaf hashes, folded into the root
}

// Verify checks raw and returns its header. It walks raw twice: to decode
// and hash, so a bad root costs no recovery, then to validate.
func (v *RecordVerifier) Verify(raw []byte) (Header, error) {
	r, h := readBlock(raw)
	v.level = v.level[:0]
	for r.more() {
		if fields := r.next(&v.tx); r.err == nil {
			id := listHash(fields)
			v.level = append(v.level, merkle.LeafHash(id[:]))
		}
	}
	if err := r.close(); err != nil {
		return Header{}, err
	}
	if Hash(merkle.Fold(v.level)) != h.TxRoot {
		return h, ErrBlockBadTxRoot
	}
	r, _ = readBlock(raw)
	for i := 0; r.more(); i++ {
		if v.Stop != nil && v.Stop() {
			return h, ErrCheckStopped
		}
		fields := r.next(&v.tx) // the first walk read these bytes cleanly
		// v.tx holds the next transaction now: it gets that one's memo
		// before anything reads a digest.
		v.memo = memoOf(fields, listHash(fields))
		v.tx.memo.Store(&v.memo)
		if err := v.tx.ValidateBasic(); err != nil {
			return h, fmt.Errorf("types: block tx %d: %w", i, err)
		}
	}
	return h, nil
}

// CountReports returns ω, the number of detection-result transactions
// (initial and detailed reports) the block records — the quantity that
// earns the mining provider per-report fees in Eq. 8.
func (b *Block) CountReports() int {
	n := 0
	for _, tx := range b.Txs {
		if tx.Kind.isReport() {
			n++
		}
	}
	return n
}

// isReport reports whether k is a detection-result kind (R† or R*).
func (k TxKind) isReport() bool { return k == TxInitialReport || k == TxDetailedReport }

// TxSummary is what a block summary reads of a block's transactions:
// their ids in order, and how many are reports (CountReports).
type TxSummary struct {
	IDs     []Hash
	Reports int
}

// TxSummary returns b's transaction summary.
func (b *Block) TxSummary() *TxSummary {
	s := &TxSummary{IDs: make([]Hash, len(b.Txs)), Reports: b.CountReports()}
	for i, tx := range b.Txs {
		s.IDs[i] = tx.Hash()
	}
	return s
}

// RecordTxSummary returns the transaction summary of a block encoding
// without building its transactions: each id is hashed from its bytes.
// It rejects what DecodeBlock rejects.
func RecordTxSummary(raw []byte) (*TxSummary, error) {
	var tx Transaction
	r, _ := readBlock(raw)
	for r.more() {
		r.next(&tx)
	}
	if err := r.close(); err != nil {
		return nil, err
	}
	s := &TxSummary{IDs: make([]Hash, 0, r.n)}
	r, _ = readBlock(raw)
	for r.more() {
		s.IDs = append(s.IDs, listHash(r.next(&tx)))
		if tx.Kind.isReport() {
			s.Reports++
		}
	}
	return s, nil
}

// EncodeTx serializes a transaction for network transport.
func EncodeTx(tx *Transaction) []byte {
	var scratch [256]byte // a small payload's fields stay on the stack
	return rlp.AppendList(nil, tx.appendFields(scratch[:0], true))
}

// DecodeTx parses a transaction from its transport encoding. Only the
// bytes EncodeTx produces are accepted, so a transaction has exactly one
// encoding, and its hash is the digest of data.
func DecodeTx(data []byte) (*Transaction, error) {
	d := decoder{buf: data}
	var tx Transaction
	fields := d.txFields(&tx)
	if d.end(nil); d.err != nil {
		return nil, fmt.Errorf("types: decode tx: %w", d.err)
	}
	return tx.detach(fields, HashBytes(data)), nil
}

// EncodeBlock serializes a block for network transport: [header, [tx…]],
// written once into a slice of exactly its size.
func EncodeBlock(b *Block) []byte {
	return AppendBlock(make([]byte, 0, BlockSize(b)), b)
}

// BlockSize returns len(EncodeBlock(b)) without encoding the transactions.
func BlockSize(b *Block) int {
	var scratch [160]byte
	header, txsLen := b.layout(&scratch)
	return rlp.Size(len(header) + rlp.Size(txsLen))
}

// AppendBlock appends the transport encoding of b to dst. The lengths are
// worked out first, inside out, so the bytes are written once: in place
// when dst has room for BlockSize(b) more, which is how a range response
// or a log append carries many blocks in one buffer.
func AppendBlock(dst []byte, b *Block) []byte {
	var scratch [160]byte
	header, txsLen := b.layout(&scratch)
	dst = rlp.AppendListHeader(dst, len(header)+rlp.Size(txsLen))
	dst = append(dst, header...)
	dst = rlp.AppendListHeader(dst, txsLen)
	for _, tx := range b.Txs {
		dst = rlp.AppendListHeader(dst, tx.fieldsSize())
		dst = tx.appendFields(dst, true)
	}
	return dst
}

// BlockRecord is a block together, when the holder kept them, with the
// EncodeBlock bytes it was decoded from, or with where a store keeps
// them. With Raw or Stored set, Block may hold only the header, and a
// writer copies the bytes rather than encoding Block: a store's reopen
// hands blocks out with Stored, a snap-join collects them with Raw, and
// a node serves a peer's range sync from either without decoding the
// bodies.
type BlockRecord struct {
	Block  *Block
	Raw    []byte
	Stored *StoredRecord // read only when Raw is nil
}

// StoredRecord is where a RecordLog keeps a block record's bytes.
type StoredRecord struct {
	Log RecordLog
	// Off and Len place the bytes in the log; Sum is the checksum the log
	// checked them against when it handed the record out, and checks
	// every read against.
	Off int64
	Len uint32
	Sum uint32
}

// RecordLog reads back the block records a store keeps.
type RecordLog interface {
	// ReadRecord appends the bytes of rec to dst, growing dst only when
	// its spare capacity is short. When it cannot return exactly the
	// bytes it handed rec out for, it fails and appends nothing.
	ReadRecord(dst []byte, rec *StoredRecord) ([]byte, error)
}

// Size returns the length of r's encoding.
func (r BlockRecord) Size() int {
	switch {
	case r.Raw != nil:
		return len(r.Raw)
	case r.Stored != nil:
		return int(r.Stored.Len)
	}
	return BlockSize(r.Block)
}

// Append appends r's encoding to dst, as AppendBlock does for a block. It
// fails only for a stored record whose log cannot read it back.
func (r BlockRecord) Append(dst []byte) ([]byte, error) {
	switch {
	case r.Raw != nil:
		return append(dst, r.Raw...), nil
	case r.Stored != nil:
		return r.Stored.Log.ReadRecord(dst, r.Stored)
	}
	return AppendBlock(dst, r.Block), nil
}

// AppendTo is Append without the error: a stored record whose read fails
// appends nothing.
func (r BlockRecord) AppendTo(dst []byte) []byte {
	out, _ := r.Append(dst)
	return out
}

// layout encodes the header into scratch (an encoded header is at most 158
// bytes) and sums the transaction list's payload length: what the block's
// list headers need before a byte of it is written.
func (b *Block) layout(scratch *[160]byte) (header []byte, txsLen int) {
	for _, tx := range b.Txs {
		txsLen += rlp.Size(tx.fieldsSize())
	}
	return b.Header.appendRLP(scratch[:0]), txsLen
}

// DecodeBlock parses a block from its transport encoding, as strictly as
// DecodeTx.
func DecodeBlock(data []byte) (*Block, error) { return DecodeBlockPooled(data, nil) }

// DecodeBlockPooled is DecodeBlock for a node that may already hold some
// of the block's transactions. Each transaction is hashed on its bytes,
// as RecordTxSummary does, and where pooled returns a transaction for
// that hash, the block takes that pointer instead of a fresh decode:
// equal hash means equal bytes, so the block is the one DecodeBlock
// builds, with the pooled transaction's memo (its sender recovered once
// per node, not once per arrival). It rejects exactly what DecodeBlock
// rejects. pooled may be nil.
func DecodeBlockPooled(data []byte, pooled func(Hash) *Transaction) (*Block, error) {
	r, h := readBlock(data)
	blk := &Block{Header: h, Txs: []*Transaction{}}
	var scratch Transaction
	for r.more() {
		fields := r.next(&scratch)
		if r.err != nil {
			break
		}
		hash := listHash(fields)
		var tx *Transaction
		if pooled != nil {
			tx = pooled(hash)
		}
		if tx == nil {
			tx = scratch.detach(fields, hash)
		}
		blk.Txs = append(blk.Txs, tx)
	}
	if err := r.close(); err != nil {
		return nil, err
	}
	return blk, nil
}

// DecodeHeader returns the header of a block encoding. It rejects exactly
// what DecodeBlock rejects — every transaction field is read as strictly —
// but builds no Transaction and no memo, so a reader that only needs the
// header, the id or the parent link pays for none of the body.
func DecodeHeader(data []byte) (Header, error) {
	r, h := readBlock(data)
	var tx Transaction
	for r.more() {
		r.next(&tx)
	}
	if err := r.close(); err != nil {
		return Header{}, err
	}
	return h, nil
}

// blockReader is the one walk of a block encoding, so DecodeBlock,
// DecodeHeader and RecordVerifier reject the same bytes with one error.
type blockReader struct {
	decoder
	afterBlock, afterTxs []byte
	n                    int // transactions read
}

// readBlock reads up to the first transaction.
func readBlock(data []byte) (r blockReader, h Header) {
	r.buf = data
	r.afterBlock = r.rlpList()
	h = r.header()
	r.afterTxs = r.rlpList()
	return r, h
}

// more reports whether another transaction follows a clean read.
func (r *blockReader) more() bool { return r.err == nil && len(r.buf) > 0 }

// next reads the next transaction into tx (see txFields), numbering a
// failure with the transaction's index.
func (r *blockReader) next(tx *Transaction) (fields []byte) {
	fields = r.txFields(tx)
	if r.err != nil {
		r.err = fmt.Errorf("tx %d: %w", r.n, r.err)
	}
	r.n++
	return fields
}

// close checks the lists and the input end here and returns the error.
func (r *blockReader) close() error {
	r.end(r.afterTxs)   // back in the block list
	r.end(r.afterBlock) // which has exactly the two elements
	r.end(nil)          // and nothing follows it
	if r.err != nil {
		return fmt.Errorf("types: decode block: %w", r.err)
	}
	return nil
}

// detach returns a new transaction with the fields a decoder just read
// into tx from fields, whose list hash is hash, with its memo stored: one
// allocation holds both. Its Data aliases the decoder's input, as tx's
// does: every caller decodes bytes it never writes again (a
// one-transaction frame, a POST /v1/tx body, a block's record). Only
// EncodeTx's own bytes are accepted, so fields is what appendFields would
// write: neither digest is encoded back.
func (tx *Transaction) detach(fields []byte, hash Hash) *Transaction {
	d := &struct {
		tx   Transaction
		memo txMemo
	}{tx.withoutMemo(), memoOf(fields, hash)}
	d.tx.memo.Store(&d.memo)
	return &d.tx
}

// withoutMemo returns a copy of tx's fields with no memo.
func (tx *Transaction) withoutMemo() Transaction {
	return Transaction{
		Kind:     tx.Kind,
		Nonce:    tx.Nonce,
		From:     tx.From,
		To:       tx.To,
		Value:    tx.Value,
		GasLimit: tx.GasLimit,
		GasPrice: tx.GasPrice,
		Data:     tx.Data,
		Sig:      tx.Sig,
	}
}

// txFields reads one transaction list into tx and returns its payload.
// tx.Data aliases the input; tx owns nothing else the input holds.
func (d *decoder) txFields(tx *Transaction) (fields []byte) {
	after := d.rlpList()
	fields = d.buf
	kind := d.rlpUint64()
	tx.Kind = TxKind(kind)
	tx.Nonce = d.rlpUint64()
	d.rlpFixed(tx.From[:])
	d.rlpFixed(tx.To[:])
	tx.Value = Amount(d.rlpUint64())
	tx.GasLimit = d.rlpUint64()
	tx.GasPrice = Amount(d.rlpUint64())
	tx.Data = d.rlpString()
	sig := d.rlpString()
	d.end(after)
	if d.err == nil && uint64(tx.Kind) != kind {
		d.err = errors.New("kind does not fit a byte")
	}
	if d.err == nil {
		tx.Sig, d.err = secp256k1.ParseSignature(sig)
	}
	return fields
}

// header reads one header list, field by field in appendRLP's order.
func (d *decoder) header() (h Header) {
	after := d.rlpList()
	d.rlpFixed(h.ParentID[:])
	h.Number = d.rlpUint64()
	h.Time = d.rlpUint64()
	h.Difficulty = d.rlpUint64()
	h.Nonce = d.rlpUint64()
	d.rlpFixed(h.Miner[:])
	d.rlpFixed(h.TxRoot[:])
	d.rlpFixed(h.StateRoot[:])
	d.end(after)
	return h
}
