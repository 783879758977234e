package types

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
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
type Block struct {
	Header Header
	Txs    []*Transaction

	// idCache memoizes the header hash, guarded by a copy of the header
	// it was computed from: fork choice, indexing and PoW verification
	// all re-request the ID of sealed (immutable) blocks, while a miner
	// grinding Nonce on a header it owns still gets fresh hashes.
	idCache atomic.Pointer[blockIDEntry]
}

// blockIDEntry pins a memoized block ID to the exact header contents.
type blockIDEntry struct {
	hdr Header
	id  Hash
}

// Block validation errors.
var (
	ErrBlockBadTxRoot = errors.New("types: block transaction root mismatch")
	ErrBlockBadPoW    = errors.New("types: block does not meet proof-of-work")
	ErrBlockNoTime    = errors.New("types: block timestamp is zero")
)

// ID returns the block's identifier (its header hash), memoized against
// the current header value.
func (b *Block) ID() Hash {
	if e := b.idCache.Load(); e != nil && e.hdr == b.Header {
		return e.id
	}
	id := b.Header.ID()
	b.idCache.Store(&blockIDEntry{hdr: b.Header, id: id})
	return id
}

// ComputeTxRoot builds the Merkle root over the block's transactions.
func ComputeTxRoot(txs []*Transaction) Hash {
	if len(txs) == 0 {
		return Hash(merkle.EmptyRoot)
	}
	leaves := make([][]byte, len(txs))
	for i, tx := range txs {
		h := tx.Hash()
		leaves[i] = h[:]
	}
	return Hash(merkle.Root(leaves))
}

// VerifyShape checks the block's self-consistency: Merkle root, PoW and
// structural transaction validity. Chain-contextual checks (parent link,
// state transition) live in the chain package.
func (b *Block) VerifyShape() error {
	if b.Header.Number > 0 && b.Header.Time == 0 {
		return ErrBlockNoTime
	}
	if ComputeTxRoot(b.Txs) != b.Header.TxRoot {
		return ErrBlockBadTxRoot
	}
	if b.Header.Number > 0 && !b.Header.MeetsPoW() {
		return ErrBlockBadPoW
	}
	for i, tx := range b.Txs {
		if err := tx.ValidateBasic(); err != nil {
			return fmt.Errorf("types: block tx %d: %w", i, err)
		}
	}
	return nil
}

// CountReports returns ω, the number of detection-result transactions
// (initial and detailed reports) the block records — the quantity that
// earns the mining provider per-report fees in Eq. 8.
func (b *Block) CountReports() int {
	n := 0
	for _, tx := range b.Txs {
		if tx.Kind == TxInitialReport || tx.Kind == TxDetailedReport {
			n++
		}
	}
	return n
}

// EncodeTx serializes a transaction for network transport.
func EncodeTx(tx *Transaction) []byte {
	var scratch [256]byte // a small payload's fields stay on the stack
	return rlp.AppendList(nil, tx.appendFields(scratch[:0], true))
}

// DecodeTx parses a transaction from its transport encoding. Only the
// bytes EncodeTx produces are accepted, so a transaction has exactly one
// encoding.
func DecodeTx(data []byte) (*Transaction, error) {
	d := decoder{buf: data}
	tx := d.tx()
	d.end(nil)
	if d.err != nil {
		return nil, fmt.Errorf("types: decode tx: %w", d.err)
	}
	return tx, nil
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
// EncodeBlock bytes it was decoded from. With Raw set, Block may hold
// only the header, and a writer copies Raw rather than encoding Block:
// a store's reopen hands blocks out this way, and a node serves a
// peer's range sync from them without decoding the bodies.
type BlockRecord struct {
	Block *Block
	Raw   []byte
}

// Size returns the length of r's encoding.
func (r BlockRecord) Size() int {
	if r.Raw != nil {
		return len(r.Raw)
	}
	return BlockSize(r.Block)
}

// AppendTo appends r's encoding to dst, as AppendBlock does for a block.
func (r BlockRecord) AppendTo(dst []byte) []byte {
	if r.Raw != nil {
		return append(dst, r.Raw...)
	}
	return AppendBlock(dst, r.Block)
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
func DecodeBlock(data []byte) (*Block, error) {
	blk := &Block{Txs: []*Transaction{}}
	var err error
	if blk.Header, err = decodeBlock(data, &blk.Txs); err != nil {
		return nil, err
	}
	return blk, nil
}

// DecodeHeader returns the header of a block encoding. It rejects exactly
// what DecodeBlock rejects — every transaction field is read as strictly —
// but builds no Transaction and no memo, so a reader that only needs the
// header, the id or the parent link pays for none of the body.
func DecodeHeader(data []byte) (Header, error) {
	return decodeBlock(data, nil)
}

// decodeBlock walks a block encoding, appending each transaction to *txs,
// or, given nil, only checking it.
func decodeBlock(data []byte, txs *[]*Transaction) (Header, error) {
	d := decoder{buf: data}
	afterBlock := d.rlpList()
	h := d.header()
	afterTxs := d.rlpList()
	for n := 0; d.err == nil && len(d.buf) > 0; n++ {
		if txs != nil {
			*txs = append(*txs, d.tx())
		} else {
			var tx Transaction
			d.txFields(&tx)
		}
		if d.err != nil {
			d.err = fmt.Errorf("tx %d: %w", n, d.err)
		}
	}
	d.end(afterTxs)   // back in the block list
	d.end(afterBlock) // which has exactly the two elements
	d.end(nil)        // and nothing follows it
	if d.err != nil {
		return Header{}, fmt.Errorf("types: decode block: %w", d.err)
	}
	return h, nil
}

// tx reads one transaction list, field by field in appendFields' order.
// Only EncodeTx's own bytes are accepted, so the list payload just read is
// what appendFields would write: the memo is built from it, and neither
// Hash() nor SigHash() encodes the object back to learn its digest.
func (d *decoder) tx() *Transaction {
	tx := new(Transaction)
	fields := d.txFields(tx)
	if d.err == nil {
		tx.Data = append([]byte(nil), tx.Data...)
		tx.memo.Store(tx.newMemo(fields))
	}
	return tx
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
