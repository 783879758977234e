package types

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/smartcrowd/smartcrowd/internal/crypto/secp256k1"
	"github.com/smartcrowd/smartcrowd/internal/rlp"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// TxKind discriminates the transaction payloads a SmartCrowd block can
// record. The paper extends standard blocks: "Besides transactions, the
// blocks of SmartCrowd also record SRAs and detection reports" (§IV-B).
type TxKind uint8

// Transaction kinds. Kind 2 (contract creation) is retired: no account
// holds code, and ValidateBasic refuses it. The other kinds keep their
// numbers, which are part of every transaction's encoding.
const (
	// TxTransfer moves value between accounts.
	TxTransfer TxKind = 1
	// TxContractCall calls the SmartCrowd contract's native methods when
	// To is contract.Address (Data holds the call input); to any other
	// address it moves Value for the intrinsic gas.
	TxContractCall TxKind = 3
	// TxSRA records a system release announcement Δ.
	TxSRA TxKind = 4
	// TxInitialReport records an initial detection report R†.
	TxInitialReport TxKind = 5
	// TxDetailedReport records a detailed detection report R*.
	TxDetailedReport TxKind = 6
)

// String returns the kind name.
func (k TxKind) String() string {
	switch k {
	case TxTransfer:
		return "transfer"
	case TxContractCall:
		return "contract-call"
	case TxSRA:
		return "sra"
	case TxInitialReport:
		return "initial-report"
	case TxDetailedReport:
		return "detailed-report"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Valid reports whether k is a defined transaction kind.
func (k TxKind) Valid() bool {
	return k == TxTransfer || (k >= TxContractCall && k <= TxDetailedReport)
}

// Transaction is a signed SmartCrowd transaction. The sender is recovered
// from the signature (Ethereum-style); From is carried explicitly for
// readability and must match the recovered signer.
//
// A transaction is open until SignTx returns it, and nothing writes it
// after that: its digests and sender are memoized on first use and never
// checked against the fields again. To derive a different transaction
// from a signed one, build a new value (Edited does it for tests).
type Transaction struct {
	// Kind selects the payload interpretation of Data.
	Kind TxKind
	// Nonce is the sender's transaction sequence number.
	Nonce uint64
	// From is the sender; must equal the signature's recovered address.
	From Address
	// To is the recipient: the recipient of a transfer or call, the zero
	// address for protocol payloads.
	To Address
	// Value is the attached currency (e.g. the SRA insurance deposit).
	Value Amount
	// GasLimit caps execution gas.
	GasLimit uint64
	// GasPrice is the fee per unit of gas, paid to the mining provider.
	GasPrice Amount
	// Data is the payload (call input or an encoded Δ/R†/R*).
	Data []byte
	// Sig authenticates the transaction.
	Sig secp256k1.Signature

	// memo holds the signing digest, Hash and the recovered sender.
	memo atomic.Pointer[txMemo]
}

// txMemo is one transaction's digests and, once Sender has asked, its
// recovery result. sigHash is the digest the sender signs: the Keccak-256
// of the RLP list of every field but the signature.
type txMemo struct {
	sigHash   Hash
	hash      Hash
	sender    Address
	once      sync.Once // guards sender and senderErr
	senderErr error
}

// sigSize is the encoded length of the signature string, the last field.
var sigSize = rlp.Size(65)

// memoOf returns the memo of the transaction whose list payload with the
// signature is fields (appendFields(…, true), or the bytes a decoder just
// read) and whose list digest is hash, listHash(fields).
func memoOf(fields []byte, hash Hash) txMemo {
	return txMemo{sigHash: listHash(fields[:len(fields)-sigSize]), hash: hash}
}

// listHash is the Keccak-256 of the RLP list whose payload is fields,
// hashed from the stack.
func listHash(fields []byte) Hash {
	var header [9]byte
	return HashConcat(rlp.AppendListHeader(header[:0], len(fields)), fields)
}

// loadMemo returns the transaction's memo, building and storing it on
// first use. Built with the memoguard tag, it hashes the fields again on
// every call and panics when they no longer match the memo: something
// wrote the transaction after it was hashed.
func (tx *Transaction) loadMemo() *txMemo {
	if m := tx.memo.Load(); m != nil {
		if memoGuard {
			var scratch [1024]byte
			if listHash(tx.appendFields(scratch[:0], true)) != m.hash {
				panic("types: transaction " + m.hash.Short() + " written after it was hashed")
			}
		}
		return m
	}
	m := tx.newMemo()
	if !tx.memo.CompareAndSwap(nil, m) {
		return tx.memo.Load() // a racing first caller stored its memo first
	}
	return m
}

// newMemo encodes the transaction and returns its memo.
func (tx *Transaction) newMemo() *txMemo {
	var scratch [256]byte // a small payload's fields stay on the stack
	fields := tx.appendFields(scratch[:0], true)
	m := memoOf(fields, listHash(fields))
	return &m
}

// sigBytes returns the signature's serialized form (R || S || V), zeroes
// when the transaction is unsigned.
func (tx *Transaction) sigBytes() (out [65]byte) {
	appendSig(out[:0], &tx.Sig)
	return out
}

// appendFields appends the RLP encoding of the transaction's fields, with
// or without the signature, and without the enclosing list header. This is
// the one place the field order is written down: the signing digest, the
// identifier, and the transport encodings of transactions and blocks all
// wrap these bytes in a list.
func (tx *Transaction) appendFields(dst []byte, withSig bool) []byte {
	dst = rlp.AppendUint64(dst, uint64(tx.Kind))
	dst = rlp.AppendUint64(dst, tx.Nonce)
	dst = rlp.AppendBytes(dst, tx.From[:])
	dst = rlp.AppendBytes(dst, tx.To[:])
	dst = rlp.AppendUint64(dst, uint64(tx.Value))
	dst = rlp.AppendUint64(dst, tx.GasLimit)
	dst = rlp.AppendUint64(dst, uint64(tx.GasPrice))
	dst = rlp.AppendBytes(dst, tx.Data)
	if withSig {
		sig := tx.sigBytes()
		dst = rlp.AppendBytes(dst, sig[:])
	}
	return dst
}

// fieldsSize returns len(appendFields(nil, true)) without encoding
// anything; it mirrors appendFields line for line.
func (tx *Transaction) fieldsSize() int {
	return rlp.Uint64Size(uint64(tx.Kind)) +
		rlp.Uint64Size(tx.Nonce) +
		rlp.Size(len(tx.From)) +
		rlp.Size(len(tx.To)) +
		rlp.Uint64Size(uint64(tx.Value)) +
		rlp.Uint64Size(tx.GasLimit) +
		rlp.Uint64Size(uint64(tx.GasPrice)) +
		rlp.BytesSize(tx.Data) +
		sigSize
}

// Transaction errors.
var (
	ErrTxBadSignature = errors.New("types: transaction signature invalid")
	ErrTxWrongSender  = errors.New("types: transaction From does not match signer")
	ErrTxBadKind      = errors.New("types: transaction kind invalid")
	ErrTxNoGas        = errors.New("types: transaction gas limit is zero")
	ErrTxWrongPayload = errors.New("types: transaction payload does not decode for its kind")
)

// Hash returns the transaction identifier: the Keccak-256 of the full RLP
// encoding including the signature. The result is memoized.
func (tx *Transaction) Hash() Hash { return tx.loadMemo().hash }

// SignTx signs the transaction with w, sets From and Sig, and stores the
// memo of what it signed. It is the last write a transaction takes.
func SignTx(tx *Transaction, w *wallet.Wallet) error {
	tx.From = w.Address()
	var scratch [256]byte // a small payload's fields stay on the stack
	sig, err := w.SignDigest(listHash(tx.appendFields(scratch[:0], false)))
	if err != nil {
		return fmt.Errorf("types: sign transaction: %w", err)
	}
	tx.Sig = sig
	tx.memo.Store(tx.newMemo())
	return nil
}

// Sender recovers and validates the transaction's signer. The recovery
// runs at most once per memo, so concurrent callers share one result.
func (tx *Transaction) Sender() (Address, error) {
	m := tx.loadMemo()
	recovered := false
	m.once.Do(func() {
		recovered = true
		mSenderCacheMiss.Inc()
		addr, err := wallet.RecoverSigner(m.sigHash, tx.Sig)
		switch {
		case err != nil:
			m.senderErr = fmt.Errorf("%w: %v", ErrTxBadSignature, err)
		case addr != tx.From:
			m.senderErr = ErrTxWrongSender
		default:
			m.sender = addr
		}
	})
	if !recovered {
		mSenderCacheHit.Inc()
	}
	return m.sender, m.senderErr
}

// ValidateBasic performs stateless validation: kind, gas, signature, and —
// for protocol payloads — that the payload decodes and passes its own
// verification (Algorithm 1 structural checks).
func (tx *Transaction) ValidateBasic() error {
	if !tx.Kind.Valid() {
		return ErrTxBadKind
	}
	if tx.GasLimit == 0 {
		return ErrTxNoGas
	}
	if _, err := tx.Sender(); err != nil {
		return err
	}
	switch tx.Kind {
	case TxSRA:
		s, err := tx.SRA()
		if err != nil {
			return err
		}
		if err := s.Verify(); err != nil {
			return err
		}
		if s.Provider != tx.From {
			return fmt.Errorf("%w: SRA provider %s, sender %s", ErrTxWrongSender, s.Provider, tx.From)
		}
		if tx.Value != s.Insurance {
			return fmt.Errorf("types: SRA insurance %s not attached (tx value %s)", s.Insurance, tx.Value)
		}
	case TxInitialReport:
		r, err := tx.InitialReport()
		if err != nil {
			return err
		}
		if err := r.Verify(); err != nil {
			return err
		}
		if r.Detector != tx.From {
			return fmt.Errorf("%w: report detector %s, sender %s", ErrTxWrongSender, r.Detector, tx.From)
		}
	case TxDetailedReport:
		r, err := tx.DetailedReport()
		if err != nil {
			return err
		}
		if err := r.Verify(); err != nil {
			return err
		}
		if r.Detector != tx.From {
			return fmt.Errorf("%w: report detector %s, sender %s", ErrTxWrongSender, r.Detector, tx.From)
		}
	}
	return nil
}

// NewSRATx wraps a signed SRA in a transaction carrying its insurance.
func NewSRATx(s *SRA, nonce uint64, gasLimit uint64, gasPrice Amount) *Transaction {
	return &Transaction{
		Kind:     TxSRA,
		Nonce:    nonce,
		From:     s.Provider,
		Value:    s.Insurance,
		GasLimit: gasLimit,
		GasPrice: gasPrice,
		Data:     s.encodePayload(),
	}
}

// NewInitialReportTx wraps a signed R† in a transaction.
func NewInitialReportTx(r *InitialReport, nonce uint64, gasLimit uint64, gasPrice Amount) *Transaction {
	return &Transaction{
		Kind:     TxInitialReport,
		Nonce:    nonce,
		From:     r.Detector,
		GasLimit: gasLimit,
		GasPrice: gasPrice,
		Data:     r.encodePayload(),
	}
}

// NewDetailedReportTx wraps a signed R* in a transaction.
func NewDetailedReportTx(r *DetailedReport, nonce uint64, gasLimit uint64, gasPrice Amount) *Transaction {
	return &Transaction{
		Kind:     TxDetailedReport,
		Nonce:    nonce,
		From:     r.Detector,
		GasLimit: gasLimit,
		GasPrice: gasPrice,
		Data:     r.encodePayload(),
	}
}

// SRA decodes the SRA payload; the transaction must be TxSRA.
func (tx *Transaction) SRA() (*SRA, error) {
	if tx.Kind != TxSRA {
		return nil, fmt.Errorf("%w: kind %s", ErrTxWrongPayload, tx.Kind)
	}
	return decodeSRA(tx.Data)
}

// InitialReport decodes the R† payload.
func (tx *Transaction) InitialReport() (*InitialReport, error) {
	if tx.Kind != TxInitialReport {
		return nil, fmt.Errorf("%w: kind %s", ErrTxWrongPayload, tx.Kind)
	}
	return decodeInitialReport(tx.Data)
}

// DetailedReport decodes the R* payload.
func (tx *Transaction) DetailedReport() (*DetailedReport, error) {
	if tx.Kind != TxDetailedReport {
		return nil, fmt.Errorf("%w: kind %s", ErrTxWrongPayload, tx.Kind)
	}
	return decodeDetailedReport(tx.Data)
}

// Fee returns the maximum fee the transaction can pay (gas limit × price).
func (tx *Transaction) Fee() Amount { return Amount(tx.GasLimit) * tx.GasPrice }

// Cost returns value plus maximum fee — the balance the sender must hold.
func (tx *Transaction) Cost() Amount { return tx.Value + tx.Fee() }
