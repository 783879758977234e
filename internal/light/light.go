// Package light implements SmartCrowd's lightweight-client protocol
// (paper §V-B): detectors and consumers that "no longer construct,
// synchronize and store a heavyweight blockchain locally". A light client
// tracks only the header chain, holds each header's seal and parent link
// to the full nodes' own pow.Rule itself, and checks Merkle inclusion
// proofs for the individual transactions (SRAs, detection reports) it
// cares about — trusting full nodes for data availability but never for
// validity.
package light

import (
	"errors"
	"fmt"

	"github.com/smartcrowd/smartcrowd/internal/crypto/merkle"
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// Light-client errors. A header AddHeader refuses fails with one of
// pow's rule errors, as it would on a full node.
var (
	ErrUnknownHeader   = errors.New("light: unknown header")
	ErrProofRejected   = errors.New("light: Merkle inclusion proof rejected")
	ErrNotCanonical    = errors.New("light: header not on the best chain")
	ErrFutureThreshold = errors.New("light: insufficient confirmations")
)

// HeaderChain is the light client's view: validated headers with
// cumulative difficulty fork choice, no bodies and no state.
type HeaderChain struct {
	// rule is what a valid header is: the full nodes' chain.Config.Rule.
	rule pow.Rule

	headers map[types.Hash]*entry
	head    *entry
	// canon maps height → canonical header id.
	canon map[uint64]types.Hash
}

type entry struct {
	header   types.Header
	parent   *entry
	totalDif uint64
}

// NewHeaderChain starts a light chain from a trusted genesis header,
// holding every header after it to rule.
func NewHeaderChain(genesis types.Header, rule pow.Rule) *HeaderChain {
	id := genesis.ID()
	g := &entry{header: genesis}
	hc := &HeaderChain{
		rule:    rule,
		headers: map[types.Hash]*entry{id: g},
		head:    g,
		canon:   map[uint64]types.Hash{genesis.Number: id},
	}
	return hc
}

// Head returns the best known header.
func (hc *HeaderChain) Head() types.Header { return hc.head.header }

// HeadNumber returns the best height.
func (hc *HeaderChain) HeadNumber() uint64 { return hc.head.header.Number }

// Has reports whether a header is known.
func (hc *HeaderChain) Has(id types.Hash) bool {
	_, ok := hc.headers[id]
	return ok
}

// AddHeader validates and stores a header, updating the head when the new
// branch carries more cumulative difficulty. The light client runs the
// header checks a full node runs, in its order — the seal, the parent, the
// link — and only state execution is delegated.
func (hc *HeaderChain) AddHeader(h types.Header) error {
	id := h.ID()
	if _, known := hc.headers[id]; known {
		return nil // idempotent
	}
	if err := hc.rule.Seal(&h); err != nil {
		return err
	}
	parent, ok := hc.headers[h.ParentID]
	if !ok {
		return fmt.Errorf("%w: %s", pow.ErrUnknownParent, h.ParentID.Short())
	}
	if err := hc.rule.Link(&parent.header, &h); err != nil {
		return err
	}
	e := &entry{header: h, parent: parent, totalDif: parent.totalDif + h.Difficulty}
	hc.headers[id] = e
	if e.totalDif > hc.head.totalDif {
		hc.reorgTo(e)
	}
	return nil
}

// reorgTo rebuilds the canonical height index up to the new head.
func (hc *HeaderChain) reorgTo(e *entry) {
	// Clear heights above the new head.
	for n := e.header.Number + 1; ; n++ {
		if _, ok := hc.canon[n]; !ok {
			break
		}
		delete(hc.canon, n)
	}
	cursor := e
	for cursor != nil {
		id := cursor.header.ID()
		if hc.canon[cursor.header.Number] == id {
			break
		}
		hc.canon[cursor.header.Number] = id
		cursor = cursor.parent
	}
	hc.head = e
}

// CanonicalID returns the canonical header id at a height.
func (hc *HeaderChain) CanonicalID(number uint64) (types.Hash, error) {
	id, ok := hc.canon[number]
	if !ok {
		return types.Hash{}, fmt.Errorf("%w: height %d", ErrUnknownHeader, number)
	}
	return id, nil
}

// Confirmations returns how deep the given header is under the head
// (1 = head), or 0 when it is not canonical.
func (hc *HeaderChain) Confirmations(id types.Hash) uint64 {
	e, ok := hc.headers[id]
	if !ok {
		return 0
	}
	canonID, ok := hc.canon[e.header.Number]
	if !ok || canonID != id {
		return 0
	}
	return hc.head.header.Number - e.header.Number + 1
}

// TxProof is a full node's answer to a light client's transaction query:
// the transaction bytes plus a Merkle path to a block's TxRoot.
type TxProof struct {
	// BlockID names the block whose TxRoot the proof targets.
	BlockID types.Hash
	// TxBytes is the canonical transaction encoding (the Merkle leaf).
	TxBytes []byte
	// Proof is the inclusion path.
	Proof merkle.Proof
}

// BuildTxProof constructs an inclusion proof for txs[index] — the
// full-node (server) side.
func BuildTxProof(blk *types.Block, index int) (TxProof, error) {
	if index < 0 || index >= len(blk.Txs) {
		return TxProof{}, fmt.Errorf("light: tx index %d out of range (%d txs)", index, len(blk.Txs))
	}
	leaves := txLeaves(blk.Txs)
	proof, err := merkle.Prove(leaves, index)
	if err != nil {
		return TxProof{}, fmt.Errorf("light: build proof: %w", err)
	}
	return TxProof{
		BlockID: blk.ID(),
		TxBytes: leaves[index],
		Proof:   proof,
	}, nil
}

// txLeaves mirrors types.ComputeTxRoot's leaf derivation: each leaf is the
// transaction hash.
func txLeaves(txs []*types.Transaction) [][]byte {
	leaves := make([][]byte, len(txs))
	for i, tx := range txs {
		h := tx.Hash()
		leaves[i] = h[:]
	}
	return leaves
}

// VerifyProof checks a transaction proof against the light client's
// canonical header chain and a minimum confirmation depth. The proven leaf
// is the transaction's hash; pair with VerifyTxWithBody to validate full
// transaction bodies.
func (hc *HeaderChain) VerifyProof(p TxProof, minConfirmations uint64) error {
	e, ok := hc.headers[p.BlockID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownHeader, p.BlockID.Short())
	}
	conf := hc.Confirmations(p.BlockID)
	if conf == 0 {
		return fmt.Errorf("%w: block %s", ErrNotCanonical, p.BlockID.Short())
	}
	if conf < minConfirmations {
		return fmt.Errorf("%w: %d < %d", ErrFutureThreshold, conf, minConfirmations)
	}
	root := merkle.Hash(e.header.TxRoot)
	if !merkle.Verify(root, p.TxBytes, p.Proof) {
		return ErrProofRejected
	}
	return nil
}

// VerifyTxWithBody checks the proof and that the supplied transaction body
// matches the proven leaf hash, returning the validated transaction.
func (hc *HeaderChain) VerifyTxWithBody(p TxProof, body []byte, minConfirmations uint64) (*types.Transaction, error) {
	if err := hc.VerifyProof(p, minConfirmations); err != nil {
		return nil, err
	}
	tx, err := types.DecodeTx(body)
	if err != nil {
		return nil, fmt.Errorf("light: decode proven tx: %w", err)
	}
	h := tx.Hash()
	if len(p.TxBytes) != len(h) || types.Hash(h) != sliceToHash(p.TxBytes) {
		return nil, fmt.Errorf("%w: body hash does not match proven leaf", ErrProofRejected)
	}
	if err := tx.ValidateBasic(); err != nil {
		return nil, fmt.Errorf("light: proven tx invalid: %w", err)
	}
	return tx, nil
}

func sliceToHash(b []byte) types.Hash {
	var h types.Hash
	copy(h[:], b)
	return h
}
