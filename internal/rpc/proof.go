package rpc

// The light-client proof route: the server half (GET /v1/proof/{txhash})
// and the client half (ParseProofResponse) of one wire format, kept
// together so neither drifts.

import (
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/crypto/merkle"
	"github.com/smartcrowd/smartcrowd/internal/light"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// ProofResponse carries a light-client inclusion proof.
type ProofResponse struct {
	BlockID   string   `json:"blockId"`
	BlockNum  uint64   `json:"blockNumber"`
	LeafHex   string   `json:"leafHex"`
	TxHex     string   `json:"txHex"`
	LeafIndex int      `json:"leafIndex"`
	LeafCount int      `json:"leafCount"`
	Siblings  []string `json:"siblings"` // "L:<hex>" or "R:<hex>"
}

func readProof(s *Server, r *http.Request, v *chain.ReadView) (cacheRef, buildFunc, error) {
	h, err := parseHash(r.PathValue("txhash"))
	if err != nil {
		return cacheRef{}, nil, err
	}
	// One index lookup replaces the historical full-chain scan. A view is
	// internally consistent, so a located tx always resolves to its block.
	blockID, number, txIdx, ok := v.TxLocation(h)
	blk, err := v.BlockByNumber(number)
	if !ok || err != nil || blk.ID() != blockID {
		return cacheRef{key: "proof!:" + h.String()},
			notFound(errors.New("rpc: transaction not on canonical chain")), nil
	}
	// The proof commits to the block alone, so the response is
	// content-addressed.
	return s.contentRef(v, "proof:"+blockID.String()+":"+h.String(), number), func() (int, interface{}) {
		proof, err := light.BuildTxProof(blk, txIdx)
		if err != nil {
			return http.StatusInternalServerError, errEnvelope(CodeInternal, err)
		}
		resp := ProofResponse{
			BlockID:   proof.BlockID.String(),
			BlockNum:  blk.Header.Number,
			LeafHex:   hex.EncodeToString(proof.TxBytes),
			TxHex:     hex.EncodeToString(types.EncodeTx(blk.Txs[txIdx])),
			LeafIndex: proof.Proof.LeafIndex,
			LeafCount: proof.Proof.LeafCount,
		}
		for _, step := range proof.Proof.Steps {
			side := "L"
			if step.Right {
				side = "R"
			}
			resp.Siblings = append(resp.Siblings, side+":"+hex.EncodeToString(step.Sibling[:]))
		}
		return http.StatusOK, resp
	}, nil
}

// ParseProofResponse reconstructs a light.TxProof (and the raw tx body)
// from a ProofResponse — the client side of GET /v1/proof.
func ParseProofResponse(resp ProofResponse) (light.TxProof, []byte, error) {
	blockID, err := parseHash(resp.BlockID)
	if err != nil {
		return light.TxProof{}, nil, err
	}
	leaf, err := hex.DecodeString(resp.LeafHex)
	if err != nil {
		return light.TxProof{}, nil, fmt.Errorf("rpc: bad leaf hex: %w", err)
	}
	body, err := hex.DecodeString(resp.TxHex)
	if err != nil {
		return light.TxProof{}, nil, fmt.Errorf("rpc: bad tx hex: %w", err)
	}
	proof := light.TxProof{
		BlockID: blockID,
		TxBytes: leaf,
	}
	proof.Proof.LeafIndex = resp.LeafIndex
	proof.Proof.LeafCount = resp.LeafCount
	for _, s := range resp.Siblings {
		if len(s) < 2 || (s[0] != 'L' && s[0] != 'R') || s[1] != ':' {
			return light.TxProof{}, nil, fmt.Errorf("rpc: bad sibling entry %q", s)
		}
		raw, err := hex.DecodeString(s[2:])
		if err != nil || len(raw) != types.HashSize {
			return light.TxProof{}, nil, fmt.Errorf("rpc: bad sibling hash %q", s)
		}
		var sib merkle.Hash
		copy(sib[:], raw)
		proof.Proof.Steps = append(proof.Proof.Steps, merkle.ProofStep{
			Sibling: sib,
			Right:   s[0] == 'R',
		})
	}
	return proof, body, nil
}
