package rpc

// Block summaries are appended, not marshalled. A /v1/blocks page sits in
// the head tier (its body carries the head number), so every new block
// drops it and the next request rebuilds it: that rebuild runs many times
// a second on a node that serves consumers. It therefore sizes the body
// exactly, then writes every field into that one buffer — hashes hex
// encoded in place — so a page costs one allocation, its trailing newline
// included. The bytes are exactly json.Marshal's of the summary structs
// the tests keep as the oracle (blockbody_test.go), plus the newline
// encodeBody appends.

import (
	"encoding/hex"
	"strconv"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// Quoted lengths of a "0x…" hash and address.
const (
	quotedHashLen    = len(`"0x"`) + 2*types.HashSize
	quotedAddressLen = len(`"0x"`) + 2*wallet.AddressSize
)

// cursorTokenLen is the length of every encodeCursor token.
const cursorTokenLen = ((cursorRawLen+cursorSumLen)*8 + 5) / 6

// decWidth returns len(strconv.FormatUint(n, 10)).
func decWidth(n uint64) int {
	w := 1
	for ; n >= 10; n /= 10 {
		w++
	}
	return w
}

// appendQuotedHex appends b as a quoted "0x"-prefixed hex string.
func appendQuotedHex(dst, b []byte) []byte {
	dst = append(dst, `"0x`...)
	dst = hex.AppendEncode(dst, b)
	return append(dst, '"')
}

// blockSummarySize returns the length appendBlockSummary writes for s.
func blockSummarySize(s chain.BlockSummary) int {
	h, ids := &s.Block.Header, s.Txs.IDs
	n := len(`{"number":,"id":,"parentId":,"time":,"difficulty":,"miner":,"txHashes":[],"reports":}`) +
		decWidth(h.Number) + decWidth(h.Time) + decWidth(h.Difficulty) + decWidth(uint64(s.Txs.Reports)) +
		2*quotedHashLen + quotedAddressLen + len(ids)*quotedHashLen
	if len(ids) > 1 {
		n += len(ids) - 1 // commas
	}
	return n
}

// appendBlockSummary appends the /v1 summary object of s.
func appendBlockSummary(dst []byte, s chain.BlockSummary) []byte {
	h := &s.Block.Header
	id := s.Block.ID()
	dst = append(dst, `{"number":`...)
	dst = strconv.AppendUint(dst, h.Number, 10)
	dst = append(dst, `,"id":`...)
	dst = appendQuotedHex(dst, id[:])
	dst = append(dst, `,"parentId":`...)
	dst = appendQuotedHex(dst, h.ParentID[:])
	dst = append(dst, `,"time":`...)
	dst = strconv.AppendUint(dst, h.Time, 10)
	dst = append(dst, `,"difficulty":`...)
	dst = strconv.AppendUint(dst, h.Difficulty, 10)
	dst = append(dst, `,"miner":`...)
	dst = appendQuotedHex(dst, h.Miner[:])
	dst = append(dst, `,"txHashes":[`...)
	for i := range s.Txs.IDs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendQuotedHex(dst, s.Txs.IDs[i][:])
	}
	dst = append(dst, `],"reports":`...)
	dst = strconv.AppendUint(dst, uint64(s.Txs.Reports), 10)
	return append(dst, '}')
}

// blockBody is the /v1/block/{number} body of s.
func blockBody(s chain.BlockSummary) []byte {
	body := make([]byte, 0, blockSummarySize(s)+1)
	return append(appendBlockSummary(body, s), '\n')
}

// blockPageBody is the /v1/blocks body for the range from..to. blocks
// are the summaries of the canonical blocks the range resolved to; when
// there are any, "to" reads the last one's number. next, when set, is the
// nextCursor the page carries; an empty page's blocks read null.
func blockPageBody(from, to, head uint64, next *cursor, blocks []chain.BlockSummary) []byte {
	if len(blocks) > 0 {
		to = blocks[len(blocks)-1].Block.Header.Number
	}
	size := len(`{"from":,"to":,"head":,"blocks":}`+"\n") + decWidth(from) + decWidth(to) + decWidth(head)
	if next != nil {
		size += len(`,"nextCursor":""`) + cursorTokenLen
	}
	if len(blocks) == 0 {
		size += len("null")
	} else {
		size += len("[]") + len(blocks) - 1
		for _, blk := range blocks {
			size += blockSummarySize(blk)
		}
	}
	body := make([]byte, 0, size)
	body = append(body, `{"from":`...)
	body = strconv.AppendUint(body, from, 10)
	body = append(body, `,"to":`...)
	body = strconv.AppendUint(body, to, 10)
	body = append(body, `,"head":`...)
	body = strconv.AppendUint(body, head, 10)
	if next != nil {
		body = append(body, `,"nextCursor":"`...)
		body = appendCursor(body, *next)
		body = append(body, '"')
	}
	body = append(body, `,"blocks":`...)
	if len(blocks) == 0 {
		body = append(body, "null"...)
	} else {
		for i, blk := range blocks {
			if i == 0 {
				body = append(body, '[')
			} else {
				body = append(body, ',')
			}
			body = appendBlockSummary(body, blk)
		}
		body = append(body, ']')
	}
	return append(body, "}\n"...)
}
