package rpc

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// BlockResponse is the /v1/block/{number} body and one entry of a
// /v1/blocks page. The server appends these bytes (blockbody.go); the
// structs and json.Marshal are the oracle they are checked against, and
// what the tests decode answers into.
type BlockResponse struct {
	Number     uint64   `json:"number"`
	ID         string   `json:"id"`
	ParentID   string   `json:"parentId"`
	Time       uint64   `json:"time"`
	Difficulty uint64   `json:"difficulty"`
	Miner      string   `json:"miner"`
	TxHashes   []string `json:"txHashes"`
	Reports    int      `json:"reports"`
}

// BlockListResponse is a /v1/blocks page.
type BlockListResponse struct {
	From       uint64          `json:"from"`
	To         uint64          `json:"to"`
	Head       uint64          `json:"head"`
	NextCursor string          `json:"nextCursor,omitempty"`
	Blocks     []BlockResponse `json:"blocks"`
}

func blockResponse(blk *types.Block) BlockResponse {
	resp := BlockResponse{
		Number:     blk.Header.Number,
		ID:         blk.ID().String(),
		ParentID:   blk.Header.ParentID.String(),
		Time:       blk.Header.Time,
		Difficulty: blk.Header.Difficulty,
		Miner:      blk.Header.Miner.String(),
		Reports:    blk.CountReports(),
		TxHashes:   make([]string, 0, len(blk.Txs)),
	}
	for _, tx := range blk.Txs {
		resp.TxHashes = append(resp.TxHashes, tx.Hash().String())
	}
	return resp
}

func blockListResponse(from, to, head uint64, next *cursor, blocks []*types.Block) BlockListResponse {
	resp := BlockListResponse{From: from, To: to, Head: head}
	for _, blk := range blocks {
		resp.Blocks = append(resp.Blocks, blockResponse(blk))
	}
	if len(resp.Blocks) > 0 {
		resp.To = resp.Blocks[len(resp.Blocks)-1].Number
	}
	if next != nil {
		resp.NextCursor = encodeCursor(*next)
	}
	return resp
}

// checkBlockBodies fails unless blockBody (for each block) and
// blockPageBody write json.Marshal's bytes of the oracle structs plus
// the newline, into a buffer sized exactly. Each block is rendered twice:
// decoded, as a block within the window is summarised, and from its
// record with only the header beside it, as a block below the window is.
func checkBlockBodies(t testing.TB, from, to, head uint64, next *cursor, blocks []*types.Block) {
	t.Helper()
	var decoded, recorded []chain.BlockSummary
	for _, blk := range blocks {
		txs, err := types.RecordTxSummary(types.EncodeBlock(blk))
		if err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, chain.BlockSummary{Block: blk, Txs: blk.TxSummary()})
		recorded = append(recorded, chain.BlockSummary{Block: &types.Block{Header: blk.Header}, Txs: txs})
	}
	check := func(what string, got []byte, oracle interface{}) {
		t.Helper()
		want, err := json.Marshal(oracle)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if !bytes.Equal(got, want) {
			t.Fatalf("%s diverges from json.Marshal\n got: %s\nwant: %s", what, got, want)
		}
		if len(got) != cap(got) {
			t.Fatalf("%s: len %d, cap %d: the size pass is off", what, len(got), cap(got))
		}
	}
	want := blockListResponse(from, to, head, next, blocks)
	for _, sums := range [][]chain.BlockSummary{decoded, recorded} {
		for i, s := range sums {
			check("block body", blockBody(s), blockResponse(blocks[i]))
		}
		check("page body", blockPageBody(from, to, head, next, sums), want)
	}
}

// syntheticBlock is a block whose header fields are given and whose n
// transactions cycle through every kind, reports among them.
func syntheticBlock(number, time, difficulty uint64, parent types.Hash, miner types.Address, n int) *types.Block {
	kinds := []types.TxKind{types.TxTransfer, types.TxSRA, types.TxInitialReport, types.TxDetailedReport, 3}
	blk := &types.Block{Header: types.Header{
		ParentID:   parent,
		Number:     number,
		Time:       time,
		Difficulty: difficulty,
		Miner:      miner,
	}}
	for i := 0; i < n; i++ {
		blk.Txs = append(blk.Txs, &types.Transaction{
			Kind:  kinds[i%len(kinds)],
			Nonce: uint64(i),
			From:  miner,
			Data:  []byte{byte(i)},
		})
	}
	return blk
}

// TestBlockBodiesMatchMarshal is the appender's differential against
// json.Marshal over the summary structs.
func TestBlockBodiesMatchMarshal(t *testing.T) {
	e := newEnv(t) // head is block 3
	view := e.provider.CurrentView()
	canon := view.AppendBlocksRange(nil, 0, view.HeadNumber())
	genesis := canon[0]
	if len(genesis.Txs) != 0 {
		t.Fatalf("genesis carries %d transactions", len(genesis.Txs))
	}
	many := syntheticBlock(7, 15_000, 1000, genesis.ID(), types.Address{0xAB}, 57)
	if many.CountReports() == 0 {
		t.Fatal("the many-transaction block carries no reports")
	}
	huge := syntheticBlock(math.MaxUint64, math.MaxUint64, math.MaxUint64, types.Hash{0xFF}, types.Address{0xFF}, 1)
	tailCursor := &cursor{kind: cursorKindBlocks, headID: view.HeadID(), pos: 4, lastID: canon[3].ID()}

	for _, tc := range []struct {
		name           string
		from, to, head uint64
		next           *cursor
		blocks         []*types.Block
	}{
		{name: "genesis", head: 3, blocks: canon[:1]},
		{name: "many transactions", from: 7, to: 7, head: 7, blocks: []*types.Block{many}},
		{name: "max uint64", from: math.MaxUint64, to: math.MaxUint64, head: math.MaxUint64, blocks: []*types.Block{huge}},
		{name: "empty bounded page", from: 50, to: 60, head: 3},
		{name: "empty tail page", from: 4, to: 103, head: 3, next: tailCursor},
		{name: "bounded page", from: 0, to: 3, head: 3, blocks: canon},
		{name: "tail page", from: 1, to: 100, head: 3, next: tailCursor, blocks: canon[1:]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkBlockBodies(t, tc.from, tc.to, tc.head, tc.next, tc.blocks)
		})
	}

	// Served: an open-ended page's bytes are the oracle's for its range
	// and the cursor it carries.
	resp, body := e.getRaw("/v1/blocks?from=1")
	var page BlockListResponse
	if err := json.Unmarshal(body, &page); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, %v", resp.StatusCode, err)
	}
	want := blockListResponse(1, 100, 3, nil, canon[1:])
	want.NextCursor = page.NextCursor
	if wantBody, _ := json.Marshal(want); !bytes.Equal(body, append(wantBody, '\n')) {
		t.Fatalf("served tail page %s, want %s", body, wantBody)
	}
}

// FuzzBlockBodyDifferential runs the appender's differential over fuzzed
// header fields, transaction counts and page envelopes.
func FuzzBlockBodyDifferential(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), []byte{}, []byte{}, uint8(0), uint64(0), uint64(0), false)
	f.Add(uint64(9), uint64(15_000), uint64(1000), []byte{1, 2}, []byte{3}, uint8(40), uint64(9), uint64(12), true)
	f.Add(uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(math.MaxUint64), []byte{0xFF}, []byte{0xFF}, uint8(255), uint64(math.MaxUint64), uint64(math.MaxUint64), true)
	f.Fuzz(func(t *testing.T, number, time, difficulty uint64, parent, miner []byte, ntx uint8, from, head uint64, tail bool) {
		var parentID types.Hash
		var minerAddr types.Address
		copy(parentID[:], parent)
		copy(minerAddr[:], miner)
		blk := syntheticBlock(number, time, difficulty, parentID, minerAddr, int(ntx))
		var next *cursor
		if tail {
			next = &cursor{kind: cursorKindBlocks, headID: parentID, pos: number + 1, lastID: blk.ID()}
		}
		checkBlockBodies(t, from, from, head, next, []*types.Block{blk, blk})
		checkBlockBodies(t, from, from, head, next, nil)
	})
}
