//go:build !race

// Allocation pins: the race detector's instrumentation allocates on its
// own, so these run without it only.

package rpc

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// mineTransfer seals a block on e's provider carrying one transfer from
// alice, so the block has a body to release below the window.
func (e *env) mineTransfer() {
	e.t.Helper()
	tx := &types.Transaction{
		Kind:     types.TxTransfer,
		Nonce:    e.provider.CurrentView().State().Nonce(e.alice.Address()),
		To:       types.Address{0xb0},
		Value:    types.GWei,
		GasLimit: 21_000,
		GasPrice: 50 * types.GWei,
	}
	if err := types.SignTx(tx, e.alice); err != nil {
		e.t.Fatal(err)
	}
	if err := e.provider.SubmitTx(tx); err != nil {
		e.t.Fatal(err)
	}
	e.mine()
}

// TestWarmBlockPageAllocatesOnce pins the point of the appender: once
// its blocks' ids and transaction summaries are memoised, building a
// 20-block page — bounded or open-ended with its cursor — allocates the
// body and nothing else, and the body is sized exactly. It holds for a
// page within the window, whose blocks are decoded, and for the same
// page once it lies below the window, where the blocks are held as their
// bytes.
func TestWarmBlockPageAllocatesOnce(t *testing.T) {
	e := newEnv(t)
	for e.provider.Chain().HeadNumber() < 20 {
		e.mineTransfer()
	}
	checkPages := func(where string) {
		t.Helper()
		view := e.provider.CurrentView()
		for _, tail := range []bool{false, true} {
			_, build, err := blockPage(view, 1, 20, tail)
			if err != nil {
				t.Fatal(err)
			}
			status, body := build() // warm the memos
			if status != http.StatusOK || len(body) != cap(body) {
				t.Fatalf("%s, tail=%t: status %d, len %d, cap %d", where, tail, status, len(body), cap(body))
			}
			if n := testing.AllocsPerRun(50, func() { _, body = build() }); n != 1 {
				t.Errorf("%s, tail=%t: a warm 20-block page allocates %.1f times, want 1", where, tail, n)
			}
		}
	}
	checkPages("within the window")

	// Extend until #20 is held without its transactions: the whole page
	// then lies below the window.
	for i := 0; ; i++ {
		blk, err := e.provider.CurrentView().HeaderByNumber(20)
		if err != nil {
			t.Fatal(err)
		}
		if blk.Txs == nil {
			break
		}
		if i == 200 {
			t.Fatal("block #20 still holds its transactions 200 blocks later")
		}
		e.mineTransfer()
	}
	checkPages("below the window")
}

// TestWarmBlockBelowHorizonDecodesNothing: a reopened node holds the
// blocks below its restored snapshot as their log records. A warm
// /v1/block/{n} request for one of them — a cache hit — costs what one
// for the genesis block does, whatever the block carries: naming the
// cache entry reads the header, not a decoded body.
func TestWarmBlockBelowHorizonDecodesNothing(t *testing.T) {
	dir := t.TempDir()
	e := newDiskEnv(t, dir)
	for i := 0; i < 20; i++ { // block #4's 20 transfers, all from alice
		tx := &types.Transaction{
			Kind:     types.TxTransfer,
			Nonce:    e.provider.CurrentView().State().Nonce(e.alice.Address()) + uint64(i),
			To:       types.Address{0xb0},
			Value:    types.GWei,
			GasLimit: 21_000,
			GasPrice: 50 * types.GWei,
		}
		if err := types.SignTx(tx, e.alice); err != nil {
			t.Fatal(err)
		}
		if err := e.provider.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	e.mine()
	e.mine() // the snapshot lands here, above #4
	prov := reopenEnv(t, e, dir)
	if h := prov.CurrentView().Horizon(); h != 5 {
		t.Fatalf("reopened at horizon %d, want 5", h)
	}
	if blk, _ := prov.CurrentView().BlockByNumber(4); len(blk.Txs) != 20 {
		t.Fatalf("block #4 carries %d transactions, want 20", len(blk.Txs))
	}
	srv := NewServer(prov, e.sc)
	get := func(path string) func() {
		return func() {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d", path, rec.Code)
			}
		}
	}
	genesis, deep := get("/v1/block/0"), get("/v1/block/4")
	genesis() // warm both cache entries
	deep()
	g, d := testing.AllocsPerRun(50, genesis), testing.AllocsPerRun(50, deep)
	if d != g {
		t.Errorf("a warm /v1/block/4 allocates %.0f times, /v1/block/0 %.0f: the 20-transaction block below the horizon was decoded", d, g)
	}
}
