//go:build !race

package rpc

import (
	"bytes"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// admitAll is a node that pools every transaction it is handed.
type admitAll struct{ nodeAPI }

func (admitAll) SubmitTx(*types.Transaction) error { return nil }

// reusedBody is a request body a test rewinds between runs.
type reusedBody struct{ bytes.Reader }

func (*reusedBody) Close() error { return nil }

// discardResponse is a ResponseWriter that keeps its header map and
// drops the body.
type discardResponse struct {
	header http.Header
	status int
	n      int
}

func (w *discardResponse) Header() http.Header         { return w.header }
func (w *discardResponse) WriteHeader(status int)      { w.status = status }
func (w *discardResponse) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// TestSubmitTxAllocatesTheTransactionAndTwoBuffers pins the POST /v1/tx
// write path: beyond what decoding the transaction allocates, the
// handler allocates the body it reads and the answer it writes, and
// nothing else — no JSON decoder, no hex string copy, no header slice.
func TestSubmitTxAllocatesTheTransactionAndTwoBuffers(t *testing.T) {
	tx := &types.Transaction{Kind: types.TxTransfer, To: types.Address{9}, Value: 1, GasLimit: 21_000, GasPrice: 50 * types.GWei}
	if err := types.SignTx(tx, wallet.NewDeterministic("alice")); err != nil {
		t.Fatal(err)
	}
	raw := types.EncodeTx(tx)
	payload := []byte(`{"txHex":"0x` + hex.EncodeToString(raw) + `"}`)

	s := &Server{node: admitAll{}}
	body := new(reusedBody)
	r := httptest.NewRequest("POST", "/v1/tx", body)
	r.ContentLength = int64(len(payload))
	w := &discardResponse{header: http.Header{}}
	submit := func() {
		body.Reset(payload)
		s.handleSubmitTx(w, r)
	}
	submit()
	if w.status != http.StatusOK || w.n != len(submitOKHead)+2*types.HashSize+len(submitOKTail) {
		t.Fatalf("status %d, %d body bytes", w.status, w.n)
	}
	handler := testing.AllocsPerRun(100, submit)
	decode := testing.AllocsPerRun(100, func() {
		if _, err := types.DecodeTx(raw); err != nil {
			t.Fatal(err)
		}
	})
	if handler != decode+2 {
		t.Errorf("the handler allocates %v times, decoding the transaction %v: want the decode plus 2 (body, answer)", handler, decode)
	}
}

// TestUnsentBodyAllocatesLittle: a request that declares a 1 MiB body and
// sends nothing makes the server allocate a few KiB, not the megabyte it
// declared, so idle connections cannot pin a megabyte each.
func TestUnsentBodyAllocatesLittle(t *testing.T) {
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		r, err := http.NewRequest("POST", "/v1/tx", new(silentBody))
		if err != nil {
			t.Fatal(err)
		}
		r.ContentLength = maxSubmitBody
		if _, err := readSubmitBody(r); err == nil {
			t.Fatal("an empty body was read without error")
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > submitPresize {
		t.Errorf("an unsent 1 MiB body allocates %d bytes, want at most %d", perRun, submitPresize)
	}
}
