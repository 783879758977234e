package rpc

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// SubmitResponse is the shape of the POST /v1/tx acknowledgement, which
// the handler appends rather than marshals.
type SubmitResponse struct {
	TxHash string `json:"txHash"`
	Pooled bool   `json:"pooled"`
}

// submitTransfer signs alice's transfer at nonce and returns its
// transport encoding.
func (e *env) submitTransfer(nonce uint64) []byte {
	e.t.Helper()
	tx := &types.Transaction{
		Kind:     types.TxTransfer,
		Nonce:    nonce,
		To:       types.Address{9},
		Value:    1,
		GasLimit: 21_000,
		GasPrice: 50 * types.GWei,
	}
	if err := types.SignTx(tx, e.alice); err != nil {
		e.t.Fatal(err)
	}
	return types.EncodeTx(tx)
}

// onlyReader hides a reader's other methods, so a request built on it has
// no length and goes out chunked.
type onlyReader struct{ io.Reader }

// TestSubmitTxResponsesAreLiteral pins every POST /v1/tx answer — status,
// Content-Type and the body byte for byte, trailing newline included —
// to the literals the json.Encoder handler wrote. Bodies that take the
// exact-shape fast path and bodies that only the general decoder reads
// must both answer these bytes.
func TestSubmitTxResponsesAreLiteral(t *testing.T) {
	e := newEnv(t)
	tx1, tx2, tx3, tx4 := e.submitTransfer(1), e.submitTransfer(2), e.submitTransfer(3), e.submitTransfer(4)
	hex1 := "0x" + hex.EncodeToString(tx1)
	huge := `{"txHex":"0x` + strings.Repeat("00", 1<<20) + `"}`
	const (
		known     = `{"error":{"code":"tx_rejected","message":"txpool: transaction already pooled"}}` + "\n"
		eof       = `{"error":{"code":"bad_request","message":"rpc: bad request body: unexpected end of JSON input"}}` + "\n"
		truncated = `{"error":{"code":"bad_request","message":"types: decode tx: rlp: input truncated"}}` + "\n"
	)
	cases := []struct {
		name    string
		body    string
		chunked bool
		status  int
		want    string
	}{
		{"ok", `{"txHex":"` + hex1 + `"}`, false, 200, `{"txHash":"0x9e78e1430cf82e63adb5bac2429b30e02ac6ef41966548d4cbd1a0f6c8e97e0e","pooled":true}` + "\n"},
		{"ok without 0x", `{"txHex":"` + hex.EncodeToString(tx2) + `"}`, false, 200, `{"txHash":"0xbc305fd2e5e24f260df546b804273c3a9e8c32515d88b9f7f5a8b4e028dc3716","pooled":true}` + "\n"},
		{"ok spaced", `{ "txHex" : "0x` + hex.EncodeToString(tx3) + `" }`, false, 200, `{"txHash":"0x976b6e866d385a09eaa343bb004f1a09bc80f566226a81a1cc4516882965fdcf","pooled":true}` + "\n"},
		{"ok chunked", `{"txHex":"0x` + hex.EncodeToString(tx4) + `"}`, true, 200, `{"txHash":"0xf6801d1158466857b4feec993b36636c8a1a56caa27fd9333df93a8cafbe52c9","pooled":true}` + "\n"},
		{"known", `{"txHex":"` + hex1 + `"}`, false, 422, known},
		{"known escaped", `{"txHex":"\u0030x` + hex1[2:] + `"}`, false, 422, known},
		{"known other key case", `{"TXHEX":"` + hex1 + `"}`, false, 422, known},
		{"bad json", `not json`, false, 400, `{"error":{"code":"bad_request","message":"rpc: bad request body: invalid character 'o' in literal null (expecting 'u')"}}` + "\n"},
		{"empty body", ``, false, 400, eof},
		{"trailing garbage", `{"txHex":"` + hex1 + `"}x`, false, 400, `{"error":{"code":"bad_request","message":"rpc: bad request body: invalid character 'x' after top-level value"}}` + "\n"},
		{"bad hex", `{"txHex":"zz"}`, false, 400, `{"error":{"code":"bad_request","message":"rpc: bad tx hex: encoding/hex: invalid byte: U+007A 'z'"}}` + "\n"},
		{"odd hex", `{"txHex":"0xabc"}`, false, 400, `{"error":{"code":"bad_request","message":"rpc: bad tx hex: encoding/hex: odd length hex string"}}` + "\n"},
		{"non-ascii hex", `{"txHex":"0xé0"}`, false, 400, `{"error":{"code":"bad_request","message":"rpc: bad tx hex: encoding/hex: invalid byte: U+00C3 'Ã'"}}` + "\n"},
		{"undecodable tx", `{"txHex":"0xc0"}`, false, 400, truncated},
		{"empty hex", `{"txHex":""}`, false, 400, truncated},
		{"over 1 MiB", huge, false, 400, eof},
		{"over 1 MiB chunked", huge, true, 400, eof},
	}
	for _, c := range cases {
		var body io.Reader = strings.NewReader(c.body)
		if c.chunked {
			body = onlyReader{body}
		}
		resp, err := http.Post(e.server.URL+"/v1/tx", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.status || resp.Header.Get("Content-Type") != "application/json" || !bytes.Equal(got, []byte(c.want)) {
			t.Errorf("%s: %d %q %q, want %d application/json %q", c.name, resp.StatusCode, resp.Header.Get("Content-Type"), got, c.status, c.want)
		}
		if c.status == http.StatusOK {
			var ack SubmitResponse
			if err := json.Unmarshal(got, &ack); err != nil {
				t.Fatal(err)
			}
			if marshalled := encodeBody(ack); !bytes.Equal(got, marshalled) {
				t.Errorf("%s: appended %q, json.Encoder writes %q", c.name, got, marshalled)
			}
		}
	}
}

// FuzzSubmitBody runs the POST /v1/tx body reader against json.Unmarshal
// plus hex.DecodeString, the reader it stands in for: the same bodies
// accepted, the same transaction bytes, the same error message.
func FuzzSubmitBody(f *testing.F) {
	for _, seed := range []string{
		`{"txHex":"0xf86c01"}`, `{"txHex":"f86c01"}`, `{"txHex":""}`, `{"txHex":"0x"}`,
		`{"txHex":"0xzz"}`, `{"txHex":"0xabc"}`, `{"txHex":"0x00"}`, `{"txHex":"0x\"00"}`,
		`{"txHex":"0x00"} `, `{"TxHex":"0x00"}`, `{"txHex":"0xé0"}`, `{"txHex":"}`, `not json`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var wantRaw []byte
		var wantErr error
		var req SubmitRequest
		if err := json.Unmarshal(body, &req); err != nil {
			wantErr = fmt.Errorf("rpc: bad request body: %w", err)
		} else if wantRaw, err = hex.DecodeString(strings.TrimPrefix(req.TxHex, "0x")); err != nil {
			wantErr = fmt.Errorf("rpc: bad tx hex: %w", err)
		}
		_, exact := exactSubmitHex(body)
		raw, err := submitTxBytes(bytes.Clone(body))
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("body %q: err %v, reference %v", body, err, wantErr)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("body %q: err %q, reference %q", body, err, wantErr)
		case err == nil && !bytes.Equal(raw, wantRaw):
			t.Fatalf("body %q: bytes %x, reference %x", body, raw, wantRaw)
		case exact && (json.Unmarshal(body, &req) != nil || req.TxHex != string(body[len(`{"txHex":"`):len(body)-2])):
			t.Fatalf("body %q: taken as the exact shape, but json.Unmarshal reads %q", body, req.TxHex)
		}
	})
}

// silentBody is a request body that sends nothing and records the
// largest buffer a read offered it.
type silentBody struct{ largest int }

func (b *silentBody) Read(p []byte) (int, error) {
	b.largest = max(b.largest, len(p))
	return 0, io.ErrUnexpectedEOF
}

func (*silentBody) Close() error { return nil }

// TestSubmitBodyNotSizedFromAnUnsentLength: a client that declares the
// largest body and sends none of it is read into a buffer of at most
// submitPresize, not one of the length it declared.
func TestSubmitBodyNotSizedFromAnUnsentLength(t *testing.T) {
	body := new(silentBody)
	r, err := http.NewRequest("POST", "/v1/tx", body)
	if err != nil {
		t.Fatal(err)
	}
	r.ContentLength = maxSubmitBody
	if _, err := readSubmitBody(r); err == nil {
		t.Fatal("an empty body of declared length 1 MiB was read without error")
	}
	if body.largest == 0 || body.largest > submitPresize {
		t.Errorf("the body was read into a buffer of %d bytes, want 1..%d", body.largest, submitPresize)
	}
}
