package rpc

import (
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

func (e *env) getRaw(path string) (*http.Response, []byte) {
	e.t.Helper()
	resp, err := http.Get(e.server.URL + path)
	if err != nil {
		e.t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		e.t.Fatal(err)
	}
	return resp, body
}

// releaseSRA signs, submits and mines one more release from alice.
func (e *env) releaseSRA(name string, nonce uint64) *types.SRA {
	e.t.Helper()
	sra := &types.SRA{
		Provider:     e.alice.Address(),
		Name:         name,
		Version:      "1.0",
		SystemHash:   types.HashBytes([]byte(name)),
		DownloadLink: "sc://" + name,
		Insurance:    types.EtherAmount(100),
		Bounty:       types.EtherAmount(5),
	}
	if err := types.SignSRA(sra, e.alice); err != nil {
		e.t.Fatal(err)
	}
	tx := types.NewSRATx(sra, nonce, 2_000_000, 50*types.GWei)
	if err := types.SignTx(tx, e.alice); err != nil {
		e.t.Fatal(err)
	}
	if err := e.provider.SubmitTx(tx); err != nil {
		e.t.Fatal(err)
	}
	e.mine()
	return sra
}

// TestRemovedRoutesNotFound asserts, once, that the surfaces this server
// used to carry beside /v1 are gone rather than half-alive: the
// unprefixed aliases, the span ring and the expvar bridge.
func TestRemovedRoutesNotFound(t *testing.T) {
	e := newEnv(t)
	for _, path := range []string{
		"/status",
		"/block/1",
		"/blocks",
		"/reference/" + e.sra.ID.String(),
		"/debug/spans",
		"/debug/vars",
	} {
		if resp, _ := e.getRaw(path); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Post(e.server.URL+"/tx", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /tx: status %d, want 404", resp.StatusCode)
	}
}

// TestRouteTableMatchesDocs walks the route table and fails unless the
// package comment in rpc.go and DESIGN.md §8.5 list exactly its
// method+pattern pairs — a route cannot be added, removed or renamed in
// one of the three places only.
func TestRouteTableMatchesDocs(t *testing.T) {
	var want []string
	for _, rt := range routes {
		want = append(want, rt.method+" "+rt.pattern)
	}
	sort.Strings(want)

	// Doc rows look like "GET  /v1/blocks?from=&to=   description".
	row := regexp.MustCompile(`^(?://\t|    )(GET|POST) +(/[^ ?]*)`)
	listed := func(path, from, to string) []string {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		i := strings.Index(text, from)
		j := strings.Index(text, to)
		if i < 0 || j < i {
			t.Fatalf("%s: section %q .. %q not found", path, from, to)
		}
		var got []string
		for _, line := range strings.Split(text[i:j], "\n") {
			if m := row.FindStringSubmatch(line); m != nil {
				got = append(got, m[1]+" "+m[2])
			}
		}
		sort.Strings(got)
		return got
	}
	for _, doc := range []struct{ path, from, to string }{
		{"rpc.go", "// Package rpc", "\npackage rpc"},
		{filepath.Join("..", "..", "DESIGN.md"), "### 8.5 ", "\n## 9. "},
	} {
		if got := listed(doc.path, doc.from, doc.to); !reflect.DeepEqual(got, want) {
			t.Errorf("%s lists\n  %s\nthe route table has\n  %s",
				doc.path, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
		}
	}
}

func decodeErrBody(t *testing.T, body []byte) ErrorBody {
	t.Helper()
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error response %q is not the envelope: %v", body, err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("error envelope incomplete: %q", body)
	}
	return env.Error
}

func TestErrorEnvelopeCodes(t *testing.T) {
	e := newEnv(t)
	ghost := types.HashBytes([]byte("ghost"))
	for _, tc := range []struct {
		path   string
		status int
		code   string
	}{
		{"/v1/block/notanumber", http.StatusBadRequest, CodeBadRequest},
		{"/v1/block/99", http.StatusNotFound, CodeNotFound},
		{"/v1/balance/zzzz", http.StatusBadRequest, CodeBadRequest},
		{"/v1/receipt/" + ghost.String(), http.StatusNotFound, CodeNotFound},
		{"/v1/sra/" + ghost.String(), http.StatusNotFound, CodeNotFound},
		{"/v1/proof/" + ghost.String(), http.StatusNotFound, CodeNotFound},
		{"/v1/sras?limit=-1", http.StatusBadRequest, CodeBadRequest},
		{"/v1/blocks?from=9&to=2", http.StatusBadRequest, CodeBadRequest},
	} {
		resp, body := e.getRaw(tc.path)
		if resp.StatusCode != tc.status {
			t.Errorf("GET %s: status %d, want %d", tc.path, resp.StatusCode, tc.status)
		}
		if got := decodeErrBody(t, body); got.Code != tc.code {
			t.Errorf("GET %s: code %q, want %q", tc.path, got.Code, tc.code)
		}
	}

	// A well-formed transaction that fails admission maps to tx_rejected.
	pauper := wallet.NewDeterministic("pauper")
	tx := &types.Transaction{
		Kind:     types.TxTransfer,
		To:       types.Address{1},
		Value:    types.EtherAmount(1_000_000),
		GasLimit: 21_000,
		GasPrice: 50 * types.GWei,
	}
	if err := types.SignTx(tx, pauper); err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(SubmitRequest{TxHex: hex.EncodeToString(types.EncodeTx(tx))})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(e.server.URL+"/v1/tx", "application/json", strings.NewReader(string(payload)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unfunded tx: status %d, want 422", resp.StatusCode)
	}
	if got := decodeErrBody(t, body); got.Code != CodeTxRejected {
		t.Errorf("unfunded tx: code %q, want %q", got.Code, CodeTxRejected)
	}
}

// TestSRAListPagination pins a page's contents; walking pages by cursor
// is TestSRAListCursorWalk's job.
func TestSRAListPagination(t *testing.T) {
	e := newEnv(t)
	// The env released one SRA (alice nonce 0); add three more.
	fwTwo := e.releaseSRA("fw-two", 1)
	e.releaseSRA("fw-three", 2)
	e.releaseSRA("fw-four", 3)

	var page SRAListResponse
	if code := e.get("/v1/sras?limit=2", &page); code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	if page.Total != 4 || len(page.SRAs) != 2 || page.NextCursor == "" {
		t.Fatalf("first page %+v, want total 4 with 2 entries and a cursor", page)
	}
	// Release order: the env SRA landed in block 1, then fw-two in block 4.
	if page.SRAs[0].ID != e.sra.ID.String() || page.SRAs[0].ReleaseBlock != 1 {
		t.Errorf("first entry %+v, want the env SRA at block 1", page.SRAs[0])
	}
	if page.SRAs[0].Reports != 2 {
		t.Errorf("env SRA lists %d reports, want 2", page.SRAs[0].Reports)
	}
	if page.SRAs[1].ID != fwTwo.ID.String() {
		t.Errorf("second entry %s, want fw-two", page.SRAs[1].ID)
	}
}

func TestBlockListRange(t *testing.T) {
	e := newEnv(t) // head is block 3

	var page BlockListResponse
	if code := e.get("/v1/blocks", &page); code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	if page.From != 0 || page.To != 3 || page.Head != 3 || len(page.Blocks) != 4 {
		t.Fatalf("default range %+v, want blocks 0..3", page)
	}

	if code := e.get("/v1/blocks?from=1&to=2", &page); code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	if len(page.Blocks) != 2 || page.Blocks[0].Number != 1 || page.Blocks[1].Number != 2 {
		t.Errorf("range 1..2 returned %+v", page)
	}

	// A range reaching past the head truncates; To reports the last block
	// actually returned.
	if code := e.get("/v1/blocks?from=2&to=90", &page); code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	if len(page.Blocks) != 2 || page.To != 3 {
		t.Errorf("truncated range %+v, want blocks 2..3 with to=3", page)
	}

	if code := e.get("/v1/blocks?from=0&to=200", nil); code != http.StatusBadRequest {
		t.Errorf("oversized range returned %d, want 400", code)
	}
	// A width that overflows int is as oversized as any other.
	resp, body := e.getRaw("/v1/blocks?from=0&to=9223372036854775807")
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(env.Error.Message, "wider than the cap") {
		t.Errorf("range 0..MaxInt64 returned %d %s, want 400 naming the cap", resp.StatusCode, body)
	}
	// A narrow range far past the head is an empty page, whatever its ends.
	if code := e.get("/v1/blocks?from=18446744073709551606&to=18446744073709551615", &page); code != http.StatusOK || len(page.Blocks) != 0 {
		t.Errorf("range ending at MaxUint64 returned %d %+v, want an empty page", code, page)
	}
}
