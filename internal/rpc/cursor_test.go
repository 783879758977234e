package rpc

import (
	"encoding/base64"
	"encoding/binary"
	"net/http"
	"strings"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/crypto/keccak"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

func TestCursorCodec(t *testing.T) {
	orig := cursor{
		kind:   cursorKindSRAs,
		headID: types.HashBytes([]byte("head")),
		pos:    42,
		lastID: types.HashBytes([]byte("last")),
	}
	token := encodeCursor(orig)
	got, err := decodeCursor(token, cursorKindSRAs)
	if err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Fatalf("round trip %+v, want %+v", got, orig)
	}

	if _, err := decodeCursor(token, cursorKindBlocks); err == nil {
		t.Error("sras cursor accepted by the blocks endpoint kind")
	}
	if _, err := decodeCursor("not!base64url", cursorKindSRAs); err == nil {
		t.Error("garbage token decoded")
	}
	if _, err := decodeCursor(token[:len(token)-8], cursorKindSRAs); err == nil {
		t.Error("truncated token decoded")
	}
	// Flip one character: the checksum must catch it.
	tampered := []byte(token)
	if tampered[10] == 'A' {
		tampered[10] = 'B'
	} else {
		tampered[10] = 'A'
	}
	if _, err := decodeCursor(string(tampered), cursorKindSRAs); err == nil {
		t.Error("tampered token decoded")
	}
}

// TestCursorForgedChecksumRejected: a client that knows the token layout
// but not the per-process key (here, computing the unkeyed keccak the
// pre-keyed scheme used) cannot mint cursors with arbitrary headID/lastID
// — forging one of those per request would force the worst-case O(n)
// re-anchoring scan every time. Forgeries must die at decode.
func TestCursorForgedChecksumRejected(t *testing.T) {
	raw := make([]byte, 0, cursorRawLen+cursorSumLen)
	raw = append(raw, cursorKindSRAs)
	var head, last types.Hash
	head[0], last[0] = 0xaa, 0xbb
	raw = append(raw, head[:]...)
	raw = binary.BigEndian.AppendUint64(raw, 12345)
	raw = append(raw, last[:]...)
	sum := keccak.Sum256(raw)
	raw = append(raw, sum[:cursorSumLen]...)
	forged := base64.RawURLEncoding.EncodeToString(raw)
	if _, err := decodeCursor(forged, cursorKindSRAs); err == nil {
		t.Fatal("forged unkeyed cursor accepted")
	}
}

// TestSRAListCursorWalk pages the SRA index by cursor alone: two pages of
// two, then the final poll token picks up an SRA released after the walk.
func TestSRAListCursorWalk(t *testing.T) {
	e := newEnv(t)
	extra := []*types.SRA{
		e.releaseSRA("fw-two", 1),
		e.releaseSRA("fw-three", 2),
		e.releaseSRA("fw-four", 3),
	}

	var page SRAListResponse
	if code := e.get("/v1/sras?limit=2", &page); code != http.StatusOK {
		t.Fatalf("first page status %d", code)
	}
	if page.NextCursor == "" {
		t.Fatal("first page has no nextCursor")
	}

	if code := e.get("/v1/sras?cursor="+page.NextCursor+"&limit=2", &page); code != http.StatusOK {
		t.Fatalf("second page status %d", code)
	}
	if len(page.SRAs) != 2 || page.SRAs[0].ID != extra[1].ID.String() || page.SRAs[1].ID != extra[2].ID.String() {
		t.Fatalf("second page %+v, want fw-three then fw-four", page)
	}
	if page.NextCursor == "" {
		t.Fatal("last page has no poll cursor")
	}

	// Replaying the poll token is an empty page until a new SRA lands.
	poll := page.NextCursor
	if code := e.get("/v1/sras?cursor="+poll, &page); code != http.StatusOK {
		t.Fatalf("poll status %d", code)
	}
	if len(page.SRAs) != 0 || page.Total != 4 {
		t.Fatalf("caught-up poll %+v, want empty with total 4", page)
	}
	fresh := e.releaseSRA("fw-five", 4)
	if code := e.get("/v1/sras?cursor="+poll, &page); code != http.StatusOK {
		t.Fatalf("re-poll status %d", code)
	}
	if len(page.SRAs) != 1 || page.SRAs[0].ID != fresh.ID.String() {
		t.Fatalf("re-poll %+v, want exactly fw-five", page)
	}
}

// TestSRAListCursorReanchors hands the server a cursor whose position no
// longer matches its anchor (as after a reorg): the server must find the
// last delivered SRA by ID and resume right after it, not trust pos.
func TestSRAListCursorReanchors(t *testing.T) {
	e := newEnv(t)
	second := e.releaseSRA("fw-two", 1)
	e.releaseSRA("fw-three", 2)

	// Claims "I've read 3 entries, the last was the env SRA" — but the
	// env SRA is at index 0, so the walk must resume at index 1.
	stale := encodeCursor(cursor{
		kind:   cursorKindSRAs,
		headID: types.HashBytes([]byte("some other fork")),
		pos:    3,
		lastID: e.sra.ID,
	})
	var page SRAListResponse
	if code := e.get("/v1/sras?cursor="+stale+"&limit=1", &page); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(page.SRAs) != 1 || page.SRAs[0].ID != second.ID.String() {
		t.Fatalf("re-anchored page %+v, want fw-two (index 1)", page)
	}
}

func TestListParamRejections(t *testing.T) {
	e := newEnv(t)
	sraCursor := encodeCursor(cursor{kind: cursorKindSRAs})
	blockCursor := encodeCursor(cursor{kind: cursorKindBlocks})
	for _, path := range []string{
		"/v1/sras?limit=0",
		"/v1/sras?limit=xyz",
		"/v1/sras?cursor=garbage",
		"/v1/sras?cursor=" + blockCursor, // wrong endpoint's token
		"/v1/blocks?from=-1",
		"/v1/blocks?to=xyz",
		"/v1/blocks?cursor=garbage",
		"/v1/blocks?cursor=" + blockCursor + "&from=0",
		"/v1/blocks?cursor=" + sraCursor,
		"/debug/traces?limit=0",
	} {
		resp, body := e.getRaw(path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, resp.StatusCode)
			continue
		}
		if got := decodeErrBody(t, body); got.Code != CodeBadRequest {
			t.Errorf("GET %s: code %q, want %q", path, got.Code, CodeBadRequest)
		}
	}

	// The removed ?offset= parameter is refused by name, pointing at its
	// replacement, never silently ignored (page one forever).
	for _, path := range []string{"/v1/sras?offset=2", "/v1/sras?cursor=" + sraCursor + "&offset=2"} {
		resp, body := e.getRaw(path)
		if got := decodeErrBody(t, body); resp.StatusCode != http.StatusBadRequest ||
			got.Code != CodeBadRequest || !strings.Contains(got.Message, "cursor") {
			t.Errorf("GET %s: %d %+v, want a bad_request naming cursor", path, resp.StatusCode, got)
		}
	}

	// Oversized limits clamp instead of erroring: the cap is a promise
	// about page size, not a trap for generous clients.
	var page SRAListResponse
	if code := e.get("/v1/sras?limit=100000", &page); code != http.StatusOK {
		t.Errorf("oversized limit status %d, want 200 (clamped)", code)
	}
}

// TestBlockListCursorWalk iterates blocks open-endedly: a from-only
// request pages toward the head, the caught-up poll token picks up the
// next mined block, and a bounded from/to request mints no cursor.
func TestBlockListCursorWalk(t *testing.T) {
	e := newEnv(t) // head is block 3

	var page BlockListResponse
	if code := e.get("/v1/blocks?from=1", &page); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(page.Blocks) != 3 || page.NextCursor == "" {
		t.Fatalf("open-ended page %+v, want blocks 1..3 plus a cursor", page)
	}

	// Caught up: the continuation is empty but keeps handing back a token.
	if code := e.get("/v1/blocks?cursor="+page.NextCursor, &page); code != http.StatusOK {
		t.Fatalf("caught-up page status %d", code)
	}
	if len(page.Blocks) != 0 || page.From != 4 || page.NextCursor == "" {
		t.Fatalf("caught-up page %+v, want empty at from=4 with a poll cursor", page)
	}
	poll := page.NextCursor
	e.mine()
	if code := e.get("/v1/blocks?cursor="+poll, &page); code != http.StatusOK {
		t.Fatalf("re-poll status %d", code)
	}
	if len(page.Blocks) != 1 || page.Blocks[0].Number != 4 {
		t.Fatalf("re-poll %+v, want exactly block 4", page)
	}

	// Bounded requests keep the fixed-range contract: no cursor.
	var bounded BlockListResponse
	if code := e.get("/v1/blocks?from=1&to=2", &bounded); code != http.StatusOK {
		t.Fatalf("bounded status %d", code)
	}
	if bounded.NextCursor != "" {
		t.Errorf("bounded range minted cursor %q", bounded.NextCursor)
	}
}

// TestBlockListOpenEndedPaging mines past the page cap: an open-ended
// request serves exactly MaxBlockRangeSize blocks and the cursor chain
// walks the rest without a gap or an overlap.
func TestBlockListOpenEndedPaging(t *testing.T) {
	e := newEnv(t)
	for e.provider.Chain().HeadNumber() < 120 {
		e.mine()
	}

	var page BlockListResponse
	if code := e.get("/v1/blocks", &page); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(page.Blocks) != MaxBlockRangeSize || page.From != 0 || page.To != 99 {
		t.Fatalf("first page from=%d to=%d len=%d, want 0..99", page.From, page.To, len(page.Blocks))
	}
	if code := e.get("/v1/blocks?cursor="+page.NextCursor, &page); code != http.StatusOK {
		t.Fatalf("second page status %d", code)
	}
	if len(page.Blocks) != 21 || page.Blocks[0].Number != 100 || page.Blocks[20].Number != 120 {
		t.Fatalf("second page from=%d len=%d, want blocks 100..120", page.From, len(page.Blocks))
	}

	// An explicitly bounded over-wide range still errors — only the
	// open-ended form pages.
	if code := e.get("/v1/blocks?from=0&to=119", nil); code != http.StatusBadRequest {
		t.Errorf("explicit oversized range returned %d, want 400", code)
	}
}

// TestBlockListCursorReorgInvalidation: a blocks cursor whose anchor
// block is no longer canonical cannot be resumed without splicing two
// forks into one stream, so the server rejects it outright.
func TestBlockListCursorReorgInvalidation(t *testing.T) {
	e := newEnv(t)
	bogus := encodeCursor(cursor{
		kind:   cursorKindBlocks,
		headID: types.HashBytes([]byte("other fork")),
		pos:    2,
		lastID: types.HashBytes([]byte("not block 1")),
	})
	resp, body := e.getRaw("/v1/blocks?cursor=" + bogus)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if got := decodeErrBody(t, body); !strings.Contains(got.Message, "reorg") {
		t.Errorf("message %q does not explain the reorg invalidation", got.Message)
	}

	// A cursor pointing past our head is equally unanchorable (we cannot
	// verify a block we do not have).
	beyond := encodeCursor(cursor{
		kind:   cursorKindBlocks,
		headID: types.HashBytes([]byte("x")),
		pos:    1000,
		lastID: types.HashBytes([]byte("y")),
	})
	if code := e.get("/v1/blocks?cursor="+beyond, nil); code != http.StatusBadRequest {
		t.Errorf("beyond-head cursor returned %d, want 400", code)
	}
}

// TestCursorSurvivesHeadAdvance is the reorg-stability core: a page is
// cut, the chain grows (new head, new SRA landing mid-walk), and the
// cursor still resumes exactly after the last delivered entry — where an
// offset-based walk would have been measured against the new index.
func TestCursorSurvivesHeadAdvance(t *testing.T) {
	e := newEnv(t)
	second := e.releaseSRA("fw-two", 1)

	var page SRAListResponse
	if code := e.get("/v1/sras?limit=1", &page); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(page.SRAs) != 1 || page.SRAs[0].ID != e.sra.ID.String() {
		t.Fatalf("first page %+v", page)
	}

	// Head moves between the two page fetches.
	e.mine()
	e.mine()

	if code := e.get("/v1/sras?cursor="+page.NextCursor+"&limit=1", &page); code != http.StatusOK {
		t.Fatalf("second page status %d", code)
	}
	if len(page.SRAs) != 1 || page.SRAs[0].ID != second.ID.String() {
		t.Fatalf("resumed page %+v, want fw-two", page)
	}
}

func TestNodeEndpoint(t *testing.T) {
	e := newEnv(t)
	var nr NodeResponse
	if code := e.get("/v1/node", &nr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if nr.NodeID != "rpc-provider" {
		t.Errorf("nodeId %q", nr.NodeID)
	}
	if nr.HeadNumber != 3 || nr.HeadID == "" {
		t.Errorf("head %d/%q, want 3", nr.HeadNumber, nr.HeadID)
	}
	if nr.Storage.Backend != "memory" {
		t.Errorf("backend %q, want memory (env chain has no store)", nr.Storage.Backend)
	}
	if nr.Sync.Mode != "live" {
		t.Errorf("sync mode %q, want live", nr.Sync.Mode)
	}
	if nr.Peers != -1 {
		t.Errorf("peers %d, want -1 without a transport", nr.Peers)
	}
}

func TestHealthReportsSyncMode(t *testing.T) {
	e := newEnv(t)
	var h HealthResponse
	if code := e.get("/v1/health", &h); code != http.StatusOK {
		t.Fatalf("health returned %d", code)
	}
	if h.SyncMode != "live" {
		t.Errorf("syncMode %q, want live", h.SyncMode)
	}
}
