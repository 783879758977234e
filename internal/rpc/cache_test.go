package rpc

import (
	"bytes"
	"encoding/base64"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/detection"
	"github.com/smartcrowd/smartcrowd/internal/node"
	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// rawGet fetches base+path and returns the response with its body fully
// read, so tests can assert on exact bytes and headers. inm, when
// non-empty, is sent as If-None-Match.
func rawGet(t *testing.T, base, path, inm string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("GET", base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// newForkProvider builds a provider with a deterministic genesis shared
// by every call: same allocation, same contract parameters. Distinct
// instances can therefore exchange blocks and reorg one another.
func newForkProvider(t *testing.T, id string, alice *wallet.Wallet) *node.ProviderNode {
	t.Helper()
	sc := contract.New(contract.DefaultParams(), detection.NewGroundTruthVerifier(false))
	cfg := chain.DefaultConfig(sc)
	cfg.SkipPoWCheck = true
	cfg.Alloc = map[types.Address]types.Amount{alice.Address(): types.EtherAmount(5000)}
	prov, err := node.NewProvider(p2p.NodeID(id), wallet.NewDeterministic("miner"), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return prov
}

func mineOn(t *testing.T, prov *node.ProviderNode) {
	t.Helper()
	head := prov.Chain().Head()
	if _, err := prov.MineBlock(head.Header.Time+15_000, 1000, 0, 0); err != nil {
		t.Fatal(err)
	}
}

// TestCacheReorgInvalidation is the satellite guarantee: after a fork
// switch, no head-keyed answer computed against the losing branch is
// ever served again. Branch A carries a transfer; branch B (heavier)
// does not. Every cached answer that mentioned the transfer must change
// the moment B wins.
func TestCacheReorgInvalidation(t *testing.T) {
	alice := wallet.NewDeterministic("alice")
	payee := types.Address{0xAB, 0xCD}
	provA := newForkProvider(t, "fork-a", alice)
	provB := newForkProvider(t, "fork-b", alice)
	if provA.Chain().Genesis().ID() != provB.Chain().Genesis().ID() {
		t.Fatal("fork providers disagree on genesis")
	}

	// Branch A: one block carrying alice → payee.
	tx := &types.Transaction{
		Kind:     types.TxTransfer,
		Nonce:    0,
		To:       payee,
		Value:    types.EtherAmount(7),
		GasLimit: 21_000,
		GasPrice: 50 * types.GWei,
	}
	if err := types.SignTx(tx, alice); err != nil {
		t.Fatal(err)
	}
	if err := provA.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	mineOn(t, provA)

	// Branch B: two empty blocks — strictly heavier.
	mineOn(t, provB)
	mineOn(t, provB)

	sc := provA.Chain().Config().Contract
	srv := httptest.NewServer(NewServerWith(provA, sc, Config{}))
	defer srv.Close()

	balPath := "/v1/balance/" + payee.String()
	resp, body := rawGet(t, srv.URL, balPath, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("balance returned %d", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte(`"ether":7`)) {
		t.Fatalf("pre-reorg balance body %s, want 7 ether", body)
	}
	balETag := resp.Header.Get("ETag")

	// Warm more head-keyed entries, then serve the balance again from
	// cache to prove it is cached at all.
	stResp, stBody := rawGet(t, srv.URL, "/v1/status", "")
	recResp, _ := rawGet(t, srv.URL, "/v1/receipt/"+tx.Hash().String(), "")
	if recResp.StatusCode != http.StatusOK {
		t.Fatalf("receipt returned %d pre-reorg", recResp.StatusCode)
	}
	hits0 := mCacheHitHead.Value()
	if _, again := rawGet(t, srv.URL, balPath, ""); !bytes.Equal(again, body) {
		t.Fatal("cached balance body differs from first answer")
	}
	if mCacheHitHead.Value() == hits0 {
		t.Fatal("second balance read did not hit the head cache")
	}

	// The reorg: branch B's blocks displace branch A.
	evict0 := mCacheEvict.Value()
	if _, err := provA.Chain().InsertChain(provB.Chain().CanonicalBlocks()[1:]); err != nil {
		t.Fatal(err)
	}
	if provA.Chain().HeadNumber() != 2 {
		t.Fatalf("reorg did not take: head %d", provA.Chain().HeadNumber())
	}

	// Balance must be recomputed: the transfer never happened on B.
	resp, body = rawGet(t, srv.URL, balPath, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-reorg balance returned %d", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte(`"gwei":0`)) {
		t.Fatalf("post-reorg balance body %s, want zero", body)
	}
	if got := resp.Header.Get("ETag"); got == balETag {
		t.Fatal("post-reorg balance kept the stale ETag")
	}
	// A stale validator must revalidate to a full 200, never a 304.
	if resp304, _ := rawGet(t, srv.URL, balPath, balETag); resp304.StatusCode != http.StatusOK {
		t.Fatalf("stale ETag revalidated to %d, want 200", resp304.StatusCode)
	}

	// Status flips to the new head; the receipt of the orphaned transfer
	// is gone from the canonical chain.
	stResp2, stBody2 := rawGet(t, srv.URL, "/v1/status", "")
	if bytes.Equal(stBody2, stBody) || stResp2.Header.Get("ETag") == stResp.Header.Get("ETag") {
		t.Fatal("status served the pre-reorg answer after the fork switch")
	}
	if recResp2, _ := rawGet(t, srv.URL, "/v1/receipt/"+tx.Hash().String(), ""); recResp2.StatusCode != http.StatusNotFound {
		t.Fatalf("orphaned receipt returned %d, want 404", recResp2.StatusCode)
	}
	// The losing generation (≥3 entries) was discarded wholesale.
	if mCacheEvict.Value() == evict0 {
		t.Fatal("reorg did not evict the stale head generation")
	}
}

// TestCacheETagAndTiers pins the HTTP caching contract: head-keyed
// answers carry no-cache + a strong ETag that 304s until the head
// moves; finalized objects advertise themselves immutable.
func TestCacheETagAndTiers(t *testing.T) {
	e := newEnv(t) // head = 3
	k := e.provider.Chain().Config().Confirmations
	for i := uint64(0); i < k; i++ {
		e.mine() // head = 3+K: block 1 is now more than K deep
	}
	headPath := "/v1/block/" + strconv.FormatUint(3+k, 10)
	srv := e.server

	// Head tier: /v1/status.
	resp, body := rawGet(t, srv.URL, "/v1/status", "")
	if cc := resp.Header.Get("Cache-Control"); cc != "public, no-cache" {
		t.Errorf("status Cache-Control %q", cc)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("status has no ETag")
	}
	if resp304, b := rawGet(t, srv.URL, "/v1/status", etag); resp304.StatusCode != http.StatusNotModified || len(b) != 0 {
		t.Fatalf("revalidation: status %d body %q, want bodyless 304", resp304.StatusCode, b)
	}

	// Finalized tier: block 1 is K+2 deep.
	permMiss0, permHit0 := mCacheMissPerm.Value(), mCacheHitPerm.Value()
	bResp, bBody := rawGet(t, srv.URL, "/v1/block/1", "")
	if cc := bResp.Header.Get("Cache-Control"); cc != "public, max-age=31536000, immutable" {
		t.Errorf("finalized block Cache-Control %q", cc)
	}
	if mCacheMissPerm.Value() != permMiss0+1 {
		t.Error("finalized block did not register a perm-tier miss")
	}
	if _, bBody2 := rawGet(t, srv.URL, "/v1/block/1", ""); !bytes.Equal(bBody2, bBody) {
		t.Fatal("finalized block bytes changed between reads")
	}
	if mCacheHitPerm.Value() != permHit0+1 {
		t.Error("second finalized read did not hit the perm tier")
	}

	// The head block (depth 0 < K) stays head-keyed.
	if hResp, _ := rawGet(t, srv.URL, headPath, ""); hResp.Header.Get("Cache-Control") != "public, no-cache" {
		t.Errorf("head block Cache-Control %q", hResp.Header.Get("Cache-Control"))
	}

	// Cached 404s revalidate with a full body: only 200s may 304.
	nResp, _ := rawGet(t, srv.URL, "/v1/block/99", "")
	if nResp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing block returned %d", nResp.StatusCode)
	}
	if nResp2, b := rawGet(t, srv.URL, "/v1/block/99", nResp.Header.Get("ETag")); nResp2.StatusCode != http.StatusNotFound || len(b) == 0 {
		t.Fatalf("cached 404 revalidated to %d with body %q", nResp2.StatusCode, b)
	}
	_ = body
}

// maskCursorMAC zeroes the keyed checksum at the tail of a body's
// nextCursor token: the MAC secret is per-process random (cursor.go), so
// only the fields the token binds are comparable across processes.
func maskCursorMAC(t *testing.T, body []byte) []byte {
	t.Helper()
	return regexp.MustCompile(`"nextCursor":"([^"]+)"`).ReplaceAllFunc(body, func(m []byte) []byte {
		token := m[len(`"nextCursor":"`) : len(m)-1]
		raw, err := base64.RawURLEncoding.DecodeString(string(token))
		if err != nil || len(raw) != cursorRawLen+cursorSumLen {
			t.Fatalf("body carries a malformed cursor %q", token)
		}
		copy(raw[cursorRawLen:], make([]byte, cursorSumLen))
		return []byte(`"nextCursor":"` + base64.RawURLEncoding.EncodeToString(raw) + `"`)
	})
}

// TestReadBodiesMatchGolden pins every read route's bytes on newEnv's
// deterministic chain: the cache miss, the cache hit and the golden file
// must agree byte for byte. The goldens were captured from the
// mutex-guarded read path this server used to carry as a live oracle
// (the commit before its removal); the only edit since is /v1/sras
// losing its offset and nextOffset fields.
func TestReadBodiesMatchGolden(t *testing.T) {
	e := newEnv(t)
	for name, path := range map[string]string{
		"status":     "/v1/status",
		"block_0":    "/v1/block/0",
		"block_1":    "/v1/block/1",
		"block_99":   "/v1/block/99",
		"blocks_0_3": "/v1/blocks?from=0&to=3",
		"balance":    "/v1/balance/" + e.detector.Address().String(),
		"receipt":    "/v1/receipt/" + e.dtxHash.String(),
		"sra":        "/v1/sra/" + e.sra.ID.String(),
		"sras":       "/v1/sras",
		"reference":  "/v1/reference/" + e.sra.ID.String(),
		"proof":      "/v1/proof/" + e.dtxHash.String(),
	} {
		golden, err := os.ReadFile(filepath.Join("testdata", "golden", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		hits0 := mCacheHitHead.Value() + mCacheHitPerm.Value()
		_, miss := rawGet(t, e.server.URL, path, "")
		_, hit := rawGet(t, e.server.URL, path, "")
		if mCacheHitHead.Value()+mCacheHitPerm.Value() != hits0+1 {
			t.Errorf("%s: second read was not served from the cache", path)
		}
		if !bytes.Equal(miss, hit) {
			t.Errorf("%s: cache hit diverges from the miss that built it\nmiss: %s\nhit:  %s", path, miss, hit)
		}
		if got, want := maskCursorMAC(t, miss), maskCursorMAC(t, golden); !bytes.Equal(got, want) {
			t.Errorf("%s: body diverges from golden\n got: %s\nwant: %s", path, got, want)
		}
	}
}

// TestHeadCacheBoundedOnStaticHead fills the head generation past its
// cap with client-chosen keys on a head that never moves: the generation
// must stop growing, and the overflow must still be answered correctly.
func TestHeadCacheBoundedOnStaticHead(t *testing.T) {
	e := newEnv(t)
	srv := NewServer(e.provider, e.sc)
	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}
	// Spellings of one missing block share one entry.
	for _, spelling := range []string{"99", "099", "0099"} {
		if code, _ := get("/v1/block/" + spelling); code != http.StatusNotFound {
			t.Fatalf("block %s: %d", spelling, code)
		}
	}
	if n := srv.cache.gen.Load().count.Load(); n != 1 {
		t.Fatalf("three spellings of block 99 made %d entries, want 1", n)
	}

	for i := 0; i < permGenCap+64; i++ {
		addr := types.Address{byte(i), byte(i >> 8), 0xEE}
		if code, body := get("/v1/balance/" + addr.String()); code != http.StatusOK || !strings.Contains(body, `"gwei":0`) {
			t.Fatalf("balance %d: %d %s", i, code, body)
		}
	}
	if n := srv.cache.gen.Load().count.Load(); n > permGenCap {
		t.Fatalf("head generation holds %d entries on a static head, cap is %d", n, permGenCap)
	}
	// Past the cap answers are built fresh, and still right.
	if code, body := get("/v1/balance/" + e.detector.Address().String()); code != http.StatusOK || !strings.Contains(body, `"nonce":2`) {
		t.Fatalf("uncached overflow answer wrong: %d %s", code, body)
	}
}

// TestCacheSingleflight drives many concurrent misses for one key at the
// cache layer and asserts exactly one build ran and everyone got its
// bytes.
func TestCacheSingleflight(t *testing.T) {
	c := newRespCache()
	head := types.HashBytes([]byte("head"))
	var builds atomic.Int64
	build := func() (int, []byte) {
		builds.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the race window
		return http.StatusOK, []byte("{\"x\":1}\n")
	}
	const n = 32
	results := make([]*cacheEntry, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.headGetOrBuild(head, "k", build)
		}(i)
	}
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("build ran %d times, want 1", got)
	}
	for i, e := range results {
		if e.status != http.StatusOK || !bytes.Equal(e.body, results[0].body) || e.etag != results[0].etag {
			t.Fatalf("waiter %d got a different entry: %+v", i, e)
		}
	}

	// A panicking build must not wedge waiters or poison the key.
	func() {
		defer func() { _ = recover() }()
		c.headGetOrBuild(head, "boom", func() (int, []byte) { panic("build died") })
	}()
	if e := c.headGetOrBuild(head, "boom", func() (int, []byte) { return http.StatusOK, []byte("ok\n") }); e.status != http.StatusOK {
		t.Fatalf("key poisoned after panicking build: %+v", e)
	}
}

// TestCacheConcurrentReadersAcrossMining hammers the full HTTP path from
// many goroutines while the chain head keeps moving — run under -race,
// this is the end-to-end check that snapshot swaps never tear a reader.
func TestCacheConcurrentReadersAcrossMining(t *testing.T) {
	e := newEnv(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	paths := []string{
		"/v1/status",
		"/v1/block/1",
		"/v1/blocks?from=0&to=50",
		"/v1/balance/" + e.detector.Address().String(),
		"/v1/receipt/" + e.dtxHash.String(),
		"/v1/sras",
		"/v1/proof/" + e.dtxHash.String(),
	}
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := paths[(g+i)%len(paths)]
				resp, body := rawGet(t, e.server.URL, path, "")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s returned %d: %s", path, resp.StatusCode, body)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 8; i++ {
		mineOn(t, e.provider)
	}
	close(stop)
	wg.Wait()
	if got := e.provider.Chain().HeadNumber(); got != 11 {
		t.Fatalf("head %d after hammer, want 11", got)
	}
}
