package rpc

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/node"
	"github.com/smartcrowd/smartcrowd/internal/store"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// A node installed from a snapshot at the head — restarted from its
// datadir, or snap-joined — never executed the SRA → R† → R* chain below
// it. The reference must not care: it is read from the head state alone.

// newDiskEnv builds newEnv's chain on a datadir in dir.
func newDiskEnv(t *testing.T, dir string) *env {
	t.Helper()
	disk, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return newEnvOn(t, disk)
}

// serve puts prov behind a server of its own, closed with the test.
func serve(t *testing.T, e *env, prov *node.ProviderNode) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewServer(prov, e.sc))
	t.Cleanup(srv.Close)
	return srv
}

// reopenEnv closes e's disk-backed chain in dir — Close snapshots it at
// its head — and reopens the datadir in a fresh provider: a restarted
// node.
func reopenEnv(t *testing.T, e *env, dir string) *node.ProviderNode {
	t.Helper()
	if err := e.provider.Chain().Close(); err != nil {
		t.Fatal(err)
	}
	disk, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := node.NewProvider("rpc-reopened", wallet.NewDeterministic("miner"), envConfig(e.sc, disk), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = prov.Chain().Close() })
	return prov
}

// adoptEnv returns a fresh provider that snap-adopted e's chain at its
// head: a snap-joined node.
func adoptEnv(t *testing.T, e *env) *node.ProviderNode {
	t.Helper()
	src := e.provider.Chain()
	snap := src.SnapshotNow()
	var recs []types.BlockRecord
	for _, blk := range src.CanonicalBlocks()[1:] {
		recs = append(recs, types.BlockRecord{Block: &types.Block{Header: blk.Header}, Raw: types.EncodeBlock(blk)})
	}
	prov, err := node.NewProvider("rpc-adopted", wallet.NewDeterministic("miner"), envConfig(e.sc, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := prov.Chain().AdoptSnapshot(recs, snap.State); err != nil {
		t.Fatal(err)
	}
	return prov
}

// TestReferenceSurvivesSnapshotInstall: over AdoptSnapshot and over a
// datadir reopen from a snapshot at the head, Consumer.Lookup, the
// contract's SRA listing and /v1/sra answer as the uninterrupted chain
// does.
func TestReferenceSurvivesSnapshotInstall(t *testing.T) {
	for _, tc := range []struct {
		name    string
		install func(*testing.T, *env, string) *node.ProviderNode
	}{
		{"adopt", func(t *testing.T, e *env, _ string) *node.ProviderNode { return adoptEnv(t, e) }},
		{"reopen", reopenEnv},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e := newDiskEnv(t, dir)
			id := e.sra.ID
			src := e.provider.Chain()
			wantRef, err := node.NewConsumer(src, e.sc, 0).Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			if wantRef.Reports != 2 || wantRef.ConfirmedVulns != 1 || wantRef.BySeverity[types.SeverityHigh] != 1 {
				t.Fatalf("uninterrupted reference %+v: want 2 reports confirming one high", wantRef)
			}
			wantCount := e.sc.SRACount(src.State())
			_, wantSRA := rawGet(t, e.server.URL, "/v1/sra/"+id.String(), "")
			wantHead := src.Head().ID()

			prov := tc.install(t, e, dir)
			c := prov.Chain()
			if c.Head().ID() != wantHead {
				t.Fatalf("installed head %s, want %s", c.Head().ID().Short(), wantHead.Short())
			}
			ref, err := node.NewConsumer(c, e.sc, 0).Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, wantRef) {
				t.Errorf("Lookup = %+v, uninterrupted %+v", ref, wantRef)
			}
			if got := e.sc.SRACount(c.State()); got != wantCount || got != 1 {
				t.Errorf("SRACount = %d, uninterrupted %d", got, wantCount)
			}
			if got, ok := e.sc.SRAAt(c.State(), 0); !ok || got != id {
				t.Errorf("SRAAt(0) = %s, %v; want %s", got.Short(), ok, id.Short())
			}
			if _, body := rawGet(t, serve(t, e, prov).URL, "/v1/sra/"+id.String(), ""); !bytes.Equal(body, wantSRA) {
				t.Errorf("/v1/sra body\n got: %s\nwant: %s", body, wantSRA)
			}
		})
	}
}

// TestReopenedNodeServesIdenticalReadBodies: a node reopened from its
// datadir at the head serves the reference, SRA and SRA-listing bodies
// byte for byte as the uninterrupted node did.
func TestReopenedNodeServesIdenticalReadBodies(t *testing.T) {
	dir := t.TempDir()
	e := newDiskEnv(t, dir)
	paths := []string{
		"/v1/reference/" + e.sra.ID.String(),
		"/v1/sra/" + e.sra.ID.String(),
		"/v1/sras",
	}
	want := make([][]byte, len(paths))
	for i, path := range paths {
		_, want[i] = rawGet(t, e.server.URL, path, "")
	}
	srv := serve(t, e, reopenEnv(t, e, dir))
	for i, path := range paths {
		resp, got := rawGet(t, srv.URL, path, "")
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want[i]) {
			t.Errorf("%s: reopened node answers %d\n%s\nuninterrupted:\n%s", path, resp.StatusCode, got, want[i])
		}
	}
}

// TestReceiptBelowHorizon asks a node reopened at the head for the R*
// below its snapshot: /v1/receipt and /v1/proof answer 404 below_horizon,
// naming the horizon height, not "unknown block".
func TestReceiptBelowHorizon(t *testing.T) {
	dir := t.TempDir()
	e := newDiskEnv(t, dir)
	horizon := e.provider.Chain().Head().Header.Number
	srv := serve(t, e, reopenEnv(t, e, dir))
	for _, path := range []string{"/v1/receipt/", "/v1/proof/"} {
		resp, body := rawGet(t, srv.URL, path+e.dtxHash.String(), "")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
		eb := decodeErrBody(t, body)
		if eb.Code != CodeBelowHorizon || !strings.Contains(eb.Message, "block "+strconv.FormatUint(horizon, 10)) {
			t.Errorf("%s: %+v, want code %s naming block %d", path, eb, CodeBelowHorizon, horizon)
		}
	}
	// A node grown from genesis has no horizon: a miss is not_found.
	fresh := newEnv(t)
	resp, body := rawGet(t, fresh.server.URL, "/v1/receipt/"+types.HashBytes([]byte("nope")).String(), "")
	if eb := decodeErrBody(t, body); resp.StatusCode != http.StatusNotFound || eb.Code != CodeNotFound {
		t.Errorf("unknown tx on a genesis-grown node: %d %+v, want 404 %s", resp.StatusCode, eb, CodeNotFound)
	}
}

// TestNodeReportsHorizon: /v1/node names the height below which a node
// answers below_horizon — the snapshot a reopened node was installed
// from, 0 for a node grown from genesis.
func TestNodeReportsHorizon(t *testing.T) {
	dir := t.TempDir()
	e := newDiskEnv(t, dir)
	horizon := e.provider.Chain().Head().Header.Number
	if horizon == 0 {
		t.Fatal("fixture chain is at genesis")
	}
	check := func(name, url string, want uint64) {
		_, body := rawGet(t, url, "/v1/node", "")
		var nr NodeResponse
		if err := json.Unmarshal(body, &nr); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if nr.Horizon != want {
			t.Errorf("%s node reports horizon %d, want %d", name, nr.Horizon, want)
		}
		if bytes.Contains(body, []byte("walBytes")) {
			t.Errorf("%s node still reports walBytes: %s", name, body)
		}
	}
	check("fresh", e.server.URL, 0)
	check("reopened", serve(t, e, reopenEnv(t, e, dir)).URL, horizon)
}
