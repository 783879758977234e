package rpc

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/detection"
	"github.com/smartcrowd/smartcrowd/internal/node"
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/store"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// TestRestartUnderConcurrentRPC proves the durability layer and the
// lock-free read path compose: while HTTP readers hammer a real server,
// the disk-backed chain underneath is closed and its datadir reopened by
// a second chain (the "restarted process"). Pinned ReadViews never touch
// storage, so every in-flight and subsequent read keeps answering from
// the published snapshot — no error, no torn page — and the reopened
// chain recovers the byte-identical head. Run it under -race: the value
// of the test is the interleaving, not the assertions alone.
func TestRestartUnderConcurrentRPC(t *testing.T) {
	dir := t.TempDir()
	sc := contract.New(contract.DefaultParams(), detection.NewGroundTruthVerifier(false))
	disk, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chain.DefaultConfig(sc)
	cfg.Rule = pow.Sampled
	cfg.Storage = disk
	cfg.SnapshotInterval = 8
	prov, err := node.NewProvider("restart-rpc", wallet.NewDeterministic("miner"), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(prov, sc))
	defer srv.Close()

	for i := 0; i < 20; i++ {
		head := prov.Chain().Head()
		if _, err := prov.SealAndPublish(pow.AsBuilt{}, head.Header.Time+15_000, 1000, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	wantHead := prov.Chain().Head().ID()

	paths := []string{
		"/v1/status",
		"/v1/blocks?from=0",
		"/v1/sras",
		"/v1/health",
		"/v1/node",
		"/v1/block/5",
	}
	stop := make(chan struct{})
	errCh := make(chan error, 8)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			client := srv.Client()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				path := paths[(seed+n)%len(paths)]
				resp, err := client.Get(srv.URL + path)
				if err != nil {
					errCh <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errCh <- fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
					return
				}
			}
		}(i)
	}

	// Phase 1: close the chain (final snapshot, files released) while the
	// read storm is live.
	time.Sleep(50 * time.Millisecond)
	if err := prov.Chain().Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: still mid-storm, "restart": reopen the same datadir in a
	// fresh chain and check it recovered the exact head the readers are
	// being served from.
	time.Sleep(50 * time.Millisecond)
	disk2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := chain.DefaultConfig(sc)
	cfg2.Rule = pow.Sampled
	cfg2.Storage = disk2
	cfg2.SnapshotInterval = 8
	reopened, err := chain.New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.Head().ID(); got != wantHead {
		t.Fatalf("reopened head %s, want %s", got.Short(), wantHead.Short())
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("read failed during restart: %v", err)
	default:
	}

	// The original server still answers from its pinned views.
	var st StatusResponse
	resp, err := srv.Client().Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("post-close status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.HeadNumber != 20 {
		t.Fatalf("post-close head %d, want 20", st.HeadNumber)
	}
}
