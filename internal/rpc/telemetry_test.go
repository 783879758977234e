package rpc

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

func TestSRAUnknownID(t *testing.T) {
	e := newEnv(t)
	ghost := types.HashBytes([]byte("no-such-sra"))
	if code := e.get("/v1/sra/"+ghost.String(), nil); code != http.StatusNotFound {
		t.Errorf("unknown SRA returned %d, want 404", code)
	}
	if code := e.get("/v1/sra/zzzz", nil); code != http.StatusBadRequest {
		t.Errorf("malformed SRA id returned %d, want 400", code)
	}
}

func TestReferenceUnknownID(t *testing.T) {
	e := newEnv(t)
	ghost := types.HashBytes([]byte("no-such-reference"))
	if code := e.get("/v1/reference/"+ghost.String(), nil); code != http.StatusNotFound {
		t.Errorf("unknown reference returned %d, want 404", code)
	}
	if code := e.get("/v1/reference/zzzz", nil); code != http.StatusBadRequest {
		t.Errorf("malformed reference id returned %d, want 400", code)
	}
}

// TestProofNonCanonicalTx submits a transaction that sits in the pool but
// is never mined: /proof must 404 (only canonical inclusion is provable),
// even though the node knows the hash.
func TestProofNonCanonicalTx(t *testing.T) {
	e := newEnv(t)
	tx := &types.Transaction{
		Kind:     types.TxTransfer,
		Nonce:    1,
		To:       types.Address{7},
		Value:    1,
		GasLimit: 21_000,
		GasPrice: 50 * types.GWei,
	}
	if err := types.SignTx(tx, e.alice); err != nil {
		t.Fatal(err)
	}
	if err := e.provider.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	if code := e.get("/v1/proof/"+tx.Hash().String(), nil); code != http.StatusNotFound {
		t.Errorf("pooled-but-unmined tx proof returned %d, want 404", code)
	}
}

// TestMetricsEndpoint checks the Prometheus surface: content type, the
// exposition grammar, and that families from every instrumented subsystem
// are present (package-level handles register at init, so even subsystems
// the test env never exercises — PoW sealing, p2p delivery — must appear
// with zero values).
func TestMetricsEndpoint(t *testing.T) {
	e := newEnv(t)
	resp, err := http.Get(e.server.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Errorf("content type %q, want %q", ct, telemetry.ContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, family := range []string{
		"smartcrowd_chain_import_total",
		"smartcrowd_txpool_admit_total",
		"smartcrowd_types_sender_cache_total",
		"smartcrowd_pow_seal_total",
		"smartcrowd_p2p_deliveries_total",
	} {
		if !strings.Contains(body, "# TYPE "+family) {
			t.Errorf("family %s missing from exposition", family)
		}
	}

	// The env mined three blocks before the server started, so chain
	// imports must have moved.
	inserted := false
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			// Comment lines must be HELP or TYPE.
			if line != "" && !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Errorf("unrecognized comment line %q", line)
			}
			continue
		}
		// Sample lines are "<series> <value>"; the value must parse.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Errorf("sample line %q has no value", line)
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Errorf("sample line %q: bad value: %v", line, err)
		}
		if strings.HasPrefix(line, `smartcrowd_chain_import_total{outcome="inserted"}`) && v > 0 {
			inserted = true
		}
	}
	if !inserted {
		t.Error("chain_import_total{outcome=inserted} did not move after mining")
	}
}

func TestPprofGatedByConfig(t *testing.T) {
	e := newEnv(t)
	// Default server (from newEnv) must not serve pprof.
	if code := e.get("/debug/pprof/cmdline", nil); code != http.StatusNotFound {
		t.Errorf("pprof served on default config: %d", code)
	}
	// An explicitly enabled server must.
	enabled := httptest.NewServer(NewServerWith(e.provider, e.sc, Config{EnablePprof: true}))
	defer enabled.Close()
	resp, err := http.Get(enabled.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline returned %d with EnablePprof", resp.StatusCode)
	}
}
