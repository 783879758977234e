package node

import (
	"errors"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/detection"
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// abortSealer gives up at once, like a CPUSealer whose stop channel closed.
type abortSealer struct{}

func (abortSealer) Seal(types.Header, <-chan struct{}) (types.Header, error) {
	return types.Header{}, pow.ErrSealAborted
}

// TestAbortedSealEndsItsTrace: a seal the sealer aborts still ends its
// block.seal root span, labelled outcome=aborted, so /debug/traces shows
// the build and the search under their root instead of under none.
func TestAbortedSealEndsItsTrace(t *testing.T) {
	const id = "seal-abort"
	cfg := chain.DefaultConfig(contract.New(contract.DefaultParams(), detection.NewGroundTruthVerifier(false)))
	cfg.SkipPoWCheck = true
	p, err := NewProvider(id, wallet.NewDeterministic(id), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SealAndPublish(abortSealer{}, 15_350, 1000, 0, nil); !errors.Is(err, pow.ErrSealAborted) {
		t.Fatalf("SealAndPublish = %v, want ErrSealAborted", err)
	}
	if n := p.Chain().HeadNumber(); n != 0 {
		t.Fatalf("an aborted seal moved the head to %d", n)
	}

	var trace telemetry.TraceRecord
	for _, tr := range telemetry.RecentTraces(0) {
		for _, s := range tr.Spans {
			if s.Name == "pow.seal" && s.Labels["node"] == id {
				trace = tr
			}
		}
	}
	if trace.ID == "" {
		t.Fatal("no trace holds the aborted pow.seal span")
	}
	ids := make(map[string]bool, len(trace.Spans))
	for _, s := range trace.Spans {
		ids[s.SpanID] = true
	}
	var root *telemetry.SpanRecord
	for i, s := range trace.Spans {
		if s.ParentID != "" && !ids[s.ParentID] {
			t.Errorf("span %s has no parent in its trace", s.Name)
		}
		if s.Name == "block.seal" {
			root = &trace.Spans[i]
		}
	}
	if root == nil {
		t.Fatalf("trace of %d spans holds no block.seal root", len(trace.Spans))
	}
	if got := root.Labels["outcome"]; got != "aborted" {
		t.Errorf("block.seal outcome = %q, want aborted", got)
	}
}
