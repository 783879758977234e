//go:build !race

package pow

import (
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// TestRuleAllocatesNothing: a header that passes costs its rule's Seal and
// Link no allocation, under every rule — stage 1 of import calls them on
// every block.
func TestRuleAllocatesNothing(t *testing.T) {
	retarget := Rule{Retarget: DifficultyConfig{TargetBlockTime: 15, BoundDivisor: 64, Minimum: 32}}
	parent := types.Header{Number: 1, Time: 15_000, Difficulty: 32}
	h := types.Header{ParentID: parent.ID(), Number: 2, Time: 30_000, Difficulty: retarget.Next(&parent, 30_000)}
	for !h.MeetsPoW() {
		h.Nonce++
	}
	for name, rule := range map[string]Rule{"Declared": Declared, "Sampled": Sampled, "Retarget": retarget} {
		n := testing.AllocsPerRun(100, func() {
			if rule.Seal(&h) != nil || rule.Link(&parent, &h) != nil {
				t.Fatalf("%s refused the header", name)
			}
		})
		if n != 0 {
			t.Errorf("%s: Seal and Link made %v allocations, want 0", name, n)
		}
	}
}
