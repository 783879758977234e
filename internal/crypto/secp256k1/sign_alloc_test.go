//go:build !race

package secp256k1

import (
	"crypto/sha256"
	"math/big"
	"testing"
)

// TestSignAllocationBudget pins what one Sign allocates: the HMAC states
// of its RFC 6979 nonce, four keys' worth for a first candidate that
// passes (the math/big Sign made 83 allocations). The race detector's
// instrumentation adds allocations of its own, hence the build tag.
func TestSignAllocationBudget(t *testing.T) {
	key := keyOf(big.NewInt(0xA110C))
	digest := sha256.Sum256([]byte("allocations"))
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := key.Sign(digest[:]); err != nil {
			t.Fatal(err)
		}
	}); allocs > 33 {
		t.Errorf("Sign allocates %.0f times per call, want at most 33", allocs)
	}
}
