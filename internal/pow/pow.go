// Package pow implements SmartCrowd's proof-of-work consensus engine
// (paper §V-C): IoT providers search for a Nonce that drives the block hash
// below the difficulty target, and the provider who finds it records the
// pending detection results and earns the block reward (Eq. 8).
//
// Three sealers share one interface, and a node seals every block through
// it (node.ProviderNode.SealAndPublish):
//
//   - CPUSealer performs the real nonce search (used by the feasibility
//     benchmarks and the live testnet CLI);
//   - SimSealer (lottery.go) samples the *outcome* of the search — winner ∝
//     hashing power, interarrival ~ exponential — so the experiment harness
//     can reproduce the paper's multi-hour figures in seconds;
//   - AsBuilt returns the header unchanged, for chains under Sampled
//     (core.Platform, and tests that pin nonce 0).
//
// Rule (rule.go) is the other side: what a valid header is.
package pow

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// ErrSealAborted is returned when a seal attempt is cancelled before a
// valid nonce is found.
var ErrSealAborted = errors.New("pow: seal aborted")

// Sealer searches for a proof-of-work nonce for a block header.
type Sealer interface {
	// Seal mutates hdr.Nonce until hdr meets its difficulty, or aborts
	// when stop is closed. The returned header is fully sealed.
	Seal(hdr types.Header, stop <-chan struct{}) (types.Header, error)
}

// AsBuilt is the sealer for chains under Sampled, which holds no nonce
// to its difficulty: it returns the header as built, nonce and all.
type AsBuilt struct{}

var _ Sealer = AsBuilt{}

// Seal implements Sealer without searching.
func (AsBuilt) Seal(hdr types.Header, _ <-chan struct{}) (types.Header, error) { return hdr, nil }

// CPUSealer performs a parallel brute-force nonce search. The zero value
// uses all CPUs; set Threads to bound parallelism (the paper pins
// miner.start() thread counts to emulate hashing-power shares).
type CPUSealer struct {
	// Threads is the number of worker goroutines; 0 means GOMAXPROCS.
	Threads int
}

var _ Sealer = (*CPUSealer)(nil)

// Seal implements Sealer by exhaustively searching the nonce space in
// disjoint strides, one per thread.
func (s *CPUSealer) Seal(hdr types.Header, stop <-chan struct{}) (types.Header, error) {
	threads := s.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}

	var (
		found    atomic.Bool
		result   types.Header
		mu       sync.Mutex
		wg       sync.WaitGroup
		attempts atomic.Uint64
	)
	sealStart := nowNanos()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(start uint64) {
			defer wg.Done()
			h := hdr
			tried := uint64(0)
			// Workers count attempts locally and publish once at exit so
			// the search loop stays free of shared atomics.
			defer func() { attempts.Add(tried) }()
			for nonce := start; ; nonce += uint64(threads) {
				if found.Load() {
					return
				}
				// Poll the stop channel periodically, not per hash.
				if nonce%1024 == start%1024 {
					select {
					case <-stop:
						return
					default:
					}
				}
				h.Nonce = nonce
				tried++
				if h.MeetsPoW() {
					if found.CompareAndSwap(false, true) {
						mu.Lock()
						result = h
						mu.Unlock()
					}
					return
				}
			}
		}(uint64(t))
	}
	wg.Wait()
	elapsed := nowNanos() - sealStart
	tried := attempts.Load()
	mSealAttempts.Observe(tried)
	mSealNs.ObserveDuration(time.Duration(elapsed))
	if elapsed > 0 {
		mHashRate.Set(int64(float64(tried) / (float64(elapsed) / 1e9)))
	}
	if !found.Load() {
		mSealAborted.Inc()
		return types.Header{}, ErrSealAborted
	}
	mSealSealed.Inc()
	mu.Lock()
	defer mu.Unlock()
	return result, nil
}

// HashRate estimates this machine's header-hash throughput (hashes/second)
// by timing a fixed batch. Used to calibrate live-testnet difficulty.
func HashRate(samples int) float64 {
	if samples <= 0 {
		samples = 50_000
	}
	hdr := types.Header{Number: 1, Difficulty: 1<<64 - 1} // unreachable target
	start := nowNanos()
	for i := 0; i < samples; i++ {
		hdr.Nonce = uint64(i)
		_ = hdr.ID()
	}
	elapsed := nowNanos() - start
	if elapsed <= 0 {
		return 0
	}
	return float64(samples) / (float64(elapsed) / 1e9)
}
