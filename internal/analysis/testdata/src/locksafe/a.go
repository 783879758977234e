// Fixture for the locksafe pass. Loaded as-if it were internal/chain:
// no ECDSA recovery or keccak hashing inside mutex critical sections.
package fixlock

import (
	"sync"

	"github.com/smartcrowd/smartcrowd/internal/crypto/keccak"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

type store struct {
	mu     sync.Mutex
	rw     sync.RWMutex
	byHash map[[32]byte][]byte
}

// badHashUnderLock hashes inside the critical section.
func (s *store) badHashUnderLock(data []byte) {
	s.mu.Lock()
	h := keccak.Sum256(data) // want `call to keccak\.Sum256 inside a mutex critical section`
	s.byHash[h] = data
	s.mu.Unlock()
}

// badDeferRecover: a deferred Unlock keeps the region open to the end of
// the function, so the batch recovery below is under the lock.
func (s *store) badDeferRecover(txs []*types.Transaction) {
	s.mu.Lock()
	defer s.mu.Unlock()
	types.RecoverSenders(txs) // want `call to types\.RecoverSenders inside a mutex critical section`
}

// badSenderUnderRLock: read locks are critical sections too.
func (s *store) badSenderUnderRLock(tx *types.Transaction) {
	s.rw.RLock()
	_, _ = tx.Sender() // want `call to \(\*types\.Transaction\)\.Sender inside a mutex critical section`
	s.rw.RUnlock()
}

// goodHoisted does the crypto before taking the lock; no finding.
func (s *store) goodHoisted(data []byte) {
	h := keccak.Sum256(data)
	s.mu.Lock()
	s.byHash[h] = data
	s.mu.Unlock()
}

// goodAfterUnlock hashes after releasing; no finding.
func (s *store) goodAfterUnlock(data []byte) [32]byte {
	s.mu.Lock()
	n := len(s.byHash)
	s.mu.Unlock()
	_ = n
	return keccak.Sum256(data)
}

// goodGoroutine: the spawned goroutine runs outside the lexical critical
// section; no finding.
func (s *store) goodGoroutine(data []byte, out chan<- [32]byte) {
	s.mu.Lock()
	go func() {
		out <- keccak.Sum256(data)
	}()
	s.mu.Unlock()
}
