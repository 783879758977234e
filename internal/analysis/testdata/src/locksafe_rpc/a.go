// Fixture for locksafe's internal/rpc rule. Loaded as-if it were
// internal/rpc: read handlers must pin a chain.ReadView; every
// *chain.Chain method except CurrentView/Config takes the chain mutex
// and is flagged.
package fixrpc

import (
	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

type server struct {
	c *chain.Chain
}

// badHead reads the head through the mutex.
func (s *server) badHead() uint64 {
	return s.c.HeadNumber() // want `call to \(\*chain\.Chain\)\.HeadNumber in internal/rpc`
}

// badState forks the head state under the read lock.
func (s *server) badState(addr types.Address) types.Amount {
	return s.c.State().Balance(addr) // want `call to \(\*chain\.Chain\)\.State in internal/rpc`
}

// badReceipt resolves a receipt under the read lock.
func (s *server) badReceipt(h types.Hash) {
	_, _ = s.c.ReceiptOf(h) // want `call to \(\*chain\.Chain\)\.ReceiptOf in internal/rpc`
}

// goodView pins the lock-free snapshot: the one sanctioned entry point.
func (s *server) goodView() *chain.ReadView {
	return s.c.CurrentView()
}

// goodConfig reads construction-time configuration, immutable after New.
func (s *server) goodConfig() uint64 {
	return s.c.Config().Confirmations
}

// goodViewReads exercises the view's read surface; ReadView methods are
// lock-free by construction and never flagged.
func (s *server) goodViewReads() uint64 {
	v := s.c.CurrentView()
	_, _ = v.BlockByNumber(1)
	return v.HeadNumber()
}

// goodStorageStats reads backend counters: the store pointer is
// immutable after New and the disk stats carry their own mutex.
func (s *server) goodStorageStats() string {
	return s.c.StorageStats().Backend
}
