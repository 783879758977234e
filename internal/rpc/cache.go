package rpc

import (
	"encoding/hex"
	"sync"
	"sync/atomic"

	"github.com/smartcrowd/smartcrowd/internal/crypto/keccak"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// respCache is the read-through response cache over the lock-free view
// path. It stores fully encoded JSON bodies in two tiers:
//
//   - finalized: objects whose bytes can never change because their key
//     embeds the identity of a block ≥ K deep (a block summary keyed by
//     block id, a tx proof keyed by block id + tx hash). Content
//     addressing makes the tier reorg-safe by construction — a fork
//     switch changes which keys get asked for, never what a key means —
//     so entries live until capacity rotation evicts them.
//
//   - head: answers that depend on the current head (/v1/status,
//     balances, receipts with live confirmation counts, SRA pages).
//     One generation per head id; the first request after a snapshot
//     swap CASes in a fresh generation, invalidating the whole previous
//     one wholesale. Within a generation every answer is immutable
//     because the underlying ReadView is.
//
// Both tiers collapse concurrent misses for one key onto a single build
// (singleflight): losers block on the winner's ready channel and serve
// its bytes. Lookups are lock-free (atomic generation pointers +
// sync.Map); the only mutex guards finalized-tier rotation.
type respCache struct {
	gen atomic.Pointer[headGen]

	// Finalized tier: two rotating generations bound total residency to
	// ~2×permGenCap entries without per-entry bookkeeping. Inserts go to
	// cur; when cur fills, cur shifts to old and the previous old is
	// dropped. Hits in old promote back into cur.
	permMu  sync.Mutex
	permCur atomic.Pointer[permGen]
	permOld atomic.Pointer[permGen]
}

// permGenCap bounds one cache generation — each finalized-tier
// generation and the head generation alike. At ~1 KiB per encoded body
// the three live generations hold roughly 12 MiB.
const permGenCap = 4096

// headGen is the head-keyed generation: every entry was computed against
// the ReadView whose head id names the generation. It is discarded only
// when the head moves, and its keys are client-chosen (any address, any
// hash), so on a stalled head it must bound itself: once it holds
// permGenCap entries, further misses are served uncached.
type headGen struct {
	headID  types.Hash
	count   atomic.Int64
	entries sync.Map // string → *cacheEntry
}

// permGen is one finalized-tier generation.
type permGen struct {
	count   atomic.Int64
	entries sync.Map // string → *cacheEntry
}

// cacheEntry is one encoded response. ready closes once status/body/etag
// are final; a zero status after ready means the build died (panicked)
// and waiters must build for themselves, uncached.
type cacheEntry struct {
	ready  chan struct{}
	status int
	body   []byte
	etag   string
}

func newRespCache() *respCache {
	c := &respCache{}
	c.permCur.Store(&permGen{})
	c.permOld.Store(&permGen{})
	return c
}

// etagFor derives the strong validator for a response body.
func etagFor(body []byte) string {
	sum := keccak.Sum256(body)
	return `"` + hex.EncodeToString(sum[:8]) + `"`
}

// generation returns the head-keyed generation for headID, swapping in a
// fresh one — and discarding the stale generation wholesale — when the
// published view has moved on.
func (c *respCache) generation(headID types.Hash) *headGen {
	for {
		g := c.gen.Load()
		if g != nil && g.headID == headID {
			return g
		}
		ng := &headGen{headID: headID}
		if c.gen.CompareAndSwap(g, ng) {
			if g != nil {
				mCacheEvict.Add(uint64(g.count.Load()))
			}
			return ng
		}
	}
}

// headGetOrBuild serves key from the generation pinned to the given
// head. It returns nil when key is absent and the generation is full:
// the caller builds and answers uncached. The cap is soft by the number
// of requests racing between the check and their insert.
func (c *respCache) headGetOrBuild(headID types.Hash, key string, build func() (int, []byte)) *cacheEntry {
	g := c.generation(headID)
	if v, ok := g.entries.Load(key); ok {
		e := v.(*cacheEntry)
		<-e.ready
		mCacheHitHead.Inc()
		return e
	}
	if g.count.Load() >= permGenCap {
		return nil
	}
	e, hit := getOrBuildKeyed(&g.entries, &g.count, key, build)
	if hit {
		mCacheHitHead.Inc()
	} else {
		mCacheMissHead.Inc()
	}
	return e
}

// permGetOrBuild serves a content-addressed key from the finalized tier.
func (c *respCache) permGetOrBuild(key string, build func() (int, []byte)) *cacheEntry {
	cur := c.permCur.Load()
	if v, ok := cur.entries.Load(key); ok {
		e := v.(*cacheEntry)
		<-e.ready
		mCacheHitPerm.Inc()
		return e
	}
	if v, ok := c.permOld.Load().entries.Load(key); ok {
		e := v.(*cacheEntry)
		<-e.ready
		// Promote: hot finalized objects survive the next rotation.
		if _, already := cur.entries.LoadOrStore(key, e); !already {
			cur.count.Add(1)
		}
		mCacheHitPerm.Inc()
		return e
	}
	e, hit := getOrBuildKeyed(&cur.entries, &cur.count, key, build)
	if hit {
		mCacheHitPerm.Inc()
		return e
	}
	mCacheMissPerm.Inc()
	c.maybeRotate()
	return e
}

// maybeRotate shifts a full finalized generation down, dropping the
// oldest one. Lookups racing a rotation stay correct: an entry is always
// reachable through cur or old until the generation holding it is
// discarded, and a discarded entry just costs a rebuild.
func (c *respCache) maybeRotate() {
	if c.permCur.Load().count.Load() < permGenCap {
		return
	}
	c.permMu.Lock()
	defer c.permMu.Unlock()
	cur := c.permCur.Load()
	if cur.count.Load() < permGenCap {
		return // lost the race to another rotator
	}
	dropped := c.permOld.Load()
	c.permOld.Store(cur)
	c.permCur.Store(&permGen{})
	mCacheEvict.Add(uint64(dropped.count.Load()))
}

// getOrBuildKeyed is the singleflight core shared by both tiers: return
// key's entry from m, or install a pending entry and build it. The
// returned entry is always ready.
func getOrBuildKeyed(m *sync.Map, count *atomic.Int64, key string, build func() (int, []byte)) (e *cacheEntry, hit bool) {
	fresh := &cacheEntry{ready: make(chan struct{})}
	actual, loaded := m.LoadOrStore(key, fresh)
	if loaded {
		e = actual.(*cacheEntry)
		<-e.ready
		return e, true
	}
	// We won the build; the entry counts from the moment it occupies the
	// map. If build panics, the deferred close publishes the zero status
	// ("not cached, build yourself") and the entry is removed so a later
	// request retries.
	count.Add(1)
	done := false
	defer func() {
		if !done {
			m.Delete(key)
			count.Add(-1)
		}
		close(fresh.ready)
	}()
	status, body := build()
	fresh.status, fresh.body = status, body
	fresh.etag = etagFor(body)
	done = true
	return fresh, false
}
