package rpc

// Opaque pagination cursors for the /v1 list endpoints.
//
// A numeric offset breaks under reorgs: it names a position in whatever
// index the *next* request happens to see, so a client walking pages
// across a head switch silently skips or repeats entries. A cursor
// instead names a position *relative to chain content*: it records the head the issuing view was pinned to, the next
// index to serve, and the identity of the last item already delivered.
// On the next request the server verifies that anchor against its
// current view — same head means the position is exact; a moved head
// triggers an O(1) anchor check and, for the SRA listing, a re-anchoring
// scan by the last delivered ID. The client never interprets the token;
// it is validated server-side on every use.
//
// The token is base64url over a fixed binary layout plus a truncated
// keccak MAC keyed with a per-process random secret. Keying matters
// beyond integrity: a stale-head cursor is allowed to fall back to an
// O(n) re-anchoring scan, so if clients could mint tokens with arbitrary
// headID/lastID they could force that worst case on every request — a
// cheap CPU-DoS amplifier. With the keyed MAC, forged or hand-edited
// tokens fail fast at decode with bad_request; only tokens this process
// actually issued reach the resolver (every decoded field is still
// range-checked against the serving view). The deliberate consequence is
// that cursors do not survive a server restart: replaying one yields
// bad_request and the client restarts pagination, which is the documented
// contract for any rejected cursor.

import (
	"bytes"
	"crypto/rand"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/crypto/keccak"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// cursorKey is the per-process MAC secret for cursor tokens.
var cursorKey = func() [16]byte {
	var k [16]byte
	if _, err := rand.Read(k[:]); err != nil {
		panic(fmt.Sprintf("rpc: cursor key: %v", err))
	}
	return k
}()

// cursorSum computes the keyed checksum over a raw cursor body.
func cursorSum(raw []byte) [cursorSumLen]byte {
	buf := make([]byte, 0, len(cursorKey)+cursorRawLen)
	buf = append(buf, cursorKey[:]...)
	buf = append(buf, raw...)
	sum := keccak.Sum256(buf)
	return [cursorSumLen]byte(sum[:cursorSumLen])
}

// Cursor kinds: a token is bound to the endpoint that issued it, so a
// /v1/sras cursor replayed against /v1/blocks is rejected instead of
// being misread as a block position.
const (
	cursorKindSRAs   = 's'
	cursorKindBlocks = 'b'
)

// cursor is the decoded resume token.
type cursor struct {
	kind byte
	// headID is the view head the cursor was minted under. If it still
	// matches, pos is exact and no anchor check is needed.
	headID types.Hash
	// pos is the next index to serve: an SRA listing position for sras
	// cursors, a block number for blocks cursors.
	pos uint64
	// lastID identifies the item just before pos (the last one the
	// client received): an SRA id or a block id. Zero when pos is 0.
	lastID types.Hash
}

const (
	cursorRawLen = 1 + types.HashSize + 8 + types.HashSize
	cursorSumLen = 8
)

var errBadCursor = errors.New("rpc: bad cursor")

// encodeCursor renders a cursor as its opaque token.
func encodeCursor(c cursor) string {
	var token [cursorTokenLen]byte
	return string(appendCursor(token[:0], c))
}

// appendCursor appends c's opaque token (cursorTokenLen bytes) to dst.
func appendCursor(dst []byte, c cursor) []byte {
	var buf [cursorRawLen + cursorSumLen]byte
	raw := append(buf[:0], c.kind)
	raw = append(raw, c.headID[:]...)
	raw = binary.BigEndian.AppendUint64(raw, c.pos)
	raw = append(raw, c.lastID[:]...)
	sum := cursorSum(raw)
	raw = append(raw, sum[:]...)
	return base64.RawURLEncoding.AppendEncode(dst, raw)
}

// decodeCursor parses and validates a token for the given endpoint kind.
func decodeCursor(token string, kind byte) (cursor, error) {
	raw, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil {
		return cursor{}, fmt.Errorf("%w: not base64url", errBadCursor)
	}
	if len(raw) != cursorRawLen+cursorSumLen {
		return cursor{}, fmt.Errorf("%w: %d bytes, want %d", errBadCursor, len(raw), cursorRawLen+cursorSumLen)
	}
	sum := cursorSum(raw[:cursorRawLen])
	if !bytes.Equal(sum[:], raw[cursorRawLen:]) {
		return cursor{}, fmt.Errorf("%w: checksum mismatch", errBadCursor)
	}
	var c cursor
	c.kind = raw[0]
	if c.kind != kind {
		return cursor{}, fmt.Errorf("%w: token from a different endpoint", errBadCursor)
	}
	copy(c.headID[:], raw[1:])
	c.pos = binary.BigEndian.Uint64(raw[1+types.HashSize:])
	copy(c.lastID[:], raw[1+types.HashSize+8:])
	return c, nil
}

// resolveSRACursor maps a decoded sras cursor to the start position in
// the contract's SRA listing in the serving view's state. Fast paths
// first: an unchanged head (or a cursor at the very start) needs no
// anchoring, and an intact anchor — the SRA just before pos still carries
// lastID — is one O(1) lookup. Only a reorg that moved the anchor pays
// for the full re-anchoring scan; if the anchor SRA is gone entirely the
// position resumes clamped, which is the best available approximation.
func resolveSRACursor(sc *contract.Contract, v *chain.ReadView, cur cursor) int {
	st := v.State()
	count := sc.SRACount(st)
	start := count
	if cur.pos < uint64(count) {
		start = int(cur.pos)
	}
	if cur.pos == 0 || cur.headID == v.HeadID() {
		return start
	}
	if id, ok := sc.SRAAt(st, start-1); ok && id == cur.lastID {
		return start
	}
	for i := 0; i < count; i++ {
		if id, _ := sc.SRAAt(st, i); id == cur.lastID {
			return i + 1
		}
	}
	return start
}

// nextSRACursor mints the resume token for the page that ended before
// listing position pos. It is always issued — on the last page it is a
// poll token: replaying it returns whatever SRAs landed since.
func nextSRACursor(sc *contract.Contract, v *chain.ReadView, pos int) string {
	last, _ := sc.SRAAt(v.State(), pos-1)
	return encodeCursor(cursor{
		kind:   cursorKindSRAs,
		headID: v.HeadID(),
		pos:    uint64(pos),
		lastID: last,
	})
}
