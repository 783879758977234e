// State snapshots: a deterministic, self-delimiting serialization of a
// DB's accounts, used by the durable chain store (periodic on-disk
// snapshots) and by snap-sync (streaming a recent state to a joining
// peer). The format commits to nothing the state root does not:
// restoring a snapshot and calling Root() rebuilds and sums the trie
// from scratch, so a snapshot is verified by comparing that recomputed
// root against the root recorded in the block header it claims to
// represent — a tampered or truncated blob cannot produce a matching
// root.
//
// Layout (all integers big-endian):
//
//	magic   [4]byte  "SCS1"
//	version uint8    format version (1)
//	count   uint64   number of accounts
//	count × account records, in ascending address order:
//	  addr    [20]byte
//	  balance uint64
//	  nonce   uint64
//	  codeLen uint32   always 0: no account holds code
//	  slots   uint32, slots × (key [32]byte, value [32]byte) ascending
package state

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/smartcrowd/smartcrowd/internal/critbit"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// snapshotMagic identifies a serialized state snapshot.
var snapshotMagic = [4]byte{'S', 'C', 'S', '1'}

// SnapshotVersion is the current snapshot format version.
const SnapshotVersion = 1

// Snapshot codec errors.
var (
	ErrSnapshotMagic     = errors.New("state: bad snapshot magic")
	ErrSnapshotVersion   = errors.New("state: unsupported snapshot version")
	ErrSnapshotTruncated = errors.New("state: truncated snapshot")
	ErrSnapshotOrder     = errors.New("state: snapshot records out of order")
	ErrSnapshotTrailing  = errors.New("state: trailing bytes after snapshot")
	// errSnapshotCode refuses a record with code: no account holds any, so
	// a non-zero codeLen is a blob from a build that still ran bytecode.
	errSnapshotCode = errors.New("state: snapshot account holds code")
)

// Serialize encodes the DB's accounts into the canonical snapshot format.
// Two DBs with the same logical state serialize to identical bytes (the
// account and storage tries walk in key order), so snapshot equality is
// state equality. The DB is only read.
func (db *DB) Serialize() []byte {
	count, size := uint64(0), 4+1+8
	critbit.Walk(db.root, func(_ critbit.Key, acc *account) {
		count++
		size += wallet.AddressSize + 8 + 8 + 4 + 4 + int(acc.slots)*(2*types.HashSize)
	})
	out := make([]byte, 0, size)
	out = append(out, snapshotMagic[:]...)
	out = append(out, SnapshotVersion)
	out = binary.BigEndian.AppendUint64(out, count)
	critbit.Walk(db.root, func(k critbit.Key, acc *account) {
		out = append(out, k[:wallet.AddressSize]...)
		out = binary.BigEndian.AppendUint64(out, uint64(acc.balance))
		out = binary.BigEndian.AppendUint64(out, acc.nonce)
		out = binary.BigEndian.AppendUint32(out, 0) // codeLen
		out = binary.BigEndian.AppendUint32(out, acc.slots)
		critbit.Walk(acc.storage, func(k critbit.Key, v types.Hash) {
			out = append(out, k[:]...)
			out = append(out, v[:]...)
		})
	})
	return out
}

// Restore decodes a snapshot into a fresh DB. Every length is validated
// against the remaining input before it is consumed, so a hostile blob
// cannot force a large allocation or an out-of-bounds read; record order
// is enforced so the canonical encoding is the only accepted one.
// Restore does NOT verify the state against any root — callers compare
// the restored DB's Root() with the root they expect (a block header's
// StateRoot) before trusting it. Both tries are built under the DB's one
// write generation, so each insertion rewrites the branches the ones
// before it made instead of copying them.
func Restore(blob []byte) (*DB, error) {
	r := snapReader{buf: blob}
	magicBytes, err := r.take(4)
	if err != nil {
		return nil, err
	}
	if [4]byte(magicBytes) != snapshotMagic {
		return nil, ErrSnapshotMagic
	}
	ver, err := r.u8()
	if err != nil {
		return nil, err
	}
	if ver != SnapshotVersion {
		return nil, fmt.Errorf("%w: %d", ErrSnapshotVersion, ver)
	}
	count, err := r.u64()
	if err != nil {
		return nil, err
	}
	// Each account record is at least addr+balance+nonce+codeLen+slots
	// bytes; a declared count beyond that is lying about the input.
	minRecord := uint64(wallet.AddressSize + 8 + 8 + 4 + 4)
	if count > uint64(len(r.buf)-r.off)/minRecord {
		return nil, fmt.Errorf("%w: %d accounts declared in %d bytes", ErrSnapshotTruncated, count, len(blob))
	}
	db := New()
	var prevAddr types.Address
	for i := uint64(0); i < count; i++ {
		addrBytes, err := r.take(wallet.AddressSize)
		if err != nil {
			return nil, err
		}
		var addr types.Address
		copy(addr[:], addrBytes)
		if i > 0 && bytes.Compare(prevAddr[:], addr[:]) >= 0 {
			return nil, fmt.Errorf("%w: account %d", ErrSnapshotOrder, i)
		}
		prevAddr = addr
		balance, err := r.u64()
		if err != nil {
			return nil, err
		}
		nonce, err := r.u64()
		if err != nil {
			return nil, err
		}
		codeLen, err := r.u32()
		if err != nil {
			return nil, err
		}
		if codeLen != 0 {
			return nil, fmt.Errorf("%w: account %d declares %d bytes of code", errSnapshotCode, i, codeLen)
		}
		slots, err := r.u32()
		if err != nil {
			return nil, err
		}
		if uint64(slots) > uint64(len(r.buf)-r.off)/(2*types.HashSize) {
			return nil, fmt.Errorf("%w: %d slots declared for account %d", ErrSnapshotTruncated, slots, i)
		}
		acc := account{balance: types.Amount(balance), nonce: nonce, slots: slots}
		var prevKey types.Hash
		for s := uint32(0); s < slots; s++ {
			kv, err := r.take(2 * types.HashSize)
			if err != nil {
				return nil, err
			}
			var k, v types.Hash
			copy(k[:], kv[:types.HashSize])
			copy(v[:], kv[types.HashSize:])
			if s > 0 && bytes.Compare(prevKey[:], k[:]) >= 0 {
				return nil, fmt.Errorf("%w: storage slot %d of account %d", ErrSnapshotOrder, s, i)
			}
			if v.IsZero() {
				return nil, fmt.Errorf("%w: zero-valued storage slot in account %d", ErrSnapshotOrder, i)
			}
			prevKey = k
			acc.storage = critbit.Set(acc.storage, k, v, db.writeGen())
		}
		if acc.empty() {
			return nil, fmt.Errorf("%w: empty account record %d", ErrSnapshotOrder, i)
		}
		db.put(addr, acc)
	}
	if r.off != len(blob) {
		return nil, fmt.Errorf("%w: %d bytes", ErrSnapshotTrailing, len(blob)-r.off)
	}
	return db, nil
}

// snapReader is a bounds-checked cursor over a snapshot blob.
type snapReader struct {
	buf []byte
	off int
}

func (r *snapReader) take(n int) ([]byte, error) {
	if n < 0 || len(r.buf)-r.off < n {
		return nil, fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrSnapshotTruncated, n, r.off, len(r.buf))
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *snapReader) u8() (byte, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *snapReader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (r *snapReader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}
