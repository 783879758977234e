// Package store is the disk backend behind chain.Storage: one append-only
// block log that carries its own commit records, and an atomically
// replaced state snapshot, under one datadir. The design goal is boring
// recoverability — every record carries a CRC, and open scans the log
// forward to its last whole commit.
//
// Datadir layout:
//
//	meta        identifies the chain: magic "SCM1", format version, the
//	            genesis block id, CRC. Opening a datadir whose meta names
//	            a different genesis fails — a datadir belongs to one chain.
//	blocks.log  block records — u32 payload length, the types.EncodeBlock
//	            payload, CRC-32C of the payload — each commit's followed by
//	            its commit record: a zero length, u32 record count, the
//	            32-byte fork-choice head id, u64 head number, and CRC-32C
//	            over the run's record CRCs and the commit record before it.
//	            Every block ever imported (canonical or side fork), in
//	            insertion order; parents always precede children.
//	snapshot    "SCP1", u64 height, 32-byte block id, 32-byte state root,
//	            u64 blob length, the state.Serialize blob, CRC-32C of
//	            everything prior. Replaced via write-temp + fsync + rename
//	            + directory fsync, so a crash mid-write leaves the previous
//	            snapshot intact. A fresh datadir's directory is fsynced
//	            too, once Load has created meta, before the first commit.
//
// All IO goes through one seam, a file for the log and an fsys for the
// datadir: Open binds the operating system's, and tests a fault
// filesystem that fails, cuts short, stalls or kills any write or sync.
//
// Open (Load) streams the log through the Disk's write buffer and hands
// each committed block back as its header and where its record sits;
// the bytes stay in the log, and ReadRecord reads one back, checked
// against the CRC open checked it against, when something asks.
//
// Commit protocol (AppendRecords, which AppendBlocks calls): the records
// and the commit record go out through the Disk's write buffer, then one
// fsync — per imported block, InsertChain run or adopted snapshot prefix.
// A commit starts only after the one before it was synced, so only the
// last can be torn: open keeps every commit whose records all check and
// truncates the rest, and the chain re-imports lost blocks from the
// network. A failed record inside a commit that a later valid commit
// follows is damage, not a crash, and open fails loudly rather than
// serve a chain with holes.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// File names inside a datadir.
const (
	metaName = "meta"
	logName  = "blocks.log"
	snapName = "snapshot"
	snapTemp = snapName + ".tmp" // a snapshot save's file until its rename
)

// Record geometry.
const (
	// metaSize is magic[4] + version[1] + genesis[32] + crc[4].
	metaSize = 4 + 1 + types.HashSize + 4
	// logHeaderSize is the per-record length prefix; logTrailerSize the CRC.
	logHeaderSize  = 4
	logTrailerSize = 4
	// commitSize is a commit record: zero length[4] + count[4] + head[32]
	// + number[8] + crc[4].
	commitSize = logHeaderSize + 4 + types.HashSize + 8 + logTrailerSize
	// maxLogRecord bounds a block record so a corrupt length prefix cannot
	// force a giant allocation during the open scan. Blocks are wire
	// objects capped at 8 MiB; 64 MiB is unreachable headroom.
	maxLogRecord = 64 << 20
	// writeBufSize is the Disk's write buffer: a commit is laid out in it
	// and written whenever the next record would not fit.
	writeBufSize = 64 << 10
	// formatVersion is the on-disk format version stamped into meta.
	// Earlier versions are refused rather than misread: a version-1 log
	// may hold a retired contract-creation transaction below its
	// snapshot, versions 2 and 3 commit to an older account digest or
	// contract storage layout, and a version-4 datadir keeps its heads in
	// a separate wal file.
	formatVersion = 5
)

var (
	metaMagic = [4]byte{'S', 'C', 'M', '1'}
	snapMagic = [4]byte{'S', 'C', 'P', '1'}
)

// Store errors.
var (
	ErrForeignDatadir = errors.New("store: datadir belongs to a different chain")
	ErrBadMeta        = errors.New("store: corrupt meta file")
	ErrCorrupt        = errors.New("store: datadir corrupt beyond recovery")
	ErrClosed         = errors.New("store: closed")
	// ErrFailed reports a store latched fail-stop after a mid-commit IO
	// error. The datadir itself stays recoverable (reopen runs the normal
	// crash recovery); only this handle refuses further commits, so a
	// half-written commit can never be followed by a valid one, which the
	// next open would read as damage inside an acknowledged commit.
	ErrFailed = errors.New("store: disabled after mid-commit write error")
)

// crcTable is CRC-32C (Castagnoli), hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Disk implements chain.Storage over a datadir. Safe for concurrent use;
// commits are serialized by the store mutex (the chain already
// serializes them under its write lock), snapshot writes take their own,
// and a record read (ReadRecord) takes none.
type Disk struct {
	dir string
	fs  fsys

	mu      sync.Mutex
	logF    file
	logSize int64
	blocks  uint64 // committed block records
	// buf is the commit write buffer, writeBufSize, owned for life; Load
	// streams the log through it, before any commit can use it.
	buf       []byte
	closed    atomic.Bool // set under mu; read by ReadRecord without it
	failed    bool        // fail-stop latch: see ErrFailed
	recovered bool

	snapMu     sync.Mutex
	snapHeight atomic.Uint64
	snapBytes  atomic.Int64
}

// file is the block log as the Disk uses it; *os.File is one. The log is
// opened O_APPEND, so every Write lands at its end, after a Truncate too.
type file interface {
	io.Writer
	io.ReaderAt
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
	Close() error
}

// fsys is the datadir as the Disk uses it; osFS is the operating system's.
type fsys interface {
	OpenFile(name string, flag int, perm os.FileMode) (file, error)
	ReadFile(name string) ([]byte, error)
	Rename(from, to string) error
	Remove(name string) error
	SyncDir(dir string) error
}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) Rename(from, to string) error         { return os.Rename(from, to) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) SyncDir(dir string) error             { return syncDir(dir) }

// Disk must satisfy the chain's storage contract, and it reads back the
// records Load hands out.
var (
	_ chain.Storage   = (*Disk)(nil)
	_ types.RecordLog = (*Disk)(nil)
)

// Open creates or opens a datadir. No recovery happens here — Load does
// the scanning, so a chain.New with this backend performs exactly one
// recovery pass.
func Open(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create datadir: %w", err)
	}
	return openWith(dir, osFS{})
}

// openWith opens the block log of an existing datadir through fs.
func openWith(dir string, fs fsys) (*Disk, error) {
	f, err := fs.OpenFile(filepath.Join(dir, logName), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open block log: %w", err)
	}
	return &Disk{dir: dir, fs: fs, logF: f, buf: make([]byte, 0, writeBufSize)}, nil
}

// Load recovers the committed chain: verify/initialize meta, scan the log
// to its last whole commit, truncate any torn tail, check that every
// committed block decodes, remove a snapshot temp file a crash left and
// read the snapshot. The log is streamed through the commit buffer, idle
// until open returns, so open holds that window of the log and no more (a
// record larger than the window is read into a buffer of its own). A
// block comes back as a header-only types.Block and a types.StoredRecord
// naming this Disk and where its record sits: the bytes stay in the log,
// and ReadRecord reads them when something asks. See the package comment
// for the invariants.
func (d *Disk) Load(genesis types.Hash) (*chain.StoredChain, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		return nil, ErrClosed
	}
	if err := d.checkMeta(genesis); err != nil {
		return nil, err
	}

	info, err := d.logF.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: read log: %w", err)
	}
	r := &logReader{f: d.logF, win: d.buf[:writeBufSize]}
	scan, err := scanLog(r, info.Size())
	if err != nil {
		return nil, err
	}
	if scan.end != info.Size() {
		if err := d.logF.Truncate(scan.end); err != nil {
			return nil, fmt.Errorf("store: truncate log: %w", err)
		}
		if err := d.logF.Sync(); err != nil {
			return nil, err
		}
		d.recovered = true
	}
	d.logSize, d.blocks = scan.end, uint64(len(scan.recs))

	// A second pass over the kept records reads each header; sized by the
	// first, it allocates its arrays once.
	heads := make([]types.Block, len(scan.recs))
	blocks := make([]types.BlockRecord, len(scan.recs))
	for i := range scan.recs {
		rec := &scan.recs[i]
		payload, err := r.at(rec.Off, int(rec.Len))
		if err != nil {
			return nil, fmt.Errorf("store: read log: %w", err)
		}
		if heads[i].Header, err = types.DecodeHeader(payload); err != nil {
			return nil, fmt.Errorf("%w: committed block %d does not decode: %v", ErrCorrupt, i, err)
		}
		rec.Log = d
		blocks[i] = types.BlockRecord{Block: &heads[i], Stored: rec}
	}

	if err := d.removeTemp(); err != nil {
		return nil, err
	}
	sc := &chain.StoredChain{Blocks: blocks, HeadID: scan.headID, HeadNumber: scan.headNumber}
	sc.Snapshot, _ = d.readSnapshot()
	return sc, nil
}

// ReadRecord reads back a block record Load handed out: one ReadAt of its
// bytes into dst's spare capacity, checked against the CRC the open scan
// checked them against, so bytes changed on disk since fail with
// ErrCorrupt rather than be returned. It takes no lock: committed bytes
// never change, a commit only writes past them, and a read does not wait
// for a commit's fsync. After Close it fails with ErrClosed.
func (d *Disk) ReadRecord(dst []byte, rec *types.StoredRecord) ([]byte, error) {
	if d.closed.Load() {
		return dst, ErrClosed
	}
	n := len(dst)
	dst = slices.Grow(dst, int(rec.Len))
	buf := dst[n : n+int(rec.Len)]
	if _, err := d.logF.ReadAt(buf, rec.Off); err != nil {
		switch {
		case errors.Is(err, os.ErrClosed):
			err = ErrClosed
		case errors.Is(err, io.EOF):
			err = fmt.Errorf("%w: log record at offset %d is cut short", ErrCorrupt, rec.Off)
		default:
			err = fmt.Errorf("store: read log: %w", err)
		}
		return dst[:n], err
	}
	if crc32.Checksum(buf, crcTable) != rec.Sum {
		return dst[:n], fmt.Errorf("%w: log record at offset %d changed since open", ErrCorrupt, rec.Off)
	}
	return dst[:n+int(rec.Len)], nil
}

// checkMeta validates (or, for a fresh datadir, writes) the meta file. A
// fresh datadir's directory is fsynced once the log and meta are in it.
func (d *Disk) checkMeta(genesis types.Hash) error {
	path := filepath.Join(d.dir, metaName)
	raw, err := d.fs.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: read meta: %w", err)
	}
	if len(raw) == 0 {
		buf := make([]byte, 0, metaSize)
		buf = append(buf, metaMagic[:]...)
		buf = append(buf, formatVersion)
		buf = append(buf, genesis[:]...)
		buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
		if err := d.writeFileSync(path, buf); err != nil {
			return fmt.Errorf("store: write meta: %w", err)
		}
		if err := d.fs.SyncDir(d.dir); err != nil {
			return fmt.Errorf("store: sync datadir: %w", err)
		}
		return nil
	}
	if len(raw) != metaSize || [4]byte(raw[:4]) != metaMagic {
		return ErrBadMeta
	}
	if crc32.Checksum(raw[:metaSize-4], crcTable) != binary.BigEndian.Uint32(raw[metaSize-4:]) {
		return fmt.Errorf("%w: checksum mismatch", ErrBadMeta)
	}
	if raw[4] != formatVersion {
		return fmt.Errorf("%w: format %d, this build reads %d", ErrBadMeta, raw[4], formatVersion)
	}
	var stored types.Hash
	copy(stored[:], raw[5:5+types.HashSize])
	if stored != genesis {
		return fmt.Errorf("%w: datadir genesis %s, chain genesis %s", ErrForeignDatadir, stored.Short(), genesis.Short())
	}
	return nil
}

// logReader reads a log file through a fixed window: at returns the n
// bytes at an offset from the window, refilling the window from that
// offset when they are not all in it, or reads them into a buffer of
// their own when n is larger than the window. What it returns is valid
// until the next call.
type logReader struct {
	f    io.ReaderAt
	win  []byte // the window's storage
	base int64  // file offset of buf
	buf  []byte // the window's valid bytes, a prefix of win
}

func (r *logReader) at(off int64, n int) ([]byte, error) {
	if i := off - r.base; off >= r.base && i+int64(n) <= int64(len(r.buf)) {
		return r.buf[i : i+int64(n)], nil
	}
	into := r.win
	if n > len(into) {
		into = make([]byte, n)
	}
	got, err := r.f.ReadAt(into, off)
	if got < n {
		if err == nil || errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if n > len(r.win) {
		return into, nil
	}
	r.base, r.buf = off, r.win[:got]
	return r.buf[:n], nil
}

// logScan is what the open scan keeps of a block log: where the records
// of its whole, checked commits sit (each with its CRC, Log unset), the
// head the last of them names, and the log length they fill. Everything
// past end is a torn tail.
type logScan struct {
	recs       []types.StoredRecord
	headID     types.Hash
	headNumber uint64
	end        int64
}

// scanLog reads the size bytes of a log forward through r, keeping each
// commit whose block records and commit record all check. The first
// record that fails its CRC ends what is kept; the scan goes on framing
// records past it — reading only their CRCs — to learn whether a later
// valid commit acknowledges the damaged one, which makes the damage
// corruption (ErrCorrupt) instead of a torn final commit. A length prefix
// that cannot be framed (past the end, or over maxLogRecord) ends the
// scan.
func scanLog(r *logReader, size int64) (logScan, error) {
	var (
		s       logScan
		kept    int         // records of the commits kept so far
		runLen  int         // block records framed since the last commit record
		runCRC  uint32      // CRC-32C over those records' CRCs
		damaged = int64(-1) // offset of the first record that failed, or -1
		closed  bool        // a commit holding the damage has ended
		sum     [logTrailerSize]byte
	)
	for off := int64(0); off+logHeaderSize <= size; {
		hdr, err := r.at(off, logHeaderSize)
		if err != nil {
			return logScan{}, fmt.Errorf("store: read log: %w", err)
		}
		if length := binary.BigEndian.Uint32(hdr); length != 0 {
			end := int64(logHeaderSize) + int64(length) + logTrailerSize
			if length > maxLogRecord || size-off < end {
				break
			}
			if damaged < 0 {
				rec, err := r.at(off, int(end))
				if err != nil {
					return logScan{}, fmt.Errorf("store: read log: %w", err)
				}
				copy(sum[:], rec[end-logTrailerSize:])
				crc := binary.BigEndian.Uint32(sum[:])
				if crc32.Checksum(rec[logHeaderSize:end-logTrailerSize], crcTable) != crc {
					damaged = off
				} else {
					s.recs = append(s.recs, types.StoredRecord{Off: off + logHeaderSize, Len: length, Sum: crc})
				}
			} else {
				trailer, err := r.at(off+end-logTrailerSize, logTrailerSize)
				if err != nil {
					return logScan{}, fmt.Errorf("store: read log: %w", err)
				}
				copy(sum[:], trailer)
			}
			runLen++
			runCRC = crc32.Update(runCRC, crcTable, sum[:])
			off += end
			continue
		}
		if size-off < commitSize {
			break
		}
		rec, err := r.at(off, commitSize)
		if err != nil {
			return logScan{}, fmt.Errorf("store: read log: %w", err)
		}
		valid := int(binary.BigEndian.Uint32(rec[logHeaderSize:])) == runLen &&
			crc32.Update(runCRC, crcTable, rec[:commitSize-logTrailerSize]) == binary.BigEndian.Uint32(rec[commitSize-logTrailerSize:])
		switch {
		case valid && closed:
			return logScan{}, fmt.Errorf("%w: log record at offset %d fails its check inside an acknowledged commit", ErrCorrupt, damaged)
		case valid && damaged < 0:
			copy(s.headID[:], rec[8:])
			s.headNumber = binary.BigEndian.Uint64(rec[8+types.HashSize:])
			s.end = off + commitSize
			kept = len(s.recs)
		default:
			if damaged < 0 {
				damaged = off
			}
			closed = true
		}
		runLen, runCRC = 0, 0
		off += commitSize
	}
	s.recs = s.recs[:kept]
	return s, nil
}

// AppendBlocks commits blocks as AppendRecords commits records.
func (d *Disk) AppendBlocks(blocks []*types.Block, headID types.Hash, headNumber uint64) error {
	recs := make([]types.BlockRecord, len(blocks))
	for i, blk := range blocks {
		recs[i].Block = blk
	}
	return d.AppendRecords(recs, headID, headNumber)
}

// AppendRecords durably commits records plus the resulting fork-choice
// head: the block records, then the commit record, laid out in the
// Disk's write buffer and written whenever the next record would not
// fit, then one fsync. On any error the in-memory counters are left
// unchanged, the log is rolled back to its last committed size (best
// effort), and the store latches fail-stop — see commitFailed. The next
// open truncates whatever half-commit reached disk.
func (d *Disk) AppendRecords(recs []types.BlockRecord, headID types.Hash, headNumber uint64) error {
	if len(recs) == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		return ErrClosed
	}
	if d.failed {
		return ErrFailed
	}

	buf, written := d.buf[:0], int64(0)
	write := func() error {
		if _, err := d.logF.Write(buf); err != nil {
			return fmt.Errorf("store: append log: %w", err)
		}
		written += int64(len(buf))
		buf = d.buf[:0]
		return nil
	}
	// makeRoom writes the buffer out when n more bytes would not fit. A
	// record larger than the whole buffer is appended to an empty one,
	// growing it into a one-off allocation, and so written on its own.
	makeRoom := func(n int) error {
		if len(buf) == 0 || len(buf)+n <= writeBufSize {
			return nil
		}
		return write()
	}
	var runCRC uint32
	for i, rec := range recs {
		size := logHeaderSize + rec.Size() + logTrailerSize
		if err := makeRoom(size); err != nil {
			return d.commitFailed(err)
		}
		at := len(buf)
		if buf = appendRecord(buf, rec); len(buf)-at != size {
			return d.commitFailed(fmt.Errorf("store: record %d of the commit cannot be read", i))
		}
		runCRC = crc32.Update(runCRC, crcTable, buf[len(buf)-logTrailerSize:])
	}
	if err := makeRoom(commitSize); err != nil {
		return d.commitFailed(err)
	}
	buf = appendCommit(buf, len(recs), headID, headNumber, runCRC)
	if err := write(); err != nil {
		return d.commitFailed(err)
	}
	if err := d.logF.Sync(); err != nil {
		return d.commitFailed(fmt.Errorf("store: sync log: %w", err))
	}

	d.logSize += written
	d.blocks += uint64(len(recs))
	return nil
}

// appendRecord appends rec as a blocks.log block record — length prefix,
// the types.EncodeBlock payload, CRC-32C of the payload — written in place.
func appendRecord(buf []byte, rec types.BlockRecord) []byte {
	at := len(buf) + logHeaderSize
	buf = binary.BigEndian.AppendUint32(buf, uint32(rec.Size()))
	buf = rec.AppendTo(buf)
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf[at:], crcTable))
}

// appendCommit appends the commit record that closes a run of count
// block records whose CRCs, in order, hash to runCRC.
func appendCommit(buf []byte, count int, headID types.Hash, headNumber uint64, runCRC uint32) []byte {
	at := len(buf)
	buf = binary.BigEndian.AppendUint32(buf, 0)
	buf = binary.BigEndian.AppendUint32(buf, uint32(count))
	buf = append(buf, headID[:]...)
	buf = binary.BigEndian.AppendUint64(buf, headNumber)
	return binary.BigEndian.AppendUint32(buf, crc32.Update(runCRC, crcTable, buf[at:]))
}

// commitFailed handles a mid-commit error. The log may hold part of a
// commit whose records are CRC-valid; if a later commit from this process
// were allowed to succeed, the next open would frame those orphans into
// the later commit's run, find its commit record failing, and either drop
// genuinely committed blocks or, once another commit followed, refuse the
// datadir. So the store latches fail-stop unconditionally — every
// subsequent commit returns ErrFailed; reopening the datadir runs normal
// crash recovery — and rolls the log back to its last committed size.
// The rollback is best effort: a crash that stops it leaves a torn tail,
// which the next open truncates.
func (d *Disk) commitFailed(err error) error {
	d.failed = true
	if terr := d.logF.Truncate(d.logSize); terr == nil {
		_ = d.logF.Sync()
	}
	return err
}

// SaveSnapshot atomically replaces the state snapshot: write the header,
// the state blob and their CRC to a temp file, fsync, rename over the
// live name, fsync the directory. A crash anywhere in that sequence
// leaves either the old or the new snapshot fully intact, never a torn
// one (the CRC catches a torn rename target on filesystems without atomic
// rename semantics). A save that fails before the rename removes the
// temp file and leaves the old snapshot live. Once the rename returns,
// the new snapshot is the one an open reads, so Stats reports it; a
// directory fsync that fails after it returns chain.ErrSnapshotNotDurable.
func (d *Disk) SaveSnapshot(snap chain.StoredSnapshot) error {
	var hdr [4 + 8 + 2*types.HashSize + 8]byte
	h := append(hdr[:0], snapMagic[:]...)
	h = binary.BigEndian.AppendUint64(h, snap.Height)
	h = append(h, snap.BlockID[:]...)
	h = append(h, snap.StateRoot[:]...)
	h = binary.BigEndian.AppendUint64(h, uint64(len(snap.State)))
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.Update(crc32.Checksum(h, crcTable), crcTable, snap.State))

	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	tmp := filepath.Join(d.dir, snapTemp)
	if err := d.writeFileSync(tmp, h, snap.State, sum[:]); err != nil {
		return errors.Join(fmt.Errorf("store: write snapshot: %w", err), d.removeTemp())
	}
	if err := d.fs.Rename(tmp, filepath.Join(d.dir, snapName)); err != nil {
		return errors.Join(fmt.Errorf("store: install snapshot: %w", err), d.removeTemp())
	}
	d.snapHeight.Store(snap.Height)
	d.snapBytes.Store(int64(len(h) + len(snap.State) + len(sum)))
	if err := d.fs.SyncDir(d.dir); err != nil {
		return fmt.Errorf("store: sync datadir: %w: %w", chain.ErrSnapshotNotDurable, err)
	}
	return nil
}

// removeTemp removes the snapshot temp file, if there is one.
func (d *Disk) removeTemp() error {
	if err := d.fs.Remove(filepath.Join(d.dir, snapTemp)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: remove the snapshot temp file: %w", err)
	}
	return nil
}

// readSnapshot loads and validates the snapshot file, and records its
// height and size; any defect just means "no snapshot" (the chain falls
// back to full replay).
func (d *Disk) readSnapshot() (*chain.StoredSnapshot, bool) {
	raw, err := d.fs.ReadFile(filepath.Join(d.dir, snapName))
	minSize := 4 + 8 + 2*types.HashSize + 8 + 4
	if err != nil || len(raw) < minSize || [4]byte(raw[:4]) != snapMagic {
		return nil, false
	}
	if crc32.Checksum(raw[:len(raw)-4], crcTable) != binary.BigEndian.Uint32(raw[len(raw)-4:]) {
		return nil, false
	}
	snap := &chain.StoredSnapshot{Height: binary.BigEndian.Uint64(raw[4:12])}
	copy(snap.BlockID[:], raw[12:12+types.HashSize])
	copy(snap.StateRoot[:], raw[12+types.HashSize:12+2*types.HashSize])
	stateLen := binary.BigEndian.Uint64(raw[12+2*types.HashSize : 12+2*types.HashSize+8])
	body := raw[12+2*types.HashSize+8 : len(raw)-4]
	if stateLen != uint64(len(body)) {
		return nil, false
	}
	snap.State = body
	d.snapHeight.Store(snap.Height)
	d.snapBytes.Store(int64(len(raw)))
	return snap, true
}

// Stats reports datadir sizes and recovery state.
func (d *Disk) Stats() chain.StorageStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return chain.StorageStats{
		Backend:        "disk",
		Dir:            d.dir,
		Blocks:         d.blocks,
		LogBytes:       d.logSize,
		SnapshotBytes:  d.snapBytes.Load(),
		SnapshotHeight: d.snapHeight.Load(),
		Recovered:      d.recovered,
	}
}

// Close closes the log; each commit was already fsynced. Idempotent.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		return nil
	}
	d.closed.Store(true)
	return d.logF.Close()
}

// writeFileSync writes parts, in order, to path and fsyncs the file
// before closing it, so the caller may treat the write as durable.
func (d *Disk) writeFileSync(path string, parts ...[]byte) error {
	f, err := d.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	for _, part := range parts {
		if _, err = f.Write(part); err != nil {
			break
		}
	}
	if err == nil {
		err = f.Sync()
	}
	return errors.Join(err, f.Close())
}

// syncDir fsyncs a directory, so that the files created and renamed in it
// are durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(f.Sync(), f.Close())
}
