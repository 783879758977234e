// Package store is the disk backend behind chain.Storage: an append-only
// block log, a tiny write-ahead head log, and an atomically replaced
// state snapshot, all under one datadir. The design goal is boring
// recoverability — every file carries CRCs and is scanned forward to
// the last valid record on open.
//
// Datadir layout:
//
//	meta        identifies the chain: magic "SCM1", format version, the
//	            genesis block id, CRC. Opening a datadir whose meta names
//	            a different genesis fails — a datadir belongs to one chain.
//	blocks.log  append-only block records: u32 payload length, the
//	            types.EncodeBlock payload, CRC-32C of the payload. Every
//	            block ever imported (canonical or side fork), in insertion
//	            order; parents always precede children.
//	wal         one 52-byte record per commit: u64 committed-block count,
//	            the 32-byte fork-choice head id, u64 head number, CRC-32C.
//	            The last valid record IS the durable chain state; log
//	            bytes past the count it names are a torn tail from a
//	            crash and are truncated on open.
//	snapshot    "SCP1", u64 height, 32-byte block id, 32-byte state root,
//	            u64 blob length, the state.Serialize blob, CRC-32C of
//	            everything prior. Replaced via write-temp + fsync + rename,
//	            so a crash mid-write leaves the previous snapshot intact.
//
// Commit protocol (AppendBlocks): log append → log fsync → WAL append →
// WAL fsync. A crash between the two fsyncs leaves log records the WAL
// does not acknowledge; open truncates them and the chain re-imports the
// block from the network. A crash before the
// log fsync can tear a log record; the CRC scan stops there. The WAL is
// never ahead of the log — if open finds fewer valid log records than the
// WAL acknowledges, the datadir is corrupt beyond self-healing and open
// fails loudly rather than serving a chain with holes.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// File names inside a datadir.
const (
	metaName = "meta"
	logName  = "blocks.log"
	walName  = "wal"
	snapName = "snapshot"
)

// Record geometry.
const (
	// metaSize is magic[4] + version[1] + genesis[32] + crc[4].
	metaSize = 4 + 1 + types.HashSize + 4
	// walRecordSize is seq[8] + head[32] + number[8] + crc[4].
	walRecordSize = 8 + types.HashSize + 8 + 4
	// logHeaderSize is the per-record length prefix; logTrailerSize the CRC.
	logHeaderSize  = 4
	logTrailerSize = 4
	// maxLogRecord bounds a block record so a corrupt length prefix cannot
	// force a giant allocation during the open scan. Blocks are wire
	// objects capped at 8 MiB; 64 MiB is unreachable headroom.
	maxLogRecord = 64 << 20
	// formatVersion is the on-disk format version stamped into meta. A
	// version-1 log may hold a contract-creation transaction (kind 2, since
	// retired) below its snapshot, where a reopen serves blocks without
	// validating them, so version 1 is refused rather than misread.
	formatVersion = 2
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
	// half-written commit can never be followed by a successful one that
	// would mis-align the WAL-acknowledged range on the next open.
	ErrFailed = errors.New("store: disabled after mid-commit write error")
)

// crcTable is CRC-32C (Castagnoli), hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Disk implements chain.Storage over a datadir. Safe for concurrent use;
// AppendBlocks calls are serialized by the store mutex (the chain already
// serializes them under its write lock), snapshot writes take their own.
type Disk struct {
	dir string

	mu        sync.Mutex
	logF      *os.File
	walF      *os.File
	logSize   int64
	walSize   int64
	seq       uint64 // committed block count per the WAL
	closed    bool
	failed    bool // fail-stop latch: see ErrFailed
	recovered bool

	snapMu     sync.Mutex
	snapHeight atomic.Uint64

	// crashPoint, when set, aborts AppendBlocks when it reaches the named
	// point in the commit protocol, leaving the files exactly as a crash
	// at that point would (modulo OS-buffer survival, which the direct
	// file-corruption tests cover). Test hook only: armed by
	// SetCrashPoint in disk_test.go.
	crashPoint string
}

// Disk must satisfy the chain's storage contract.
var _ chain.Storage = (*Disk)(nil)

// Open creates or opens a datadir. No recovery happens here — Load does
// the scanning, so a chain.New with this backend performs exactly one
// recovery pass.
func Open(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create datadir: %w", err)
	}
	d := &Disk{dir: dir}
	var err error
	open := func(name string) *os.File {
		if err != nil {
			return nil
		}
		var f *os.File
		f, err = os.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE, 0o644)
		return f
	}
	d.logF = open(logName)
	d.walF = open(walName)
	if err != nil {
		d.closeFiles()
		return nil, fmt.Errorf("store: open datadir files: %w", err)
	}
	// Earlier builds kept a blocks.idx beside the log that nothing read;
	// drop a leftover one so every datadir has the same four files.
	_ = os.Remove(filepath.Join(dir, "blocks.idx"))
	return d, nil
}

// errCrashInjected marks a simulated crash from SetCrashPoint.
var errCrashInjected = errors.New("store: crash injected")

func (d *Disk) crash(point string) error {
	if d.crashPoint == point {
		d.crashPoint = ""
		return fmt.Errorf("%w at %s", errCrashInjected, point)
	}
	return nil
}

// Load recovers the committed chain: verify/initialize meta, find the last
// acknowledged commit in the WAL, truncate any torn or unacknowledged log
// tail, check that every committed block decodes and read the snapshot.
// A block comes back as a header-only types.Block and its record payload,
// which aliases the one buffer the log was read into: a chain that keeps
// any payload keeps that whole buffer, framing and decoded tail included,
// for as long as it lives. That costs the log's size once, where decoded
// prefix bodies would cost several times it (each transaction's struct,
// Data copy and hash memo). See the package comment for the invariants.
func (d *Disk) Load(genesis types.Hash) (*chain.StoredChain, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	if err := d.checkMeta(genesis); err != nil {
		return nil, err
	}

	headID, headNumber, err := d.recoverWAL()
	if err != nil {
		return nil, err
	}
	payloads, err := d.recoverLog()
	if err != nil {
		return nil, err
	}

	heads := make([]types.Block, len(payloads))
	blocks := make([]types.BlockRecord, len(payloads))
	for i, payload := range payloads {
		if heads[i].Header, err = types.DecodeHeader(payload); err != nil {
			return nil, fmt.Errorf("%w: committed block %d does not decode: %v", ErrCorrupt, i, err)
		}
		blocks[i] = types.BlockRecord{Block: &heads[i], Raw: payload}
	}

	sc := &chain.StoredChain{Blocks: blocks, HeadID: headID, HeadNumber: headNumber}
	if snap, ok := d.readSnapshot(); ok {
		sc.Snapshot = snap
		d.snapHeight.Store(snap.Height)
	}
	return sc, nil
}

// checkMeta validates (or, for a fresh datadir, writes) the meta file.
func (d *Disk) checkMeta(genesis types.Hash) error {
	path := filepath.Join(d.dir, metaName)
	raw, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: read meta: %w", err)
	}
	if len(raw) == 0 {
		buf := make([]byte, 0, metaSize)
		buf = append(buf, metaMagic[:]...)
		buf = append(buf, formatVersion)
		buf = append(buf, genesis[:]...)
		buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
		if err := writeFileSync(path, buf); err != nil {
			return fmt.Errorf("store: write meta: %w", err)
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

// readRest reads f from its current offset to its end into one buffer of
// the file's size; io.ReadAll's doubling growth allocates several times
// that. A file shorter than Stat said is read to where it ends.
func readRest(f *os.File) ([]byte, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, info.Size())
	n, err := io.ReadFull(f, buf)
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		err = nil
	}
	return buf[:n], err
}

// recoverWAL scans the WAL to the last valid record, truncates anything
// after it, and installs the committed sequence number.
func (d *Disk) recoverWAL() (headID types.Hash, headNumber uint64, err error) {
	raw, err := readRest(d.walF)
	if err != nil {
		return types.Hash{}, 0, fmt.Errorf("store: read wal: %w", err)
	}
	valid := 0
	for off := 0; off+walRecordSize <= len(raw); off += walRecordSize {
		rec := raw[off : off+walRecordSize]
		if crc32.Checksum(rec[:walRecordSize-4], crcTable) != binary.BigEndian.Uint32(rec[walRecordSize-4:]) {
			break
		}
		d.seq = binary.BigEndian.Uint64(rec[:8])
		copy(headID[:], rec[8:8+types.HashSize])
		headNumber = binary.BigEndian.Uint64(rec[8+types.HashSize : 8+types.HashSize+8])
		valid++
	}
	keep := int64(valid) * walRecordSize
	if keep != int64(len(raw)) {
		if err := d.walF.Truncate(keep); err != nil {
			return types.Hash{}, 0, fmt.Errorf("store: truncate wal: %w", err)
		}
		d.recovered = true
	}
	d.walSize = keep
	if _, err := d.walF.Seek(0, io.SeekEnd); err != nil {
		return types.Hash{}, 0, err
	}
	return headID, headNumber, nil
}

// recoverLog scans the block log for valid records and returns their
// payloads. The WAL's committed count is authoritative: extra
// valid-looking records past it are a crash artifact and are truncated
// along with any torn tail; fewer records than committed is
// unrecoverable corruption.
func (d *Disk) recoverLog() ([][]byte, error) {
	raw, err := readRest(d.logF)
	if err != nil {
		return nil, fmt.Errorf("store: read log: %w", err)
	}
	var recs [][]byte
	off := int64(0)
	for uint64(len(recs)) < d.seq || off < int64(len(raw)) {
		if uint64(len(recs)) == d.seq {
			break // everything committed is in hand; the rest is tail
		}
		rest := raw[off:]
		if len(rest) < logHeaderSize {
			break
		}
		length := binary.BigEndian.Uint32(rest[:logHeaderSize])
		if length == 0 || length > maxLogRecord {
			break
		}
		end := logHeaderSize + int(length) + logTrailerSize
		if len(rest) < end {
			break
		}
		payload := rest[logHeaderSize : logHeaderSize+int(length)]
		if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(rest[logHeaderSize+int(length):end]) {
			break
		}
		recs = append(recs, payload)
		off += int64(end)
	}
	if uint64(len(recs)) < d.seq {
		return nil, fmt.Errorf("%w: wal acknowledges %d blocks, log holds %d", ErrCorrupt, d.seq, len(recs))
	}
	if off != int64(len(raw)) {
		if err := d.logF.Truncate(off); err != nil {
			return nil, fmt.Errorf("store: truncate log: %w", err)
		}
		if err := d.logF.Sync(); err != nil {
			return nil, err
		}
		d.recovered = true
	}
	d.logSize = off
	if _, err := d.logF.Seek(0, io.SeekEnd); err != nil {
		return nil, err
	}
	return recs, nil
}

// AppendBlocks durably commits blocks plus the resulting fork-choice head:
// log append, log fsync, WAL append, WAL fsync.
// On any error the in-memory counters are left unchanged, the files are
// rolled back to the last committed sizes (best effort), and the store
// latches fail-stop — see commitFailed. The next open truncates whatever
// half-commit reached disk.
func (d *Disk) AppendBlocks(blocks []*types.Block, headID types.Hash, headNumber uint64) error {
	if len(blocks) == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if d.failed {
		return ErrFailed
	}

	logBuf := encodeLogRecords(blocks)
	if _, err := d.logF.Write(logBuf); err != nil {
		return d.commitFailed(fmt.Errorf("store: append log: %w", err))
	}
	if err := d.crash("log-written"); err != nil {
		return d.commitFailed(err)
	}
	if err := d.logF.Sync(); err != nil {
		return d.commitFailed(fmt.Errorf("store: sync log: %w", err))
	}
	if err := d.crash("log-synced"); err != nil {
		return d.commitFailed(err)
	}

	wal := make([]byte, 0, walRecordSize)
	wal = binary.BigEndian.AppendUint64(wal, d.seq+uint64(len(blocks)))
	wal = append(wal, headID[:]...)
	wal = binary.BigEndian.AppendUint64(wal, headNumber)
	wal = binary.BigEndian.AppendUint32(wal, crc32.Checksum(wal, crcTable))
	if _, err := d.walF.Write(wal); err != nil {
		return d.commitFailed(fmt.Errorf("store: append wal: %w", err))
	}
	if err := d.crash("wal-written"); err != nil {
		return d.commitFailed(err)
	}
	if err := d.walF.Sync(); err != nil {
		return d.commitFailed(fmt.Errorf("store: sync wal: %w", err))
	}

	d.logSize += int64(len(logBuf))
	d.walSize += walRecordSize
	d.seq += uint64(len(blocks))
	return nil
}

// encodeLogRecords lays blocks out as blocks.log records — length prefix,
// the types.EncodeBlock payload, CRC-32C of the payload — in one buffer of
// exactly their size, each block encoded in place.
func encodeLogRecords(blocks []*types.Block) []byte {
	size := 0
	for _, blk := range blocks {
		size += logHeaderSize + types.BlockSize(blk) + logTrailerSize
	}
	buf := make([]byte, 0, size)
	for _, blk := range blocks {
		at := len(buf) + logHeaderSize
		buf = binary.BigEndian.AppendUint32(buf, uint32(types.BlockSize(blk)))
		buf = types.AppendBlock(buf, blk)
		buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf[at:], crcTable))
	}
	return buf
}

// commitFailed handles a mid-commit error. The files may hold a partial
// commit whose log records are CRC-valid; if a later commit from this
// process were allowed to succeed, the next open would count those orphan
// records toward the WAL-acknowledged sequence and truncate a genuinely
// committed block instead, failing recovery. So the store latches
// fail-stop unconditionally — every subsequent AppendBlocks returns
// ErrFailed; reopening the datadir runs normal crash recovery — and, for
// real IO errors, additionally rolls the files back to the last committed
// sizes (best effort; recovery on the next open does not depend on it).
// Injected crashes skip the rollback on purpose: the torn on-disk shape
// is exactly what the crash-recovery tests reopen.
func (d *Disk) commitFailed(err error) error {
	d.failed = true
	if errors.Is(err, errCrashInjected) {
		return err
	}
	if terr := d.logF.Truncate(d.logSize); terr == nil {
		_ = d.logF.Sync()
	}
	_ = d.walF.Truncate(d.walSize)
	for _, f := range []*os.File{d.logF, d.walF} {
		_, _ = f.Seek(0, io.SeekEnd)
	}
	return err
}

// SaveSnapshot atomically replaces the state snapshot: marshal, write to a
// temp file, fsync, rename over the live name, fsync the directory. A
// crash anywhere in that sequence leaves either the old or the new
// snapshot fully intact, never a torn one (the CRC catches a torn rename
// target on filesystems without atomic rename semantics).
func (d *Disk) SaveSnapshot(snap chain.StoredSnapshot) error {
	buf := make([]byte, 0, len(snap.State)+4+8+2*types.HashSize+8+4)
	buf = append(buf, snapMagic[:]...)
	buf = binary.BigEndian.AppendUint64(buf, snap.Height)
	buf = append(buf, snap.BlockID[:]...)
	buf = append(buf, snap.StateRoot[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(snap.State)))
	buf = append(buf, snap.State...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))

	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	tmp := filepath.Join(d.dir, snapName+".tmp")
	if err := writeFileSync(tmp, buf); err != nil {
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, snapName)); err != nil {
		return fmt.Errorf("store: install snapshot: %w", err)
	}
	syncDir(d.dir)
	d.snapHeight.Store(snap.Height)
	return nil
}

// readSnapshot loads and validates the snapshot file; any defect just
// means "no snapshot" (the chain falls back to full replay).
func (d *Disk) readSnapshot() (*chain.StoredSnapshot, bool) {
	raw, err := os.ReadFile(filepath.Join(d.dir, snapName))
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
	return snap, true
}

// Stats reports datadir sizes and recovery state.
func (d *Disk) Stats() chain.StorageStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := chain.StorageStats{
		Backend:        "disk",
		Dir:            d.dir,
		Blocks:         d.seq,
		SnapshotHeight: d.snapHeight.Load(),
		Recovered:      d.recovered,
	}
	st.LogBytes = fileSize(filepath.Join(d.dir, logName))
	st.WALBytes = fileSize(filepath.Join(d.dir, walName))
	st.SnapshotBytes = fileSize(filepath.Join(d.dir, snapName))
	return st
}

// Close closes every file; each commit was already fsynced. Idempotent.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.closeFiles()
}

func (d *Disk) closeFiles() error {
	var firstErr error
	for _, f := range []*os.File{d.logF, d.walF} {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// fileSize returns a file's size, 0 when absent.
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// writeFileSync writes data to path and fsyncs it before closing, so the
// caller may treat the write as durable.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a rename inside it is durable. Best
// effort: some platforms refuse directory fsync; the snapshot CRC covers
// the residual risk.
func syncDir(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = f.Sync()
	_ = f.Close()
}
