package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// fixture drives a durable chain: wallets, nonce bookkeeping and a block
// builder, so tests express "grow the chain, kill it, reopen it" directly.
type fixture struct {
	t      *testing.T
	chain  *chain.Chain
	disk   *Disk
	miner  *wallet.Wallet
	payer  *wallet.Wallet
	nonces map[types.Address]uint64
}

func baseConfig() chain.Config {
	verifier := contract.VerifierFunc(func(types.Hash, types.Finding) bool { return true })
	cfg := chain.DefaultConfig(contract.New(contract.DefaultParams(), verifier))
	cfg.Rule = pow.Sampled
	payer := wallet.NewDeterministic("store-payer")
	cfg.Alloc = map[types.Address]types.Amount{
		payer.Address(): types.EtherAmount(5000),
	}
	return cfg
}

// openFixture builds a chain over the given datadir (empty dir = fresh
// chain). Storage open errors fail the test; chain replay errors are
// returned for the corruption tests to assert on.
func openFixture(t *testing.T, dir string, snapInterval uint64) (*fixture, error) {
	t.Helper()
	d, err := Open(dir)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return fixtureOn(t, d, snapInterval)
}

// fixtureOn builds a chain over an opened Disk.
func fixtureOn(t *testing.T, d *Disk, snapInterval uint64) (*fixture, error) {
	t.Helper()
	cfg := baseConfig()
	cfg.Storage = d
	cfg.SnapshotInterval = snapInterval
	c, err := chain.New(cfg)
	if err != nil {
		d.Close()
		return nil, err
	}
	return &fixture{
		t:      t,
		chain:  c,
		disk:   d,
		miner:  wallet.NewDeterministic("store-miner"),
		payer:  wallet.NewDeterministic("store-payer"),
		nonces: map[types.Address]uint64{},
	}, nil
}

func mustOpen(t *testing.T, dir string, snapInterval uint64) *fixture {
	t.Helper()
	f, err := openFixture(t, dir, snapInterval)
	if err != nil {
		t.Fatalf("reopen chain: %v", err)
	}
	return f
}

// memFixture is the never-closed in-memory oracle.
func memFixture(t *testing.T) *fixture {
	t.Helper()
	c, err := chain.New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		t:      t,
		chain:  c,
		miner:  wallet.NewDeterministic("store-miner"),
		payer:  wallet.NewDeterministic("store-payer"),
		nonces: map[types.Address]uint64{},
	}
}

// extend builds and imports one block with n transfer transactions.
func (f *fixture) extend(n int) *types.Block {
	f.t.Helper()
	txs := make([]*types.Transaction, n)
	for i := range txs {
		var to types.Address
		to[0], to[1] = byte(i), byte(f.nonces[f.payer.Address()])
		tx := &types.Transaction{
			Kind:     types.TxTransfer,
			Nonce:    f.nonces[f.payer.Address()],
			To:       to,
			Value:    types.GWei,
			GasLimit: 21_000,
			GasPrice: 50 * types.GWei,
		}
		if err := types.SignTx(tx, f.payer); err != nil {
			f.t.Fatal(err)
		}
		f.nonces[f.payer.Address()]++
		txs[i] = tx
	}
	head := f.chain.Head()
	blk, err := f.chain.BuildBlock(head.ID(), f.miner.Address(), head.Header.Time+15_000, 1000, txs)
	if err != nil {
		f.t.Fatal(err)
	}
	if _, err := f.chain.InsertBlock(blk); err != nil {
		f.t.Fatal(err)
	}
	return blk
}

// extendBulky builds and imports one block of n calls to a plain
// address, each carrying 8 KiB of input, so that a block or two outgrow
// the Disk's write buffer.
func (f *fixture) extendBulky(n int) *types.Block {
	f.t.Helper()
	payer := f.payer.Address()
	txs := make([]*types.Transaction, n)
	for i := range txs {
		tx := &types.Transaction{
			Kind:     types.TxContractCall,
			Nonce:    f.nonces[payer],
			To:       types.Address{0xc0, byte(i)},
			GasLimit: 21_000 + 4*8<<10,
			GasPrice: 50 * types.GWei,
			Data:     make([]byte, 8<<10),
		}
		if err := types.SignTx(tx, f.payer); err != nil {
			f.t.Fatal(err)
		}
		f.nonces[payer]++
		txs[i] = tx
	}
	head := f.chain.Head()
	blk, err := f.chain.BuildBlock(head.ID(), f.miner.Address(), head.Header.Time+15_000, 1000, txs)
	if err != nil {
		f.t.Fatal(err)
	}
	if err := f.insert(blk); err != nil {
		f.t.Fatal(err)
	}
	return blk
}

// insert imports a pre-built block, returning the error.
func (f *fixture) insert(blk *types.Block) error {
	_, err := f.chain.InsertBlock(blk)
	return err
}

// recordsOf returns blocks the way a peer's range sync delivers them to
// AdoptSnapshot: each a header-only block beside its encoding.
func recordsOf(blocks []*types.Block) []types.BlockRecord {
	recs := make([]types.BlockRecord, len(blocks))
	for i, blk := range blocks {
		recs[i] = types.BlockRecord{Block: &types.Block{Header: blk.Header}, Raw: types.EncodeBlock(blk)}
	}
	return recs
}

// assertEqualChains proves two chains are byte-identical: same head, same
// total difficulty, and every canonical block encodes to the same bytes.
func assertEqualChains(t *testing.T, got, want *chain.Chain) {
	t.Helper()
	if g, w := got.Head().ID(), want.Head().ID(); g != w {
		t.Fatalf("head mismatch: got %s, want %s", g, w)
	}
	if g, w := got.CurrentView().TotalDifficulty(), want.CurrentView().TotalDifficulty(); g != w {
		t.Fatalf("total difficulty mismatch: got %d, want %d", g, w)
	}
	gb, wb := got.CanonicalBlocks(), want.CanonicalBlocks()
	if len(gb) != len(wb) {
		t.Fatalf("canonical length mismatch: got %d, want %d", len(gb), len(wb))
	}
	for i := range gb {
		if !bytes.Equal(types.EncodeBlock(gb[i]), types.EncodeBlock(wb[i])) {
			t.Fatalf("canonical block %d differs byte-for-byte", i)
		}
	}
}

// TestLogRecordsWrittenOnce: a warm commit allocates nothing — its
// records are laid out in the Disk's own write buffer — and the block
// records it writes are the layout written block by block from
// EncodeBlock, kept here as the oracle, each run closed by one commit
// record naming its head.
func TestLogRecordsWrittenOnce(t *testing.T) {
	f := memFixture(t)
	var blocks []*types.Block
	for i := 0; i < 6; i++ {
		blocks = append(blocks, f.extend(i))
	}
	var want []byte
	for _, blk := range blocks {
		payload := types.EncodeBlock(blk)
		want = binary.BigEndian.AppendUint32(want, uint32(len(payload)))
		want = append(want, payload...)
		want = binary.BigEndian.AppendUint32(want, crc32.Checksum(payload, crcTable))
	}
	recs := make([]types.BlockRecord, len(blocks))
	for i, blk := range blocks {
		recs[i].Block = blk
	}
	head := blocks[len(blocks)-1]

	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Load(types.Hash{}); err != nil {
		t.Fatal(err)
	}
	commit := func() {
		if err := d.AppendRecords(recs, head.ID(), head.Header.Number); err != nil {
			t.Fatal(err)
		}
	}
	commit()
	if n := testing.AllocsPerRun(20, commit); n != 0 {
		t.Errorf("a warm commit of %d blocks made %v allocations, want 0", len(blocks), n)
	}
	raw, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, want) {
		t.Fatalf("block records differ from the per-block layout:\n got %x\nwant %x", raw[:min(len(raw), len(want))], want)
	}
	scan, err := scanBytes(raw, writeBufSize)
	if err != nil || scan.end != int64(len(raw)) || scan.headID != head.ID() || scan.headNumber != head.Header.Number {
		t.Fatalf("rescan: end %d of %d, head %s #%d, err %v", scan.end, len(raw), scan.headID.Short(), scan.headNumber, err)
	}
	if commits := len(raw) / (len(want) + commitSize); len(raw) != commits*(len(want)+commitSize) {
		t.Errorf("log of %d bytes is not whole commits of %d records + %d", len(raw), len(want), commitSize)
	}
}

// TestCommitLargerThanTheBuffer writes one commit several times the write
// buffer, with a record larger than the buffer in it: the records written
// in pieces read back as one commit, each record equal to its input.
func TestCommitLargerThanTheBuffer(t *testing.T) {
	var recs []types.BlockRecord
	for i, size := range []int{40 << 10, 40 << 10, writeBufSize + 1, 100, writeBufSize - 8, 3} {
		recs = append(recs, types.BlockRecord{Raw: bytes.Repeat([]byte{byte(i + 1)}, size)})
	}
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Load(types.Hash{}); err != nil {
		t.Fatal(err)
	}
	head := types.HashBytes([]byte("head"))
	if err := d.AppendRecords(recs, head, 6); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	scan, err := scanBytes(raw, writeBufSize)
	if err != nil || scan.end != int64(len(raw)) || scan.headID != head || len(scan.recs) != len(recs) {
		t.Fatalf("rescan: end %d of %d, %d records, head %s, err %v", scan.end, len(raw), len(scan.recs), scan.headID.Short(), err)
	}
	for i, p := range payloadsOf(raw, scan) {
		if !bytes.Equal(p, recs[i].Raw) {
			t.Errorf("record %d differs", i)
		}
	}
}

// TestRestartEquivalence is the oracle the tentpole demands: a chain that
// grows, closes and reopens must be byte-identical to one that never
// closed — with and without a snapshot accelerating the reopen.
func TestRestartEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name         string
		snapInterval uint64
	}{
		{"full-replay", 0},
		{"snapshot-restore", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			durable := mustOpen(t, dir, tc.snapInterval)
			oracle := memFixture(t)
			oracle.nonces = durable.nonces // one payer, one nonce stream
			var blocks []*types.Block
			for i := 0; i < 12; i++ {
				blocks = append(blocks, durable.extend(2))
			}
			for _, blk := range blocks {
				if err := oracle.insert(blk); err != nil {
					t.Fatalf("oracle insert: %v", err)
				}
			}
			if err := durable.chain.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			reopened := mustOpen(t, dir, tc.snapInterval)
			defer reopened.chain.Close()
			assertEqualChains(t, reopened.chain, oracle.chain)

			// The reopened chain keeps the same live state: SRA count,
			// balances, and it accepts the next oracle block.
			next := oracle.extend(2)
			if err := reopened.insert(next); err != nil {
				t.Fatalf("reopened chain rejects next block: %v", err)
			}
			assertEqualChains(t, reopened.chain, oracle.chain)
			if tc.snapInterval > 0 {
				stats := reopened.chain.StorageStats()
				if stats.SnapshotHeight == 0 {
					t.Fatal("no durable snapshot recorded")
				}
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, e := range entries {
				names = append(names, e.Name())
			}
			if want := []string{logName, metaName, snapName}; !slices.Equal(names, want) {
				t.Errorf("datadir holds %v, want %v", names, want)
			}
		})
	}
}

// TestCloseRefusesFurtherImports pins ErrClosed.
func TestCloseRefusesFurtherImports(t *testing.T) {
	f := mustOpen(t, t.TempDir(), 0)
	blkDone := f.extend(1)
	_ = blkDone
	if err := f.chain.Close(); err != nil {
		t.Fatal(err)
	}
	oracle := memFixture(t)
	blk := oracle.extend(0)
	if err := f.insert(blk); !errors.Is(err, chain.ErrClosed) {
		t.Fatalf("insert after close: got %v, want ErrClosed", err)
	}
	if err := f.chain.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// openDisk opens a datadir for src's chain through fs directly, with no
// chain over it, and commits each of blocks alone, as single imports do.
func openDisk(t *testing.T, dir string, fs fsys, src *fixture, blocks []*types.Block) *Disk {
	t.Helper()
	d, err := openWith(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Load(src.chain.Genesis().ID()); err != nil {
		t.Fatal(err)
	}
	for _, blk := range blocks {
		if err := d.AppendBlocks([]*types.Block{blk}, blk.ID(), blk.Header.Number); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestTornRecordUnderPersistedCommit: a crash may persist a commit's
// last page, commit record included, while an earlier page of the same
// commit never reached the disk. The record there fails its CRC, so open
// lands on the previous commit and truncates the whole torn one.
func TestTornRecordUnderPersistedCommit(t *testing.T) {
	src := memFixture(t)
	var blocks []*types.Block
	for i := 0; i < 6; i++ {
		blocks = append(blocks, src.extend(2))
	}
	dir := t.TempDir()
	d := openDisk(t, dir, osFS{}, src, blocks[:3])
	path := filepath.Join(dir, logName)
	size := sizeOnDisk(t, path)
	run, last := blocks[3:], blocks[len(blocks)-1]
	if err := d.AppendBlocks(run, last.ID(), last.Header.Number); err != nil {
		t.Fatal(err)
	}
	d.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Zero part of the run's first record, as an unwritten page reads
	// back; the run's commit record, last in the file, is intact.
	clear(raw[size+logHeaderSize+10 : size+logHeaderSize+30])
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	reopened := mustOpen(t, dir, 0)
	defer reopened.chain.Close()
	if got, want := reopened.chain.Head().ID(), blocks[2].ID(); got != want {
		t.Fatalf("recovered head %s, want the previous commit's %s", got.Short(), want.Short())
	}
	if !reopened.chain.StorageStats().Recovered {
		t.Error("stats do not report recovery")
	}
	if got := sizeOnDisk(t, path); got != size {
		t.Errorf("log is %d bytes after recovery, want the previous commit's %d", got, size)
	}
}

// TestRunWritesTheLogOfSingleImports: the block records a batched import
// leaves are byte for byte the ones importing the same blocks one at a
// time leaves; only the commit records, one per commit, are fewer.
func TestRunWritesTheLogOfSingleImports(t *testing.T) {
	src := memFixture(t)
	var blocks []*types.Block
	for i := 0; i < 40; i++ {
		blocks = append(blocks, src.extend(i%4))
	}
	one, batched := t.TempDir(), t.TempDir()
	a, b := mustOpen(t, one, 0), mustOpen(t, batched, 0)
	for _, blk := range blocks {
		if err := a.insert(blk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.chain.InsertChain(blocks); err != nil {
		t.Fatal(err)
	}
	assertEqualChains(t, b.chain, a.chain)
	read := func(dir, name string) []byte {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	// blockRecords strips a log's commit records, counting them.
	blockRecords := func(raw []byte) (recs []byte, commits int) {
		for off := 0; off < len(raw); {
			n := logHeaderSize + int(binary.BigEndian.Uint32(raw[off:])) + logTrailerSize
			if n == logHeaderSize+logTrailerSize {
				n, commits = commitSize, commits+1
			} else {
				recs = append(recs, raw[off:off+n]...)
			}
			off += n
		}
		return recs, commits
	}
	gotRecs, gotCommits := blockRecords(read(batched, logName))
	wantRecs, singleCommits := blockRecords(read(one, logName))
	if !bytes.Equal(gotRecs, wantRecs) {
		t.Error("a batched import wrote different block records")
	}
	if singleCommits != len(blocks) || gotCommits > singleCommits {
		t.Errorf("batched import wrote %d commit records, single-block imports %d for %d blocks", gotCommits, singleCommits, len(blocks))
	}
	for _, f := range []*fixture{a, b} {
		if err := f.chain.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMidCommitErrorLatchesFailStop: a mid-commit IO error in a process
// that keeps running can leave CRC-valid block records no commit record
// closes. If a later commit from the same handle were allowed to succeed,
// the next open would frame those orphans into its run and reject its
// commit record. So the handle latches fail-stop, and the rollback real
// IO errors take runs: the log is truncated back to the last commit and
// synced, and the datadir reopens to the acknowledged prefix with nothing
// left to recover. The commit fails at its Sync (EIO), at its first Write
// (EIO), or writes short there (ENOSPC); its one block is larger than the
// write buffer, so it is written in two.
func TestMidCommitErrorLatchesFailStop(t *testing.T) {
	for _, tc := range []struct {
		call  string
		fault fault
		want  error
	}{
		{"sync blocks.log", failEIO, syscall.EIO},
		{"write blocks.log", failEIO, syscall.EIO},
		{"write blocks.log", writeShort, syscall.ENOSPC},
	} {
		t.Run(tc.fault.String()+"-"+strings.Fields(tc.call)[0], func(t *testing.T) {
			dir, fs := t.TempDir(), newFaultFS(t)
			d, err := openWith(dir, fs)
			if err != nil {
				t.Fatal(err)
			}
			f, err := fixtureOn(t, d, 0)
			if err != nil {
				t.Fatal(err)
			}
			oracle := memFixture(t)
			oracle.nonces = f.nonces
			committed := f.extend(1)
			if err := oracle.insert(committed); err != nil {
				t.Fatal(err)
			}
			lost := oracle.extendBulky(10)
			next := oracle.extend(1)
			acked := sizeOnDisk(t, filepath.Join(dir, logName))

			from := len(fs.log())
			fs.armCall(tc.call, tc.fault)
			if err := f.insert(lost); !errors.Is(err, tc.want) {
				t.Fatalf("commit with %s at %q: got %v, want %v", tc.fault, tc.call, err, tc.want)
			}
			calls := fs.log()[from:]
			failed := indexOf(calls, 0, tc.call)
			truncated := indexOf(calls, failed+1, "truncate blocks.log")
			if failed < 0 || truncated < 0 || indexOf(calls, truncated+1, "sync blocks.log") < 0 {
				t.Errorf("no truncate and sync of the log after the failed %q: %q", tc.call, calls)
			}
			if got := sizeOnDisk(t, filepath.Join(dir, logName)); got != acked {
				t.Errorf("log is %d bytes after the rollback, want the last commit's %d", got, acked)
			}
			if got := d.Stats().LogBytes; got != acked {
				t.Errorf("Stats().LogBytes = %d after the failed commit, want %d", got, acked)
			}
			// The handle is latched: retrying must fail with ErrFailed, not
			// commit past the orphan log bytes.
			if err := f.insert(lost); !errors.Is(err, ErrFailed) {
				t.Fatalf("append after mid-commit error: got %v, want ErrFailed", err)
			}

			reopened := mustOpen(t, dir, 0)
			defer reopened.chain.Close()
			if got, want := reopened.chain.Head().ID(), committed.ID(); got != want {
				t.Fatalf("recovered head %s, want last committed %s", got.Short(), want.Short())
			}
			if reopened.chain.StorageStats().Recovered {
				t.Error("the reopen truncated a tail the rollback should have removed")
			}
			if err := reopened.insert(lost); err != nil {
				t.Fatalf("re-import after recovery: %v", err)
			}
			if err := reopened.insert(next); err != nil {
				t.Fatalf("import past recovery: %v", err)
			}
			assertEqualChains(t, reopened.chain, oracle.chain)
		})
	}
}

// TestAdoptSnapshotPersistFailureLeavesGenesis pins the write-ahead
// ordering of snapshot adoption: when persisting the adopted prefix
// fails, the in-memory chain must stay at genesis (free to fall back to
// replay) instead of publishing a head whose prefix never reached disk —
// which would brick the datadir on the next restart.
func TestAdoptSnapshotPersistFailureLeavesGenesis(t *testing.T) {
	src := memFixture(t)
	var prefix []*types.Block
	for i := 0; i < 5; i++ {
		prefix = append(prefix, src.extend(1))
	}
	snap := src.chain.SnapshotNow()

	dir, fs := t.TempDir(), newFaultFS(t)
	d, err := openWith(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fixtureOn(t, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs.armCall("sync blocks.log", failEIO)
	if err := f.chain.AdoptSnapshot(recordsOf(prefix), snap.State); err == nil {
		t.Fatal("adoption with failing persistence succeeded")
	}
	if n := f.chain.HeadNumber(); n != 0 {
		t.Fatalf("chain head = %d after failed adoption, want genesis", n)
	}
	if err := f.chain.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	reopened := mustOpen(t, dir, 0)
	defer reopened.chain.Close()
	if n := reopened.chain.HeadNumber(); n != 0 {
		t.Fatalf("reopened head = %d, want genesis", n)
	}
	// The pristine reopened chain can still adopt the snapshot for real.
	if err := reopened.chain.AdoptSnapshot(recordsOf(prefix), snap.State); err != nil {
		t.Fatalf("adoption after recovery: %v", err)
	}
	if got, want := reopened.chain.Head().ID(), src.chain.Head().ID(); got != want {
		t.Fatalf("adopted head %s, want %s", got.Short(), want.Short())
	}
}

// TestTornTailRecovery appends the torn-write shapes a real crash leaves
// to the log — a partial record header, a zeroed page, a record with no
// commit record — and proves reopen heals each.
func TestTornTailRecovery(t *testing.T) {
	for name, tail := range map[string][]byte{
		"partial-header": {0xde, 0xad, 0xbe},
		"zeroed-page":    make([]byte, 4096),
		"uncommitted":    appendRecord(nil, types.BlockRecord{Raw: []byte("never committed")}),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			f := mustOpen(t, dir, 0)
			var last *types.Block
			for i := 0; i < 4; i++ {
				last = f.extend(1)
			}
			if err := f.chain.Close(); err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(dir, logName)
			size := sizeOnDisk(t, path)
			fh, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fh.Write(tail); err != nil {
				t.Fatal(err)
			}
			fh.Close()

			reopened := mustOpen(t, dir, 0)
			defer reopened.chain.Close()
			if got := reopened.chain.Head().ID(); got != last.ID() {
				t.Fatalf("recovered head %s, want %s", got.Short(), last.ID().Short())
			}
			if !reopened.chain.StorageStats().Recovered {
				t.Error("stats do not report recovery")
			}
			if got := sizeOnDisk(t, path); got != size {
				t.Errorf("log is %d bytes after recovery, want %d", got, size)
			}
		})
	}
}

// TestCorruptCommittedBlockFailsLoudly flips a byte inside an acknowledged
// log record: the WAL then claims more blocks than the log can produce,
// which must refuse to open rather than serve a chain with holes.
func TestCorruptCommittedBlockFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	f := mustOpen(t, dir, 0)
	for i := 0; i < 3; i++ {
		f.extend(1)
	}
	if err := f.chain.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, logName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := openFixture(t, dir, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt committed block: got %v, want ErrCorrupt", err)
	}
}

// TestSnapshotFileLayout: SaveSnapshot writes header, state blob and CRC
// straight to the file, and the bytes are the layout built in one buffer,
// kept here as the oracle.
func TestSnapshotFileLayout(t *testing.T) {
	snap := chain.StoredSnapshot{
		Height:    7,
		BlockID:   types.HashBytes([]byte("block")),
		StateRoot: types.HashBytes([]byte("root")),
		State:     bytes.Repeat([]byte("state blob "), 100),
	}
	want := append([]byte("SCP1"), binary.BigEndian.AppendUint64(nil, snap.Height)...)
	want = append(want, snap.BlockID[:]...)
	want = append(want, snap.StateRoot[:]...)
	want = binary.BigEndian.AppendUint64(want, uint64(len(snap.State)))
	want = append(want, snap.State...)
	want = binary.BigEndian.AppendUint32(want, crc32.Checksum(want, crcTable))

	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot file differs from the one-buffer layout:\n got %x\nwant %x", got, want)
	}
	if back, ok := d.readSnapshot(); !ok || back.Height != snap.Height || !bytes.Equal(back.State, snap.State) {
		t.Fatal("snapshot does not read back")
	}
}

// TestCorruptSnapshotFallsBackToReplay damages the snapshot file; reopen
// must ignore it and recover by full re-execution.
func TestCorruptSnapshotFallsBackToReplay(t *testing.T) {
	dir := t.TempDir()
	f := mustOpen(t, dir, 2)
	oracle := memFixture(t)
	oracle.nonces = f.nonces
	for i := 0; i < 6; i++ {
		blk := f.extend(1)
		if err := oracle.insert(blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.chain.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, snapName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-10] ^= 0x55
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	reopened := mustOpen(t, dir, 2)
	defer reopened.chain.Close()
	assertEqualChains(t, reopened.chain, oracle.chain)
}

// TestForeignDatadirRefused pins the meta check: a datadir initialized for
// one genesis refuses a chain with another.
func TestForeignDatadirRefused(t *testing.T) {
	dir := t.TempDir()
	f := mustOpen(t, dir, 0)
	f.extend(1)
	if err := f.chain.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := baseConfig()
	other := wallet.NewDeterministic("other-funder")
	cfg.Alloc[other.Address()] = types.EtherAmount(1) // different genesis state
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cfg.Storage = d
	if _, err := chain.New(cfg); !errors.Is(err, ErrForeignDatadir) {
		t.Fatalf("foreign datadir: got %v, want ErrForeignDatadir", err)
	}
}

// TestOldFormatDatadirRefused pins the meta version check: a format-1
// datadir may hold a contract creation below its snapshot, which a reopen
// would serve unvalidated, a format-2 one commits to the slot-walking
// account digest and the old contract layout, a format-3 one to a
// contract whose storage holds no report counts, severity tallies or SRA
// listing, and a format-4 one keeps its heads in a wal file beside a log
// without commit records (and, before that, may hold a blocks.idx), so
// each is refused by version, and the error names both versions.
func TestOldFormatDatadirRefused(t *testing.T) {
	for _, old := range []byte{1, 2, 3, 4} {
		dir := t.TempDir()
		f := mustOpen(t, dir, 0)
		f.extend(1)
		if err := f.chain.Close(); err != nil {
			t.Fatal(err)
		}

		path := filepath.Join(dir, metaName)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[4] = old
		binary.BigEndian.PutUint32(raw[metaSize-4:], crc32.Checksum(raw[:metaSize-4], crcTable))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		d, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := baseConfig()
		cfg.Storage = d
		_, err = chain.New(cfg)
		want := fmt.Sprintf("format %d, this build reads 5", old)
		if !errors.Is(err, ErrBadMeta) || !strings.Contains(err.Error(), want) {
			t.Fatalf("format-%d datadir: got %v, want ErrBadMeta naming both versions", old, err)
		}
		d.Close()
	}
}

// TestReorgSurvivesRestart grows a fork that wins after a restart cycle:
// side blocks must persist and replay must land on the same head the
// live chain chose.
func TestReorgSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	f := mustOpen(t, dir, 0)
	oracle := memFixture(t)
	oracle.nonces = f.nonces

	base := f.extend(1)
	if err := oracle.insert(base); err != nil {
		t.Fatal(err)
	}
	// Losing branch: one block on base. Winning branch: two blocks on base
	// built by the oracle and fed to the durable chain.
	loser, err := f.chain.BuildBlock(base.ID(), f.miner.Address(), base.Header.Time+10_000, 900, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.chain.InsertBlock(loser); err != nil {
		t.Fatal(err)
	}
	w1 := oracle.extend(1)
	w2 := oracle.extend(1)
	for _, blk := range []*types.Block{w1, w2} {
		if err := f.insert(blk); err != nil {
			t.Fatalf("winning branch import: %v", err)
		}
	}
	if f.chain.Head().ID() != w2.ID() {
		t.Fatal("reorg did not land before restart")
	}
	if err := f.chain.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := mustOpen(t, dir, 0)
	defer reopened.chain.Close()
	assertEqualChains(t, reopened.chain, oracle.chain)
	// The side block survived persistence too.
	if !reopened.chain.HasBlock(loser.ID()) {
		t.Error("side-fork block lost across restart")
	}
}

// TestViewsStayValidAcrossCloseOpen holds ReadViews over a Close/Open
// cycle while readers hammer them from other goroutines — run under
// -race, this proves published views are genuinely immutable and restart
// cannot tear them.
func TestViewsStayValidAcrossCloseOpen(t *testing.T) {
	dir := t.TempDir()
	f := mustOpen(t, dir, 4)
	for i := 0; i < 8; i++ {
		f.extend(2)
	}
	view := f.chain.CurrentView()
	sc := baseConfig().Contract
	wantHead := view.HeadID()
	wantRoot := view.Head().Header.StateRoot

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if view.HeadID() != wantHead {
					t.Error("view head changed")
					return
				}
				_ = view.AppendBlocksRange(nil, 0, view.HeadNumber())
				st := view.State()
				_ = sc.SRACount(st)
				_ = st.Balance(f.payer.Address())
				if view.Head().Header.StateRoot != wantRoot {
					t.Error("view state root changed")
					return
				}
			}
		}()
	}

	if err := f.chain.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := mustOpen(t, dir, 4)
	reopened.nonces = f.nonces
	for i := 0; i < 4; i++ {
		reopened.extend(1)
	}
	if err := reopened.chain.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
}

// sizeOnDisk returns the size of the file at path.
func sizeOnDisk(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}
