package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// fixture drives a durable chain: wallets, nonce bookkeeping and a block
// builder, so tests express "grow the chain, kill it, reopen it" directly.
type fixture struct {
	t      *testing.T
	chain  *chain.Chain
	miner  *wallet.Wallet
	payer  *wallet.Wallet
	nonces map[types.Address]uint64
}

func baseConfig() chain.Config {
	verifier := contract.VerifierFunc(func(types.Hash, types.Finding) bool { return true })
	cfg := chain.DefaultConfig(contract.New(contract.DefaultParams(), verifier))
	cfg.SkipPoWCheck = true
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
	cfg := baseConfig()
	d, err := Open(dir)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
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

// TestLogRecordsWrittenOnce: an AppendBlocks log buffer is one allocation
// of exactly its size, and its bytes are the record layout written block
// by block from EncodeBlock — the way the log was built before, kept here
// as the oracle — so the log format is unchanged.
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
	var got []byte
	recs := make([]types.BlockRecord, len(blocks))
	for i, blk := range blocks {
		recs[i].Block = blk
	}
	if n := testing.AllocsPerRun(20, func() { got = encodeLogRecords(recs) }); n != 1 {
		t.Errorf("encodeLogRecords made %v allocations for %d blocks, want 1", n, len(blocks))
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("log records differ from the per-block layout:\n got %x\nwant %x", got, want)
	}
	if len(got) != cap(got) {
		t.Errorf("%d-byte log buffer in a %d-byte slice", len(got), cap(got))
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

// TestCrashInjection kills the commit protocol at every interior point and
// proves reopen recovers a consistent head. Before the WAL record is
// written that is the last acknowledged head, and the lost blocks are
// accepted again; at wal-written the record is on its way to disk, so
// either head is legal — a process kill leaves the record in the OS
// buffer and the commit stands, a power cut may lose it — but whichever
// head comes back, the chain must equal the oracle there. The commit is
// one InsertBlock, or one InsertChain run of several blocks, which lands
// or is lost whole: the head never comes back inside it.
func TestCrashInjection(t *testing.T) {
	for _, point := range []string{"log-written", "log-synced", "wal-written"} {
		t.Run(point, func(t *testing.T) { crashAt(t, point) })
	}
}

// crashAt is one TestCrashInjection point, for a single block and a run.
func crashAt(t *testing.T, point string) {
	for _, size := range []int{1, 5} {
		t.Run(fmt.Sprintf("%d-block", size), func(t *testing.T) {
			// One stage-1 worker verifies the whole batch (its senders
			// are warm) before the import gets the CPU back, so the
			// batch is committed as one run.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			dir := t.TempDir()
			f := mustOpen(t, dir, 0)
			oracle := memFixture(t)
			oracle.nonces = f.nonces
			var committed []*types.Block
			for i := 0; i < 5; i++ {
				committed = append(committed, f.extend(1))
			}
			for _, blk := range committed {
				if err := oracle.insert(blk); err != nil {
					t.Fatal(err)
				}
			}
			var lost []*types.Block
			for i := 0; i < size; i++ {
				lost = append(lost, oracle.extend(1))
			}

			f.chain.Config().Storage.(*Disk).SetCrashPoint(point)
			if _, err := f.chain.InsertChain(lost); err == nil {
				t.Fatal("injected crash did not surface")
			}
			// Simulated kill -9: abandon the chain without Close (no
			// final snapshot).

			reopened := mustOpen(t, dir, 0)
			defer reopened.chain.Close()
			switch got := reopened.chain.Head().ID(); {
			case got == committed[len(committed)-1].ID():
				if !reopened.chain.StorageStats().Recovered {
					t.Error("stats do not report crash recovery")
				}
				// The lost blocks are re-importable (the network would
				// re-gossip them).
				if _, err := reopened.chain.InsertChain(lost); err != nil {
					t.Fatalf("re-import of lost blocks: %v", err)
				}
			case point == "wal-written" && got == lost[len(lost)-1].ID():
				// The unsynced WAL record survived: the commit stands.
			default:
				t.Fatalf("recovered head %s, want last committed %s or (at wal-written) %s", got.Short(),
					committed[len(committed)-1].ID().Short(), lost[len(lost)-1].ID().Short())
			}
			assertEqualChains(t, reopened.chain, oracle.chain)
		})
	}
}

// TestRunWritesTheLogOfSingleImports: the block log a batched import
// leaves is byte for byte the one importing the same blocks one at a
// time leaves; only the WAL, one record per commit, is shorter.
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
	if !bytes.Equal(read(batched, logName), read(one, logName)) {
		t.Error("a batched import wrote a different block log")
	}
	if got, single := len(read(batched, walName)), len(read(one, walName)); got > single {
		t.Errorf("batched WAL is %d bytes, single-block WAL %d", got, single)
	}
	for _, f := range []*fixture{a, b} {
		if err := f.chain.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMidCommitErrorLatchesFailStop: a mid-commit error can leave
// CRC-valid log records the WAL never acknowledged. If a later commit
// from the same handle were allowed to succeed, the next open would count
// those orphans toward the acknowledged sequence and truncate a genuinely
// committed block. The handle must latch fail-stop instead; reopening the
// datadir recovers normally.
func TestMidCommitErrorLatchesFailStop(t *testing.T) {
	dir := t.TempDir()
	f := mustOpen(t, dir, 0)
	oracle := memFixture(t)
	oracle.nonces = f.nonces
	committed := f.extend(1)
	if err := oracle.insert(committed); err != nil {
		t.Fatal(err)
	}
	lost := oracle.extend(1)
	next := oracle.extend(1)

	f.chain.Config().Storage.(*Disk).SetCrashPoint("log-written")
	if err := f.insert(lost); err == nil {
		t.Fatal("injected mid-commit error did not surface")
	}
	// The handle is latched: retrying must fail with ErrFailed, not commit
	// past the orphan log bytes.
	if err := f.insert(lost); !errors.Is(err, ErrFailed) {
		t.Fatalf("append after mid-commit error: got %v, want ErrFailed", err)
	}

	reopened := mustOpen(t, dir, 0)
	defer reopened.chain.Close()
	if got, want := reopened.chain.Head().ID(), committed.ID(); got != want {
		t.Fatalf("recovered head %s, want last committed %s", got.Short(), want.Short())
	}
	if err := reopened.insert(lost); err != nil {
		t.Fatalf("re-import after recovery: %v", err)
	}
	if err := reopened.insert(next); err != nil {
		t.Fatalf("import past recovery: %v", err)
	}
	assertEqualChains(t, reopened.chain, oracle.chain)
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

	dir := t.TempDir()
	f := mustOpen(t, dir, 0)
	f.chain.Config().Storage.(*Disk).SetCrashPoint("log-written")
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

// TestTornTailRecovery appends garbage to the log and WAL — the torn-write
// shapes a real crash leaves — and proves reopen heals both.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	f := mustOpen(t, dir, 0)
	var last *types.Block
	for i := 0; i < 4; i++ {
		last = f.extend(1)
	}
	if err := f.chain.Close(); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{logName, walName} {
		path := filepath.Join(dir, name)
		fh, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
			t.Fatal(err)
		}
		fh.Close()
	}

	reopened := mustOpen(t, dir, 0)
	defer reopened.chain.Close()
	if got := reopened.chain.Head().ID(); got != last.ID() {
		t.Fatalf("recovered head %s, want %s", got.Short(), last.ID().Short())
	}
	if !reopened.chain.StorageStats().Recovered {
		t.Error("stats do not report recovery")
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

// TestStaleIndexFileRemoved opens a datadir left by a build that still
// wrote blocks.idx: the file is dropped unread, nothing counts as crash
// recovery, the chain comes back at the same head and root, and the
// datadir holds exactly the four documented files.
func TestStaleIndexFileRemoved(t *testing.T) {
	dir := t.TempDir()
	f := mustOpen(t, dir, 0)
	var last *types.Block
	for i := 0; i < 3; i++ {
		last = f.extend(1)
	}
	if err := f.chain.Close(); err != nil {
		t.Fatal(err)
	}
	idx := filepath.Join(dir, "blocks.idx")
	if err := os.WriteFile(idx, []byte("not an index any build would have written"), 0o644); err != nil {
		t.Fatal(err)
	}

	reopened := mustOpen(t, dir, 0)
	defer reopened.chain.Close()
	if got := reopened.chain.Head().ID(); got != last.ID() {
		t.Fatalf("reopened head %s, want %s", got.Short(), last.ID().Short())
	}
	if got, want := reopened.chain.State().Root(), last.Header.StateRoot; got != want {
		t.Fatalf("reopened state root %s, want %s", got.Short(), want.Short())
	}
	stats := reopened.chain.StorageStats()
	if stats.Recovered {
		t.Error("dropping a stale index was reported as crash recovery")
	}
	if stats.IndexBytes != 0 {
		t.Errorf("IndexBytes = %d, want 0", stats.IndexBytes)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{logName, metaName, snapName, walName}; !slices.Equal(names, want) {
		t.Errorf("datadir holds %v, want %v", names, want)
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
// account digest and the old contract layout, and a format-3 one to a
// contract whose storage holds no report counts, severity tallies or SRA
// listing, so each is refused by version, and the error names both
// versions.
func TestOldFormatDatadirRefused(t *testing.T) {
	for _, old := range []byte{1, 2, 3} {
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
		want := fmt.Sprintf("format %d, this build reads 4", old)
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
	sc := f.chain.Config().Contract
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
				_ = view.BlocksRange(0, view.HeadNumber())
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

// SetCrashPoint arms the crash-injection hook: the next AppendBlocks
// aborts with an error when it reaches the named protocol point
// ("log-written", "log-synced", "wal-written"), without performing the
// remaining steps. Tests reopen the datadir afterwards to prove recovery.
func (d *Disk) SetCrashPoint(point string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashPoint = point
}
