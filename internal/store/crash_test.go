package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// TestCrashInjection kills the store at every faultable call — each Write
// and Sync, a snapshot's Rename and each directory fsync — of six pieces
// of work, once as kill -9 (what was written stays) and once as a power
// cut (every open file is cut back to its last Sync), and reopens the
// datadir after each death and once the work completed. The reopened
// chain must stand at the head of the last commit that stands — the last
// one acknowledged, or the one in flight when its bytes survive — and
// equal the oracle chain at that head; the lost blocks are accepted
// again.
func TestCrashInjection(t *testing.T) {
	t.Run("1-block", func(t *testing.T) {
		crashCommit(t, func(f *fixture) []*types.Block { return []*types.Block{f.extend(1)} })
	})
	t.Run("5-block", func(t *testing.T) {
		crashCommit(t, func(f *fixture) []*types.Block {
			var run []*types.Block
			for i := 0; i < 5; i++ {
				run = append(run, f.extend(1))
			}
			return run
		})
	})
	// A commit several times the write buffer, one of its records larger
	// than the buffer: it reaches the file in several writes.
	t.Run("mid-flush", func(t *testing.T) {
		crashCommit(t, func(f *fixture) []*types.Block {
			return []*types.Block{f.extendBulky(6), f.extendBulky(9), f.extendBulky(4), f.extendBulky(7)}
		})
	})
	t.Run("adopt-prefix", crashAdoptPrefix)
	t.Run("snapshot", crashSnapshot)
	t.Run("chain-run", crashChainRun)
	for _, point := range []string{"records-written", "commit-written", "synced"} {
		t.Run(point, func(t *testing.T) {
			for _, size := range []int{1, 5} {
				t.Run(fmt.Sprintf("%d-block", size), func(t *testing.T) { crashAt(t, point, size) })
			}
		})
	}
}

// crashAt dies in a commit of size blocks, on a chain of three
// single-block commits, at one of the three shapes a death leaves the log
// in. At records-written the run's records are in the file without their
// commit record: the open truncates them, reports the recovery and lands
// on the last acknowledged head. At commit-written every byte is written
// and nothing synced: a kill leaves the commit standing, a power cut takes
// it. At synced the commit returned and the process is gone without Close:
// the commit stands.
func crashAt(t *testing.T, point string, size int) {
	src := memFixture(t)
	var acked, flight []*types.Block
	for i := 0; i < 3; i++ {
		acked = append(acked, src.extend(1))
	}
	for i := 0; i < size; i++ {
		flight = append(flight, src.extend(1))
	}
	head := flight[len(flight)-1]
	// A power cut before the log's sync takes the records too, so the
	// records-written shape is left by a kill alone.
	modes := []fault{kill, powerCut}
	if point == "records-written" {
		modes = modes[:1]
	}
	for _, mode := range modes {
		dir, fs := t.TempDir(), newFaultFS(t)
		d := openDisk(t, dir, fs, src, acked)
		logPath := filepath.Join(dir, logName)
		before := fileSizeOf(t, logPath)
		if point != "synced" {
			fs.armCall("sync "+logName, mode)
		}
		err := d.AppendBlocks(flight, head.ID(), head.Header.Number)
		if point == "synced" {
			if err != nil {
				t.Fatal(err)
			}
			fs.die(mode)
		} else if err == nil {
			t.Fatalf("%s (%s): the commit survived its death at the log's sync", point, mode)
		}
		stands := point == "synced" || point == "commit-written" && mode == kill
		if point == "records-written" {
			// Cut the commit record off the end of the fully written run.
			after := fileSizeOf(t, logPath)
			if after-before <= commitSize {
				t.Fatalf("%s: the log grew %d bytes, no record ahead of the commit record", point, after-before)
			}
			if err := os.Truncate(logPath, after-commitSize); err != nil {
				t.Fatal(err)
			}
			reopened, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := reopened.Load(src.chain.Genesis().ID()); err != nil {
				t.Fatal(err)
			}
			recovered := reopened.Stats().Recovered
			reopened.Close()
			if !recovered {
				t.Errorf("%s: stats do not report crash recovery", point)
			}
		}
		checkReopen(t, dir, acked, flight, stands)
	}
}

// fileSizeOf returns the size of the file at path.
func fileSizeOf(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// stepDeaths runs a fresh copy of some work once per faultable call it
// makes, dying at that call, in each death mode, and once more where it
// completes. setup prepares a datadir through fs and returns the work;
// check is handed the datadir, the mode and the call the work died at
// ("" when it completed).
func stepDeaths(t *testing.T, setup func(t *testing.T, dir string, fs *faultFS) func() error, check func(t *testing.T, dir string, mode fault, death string)) {
	for _, mode := range []fault{kill, powerCut} {
		t.Run(mode.String(), func(t *testing.T) {
			for n := 1; ; n++ {
				dir, fs := t.TempDir(), newFaultFS(t)
				work := setup(t, dir, fs)
				fs.arm(n, mode)
				err := work()
				death := fs.firedAt()
				switch {
				case death == "" && err != nil:
					t.Fatalf("the work fails with no fault: %v", err)
				case death != "" && err == nil:
					t.Fatalf("the work survived its death at call %d (%s)", n, death)
				}
				check(t, dir, mode, death)
				if death == "" {
					t.Logf("%d boundaries", n-1)
					return
				}
			}
		})
	}
}

// commitStands reports whether a commit whose only Sync is the log's must
// be found on reopen: once it completed, or when kill -9 took it at that
// Sync, every byte of it being written. A power cut takes everything
// written since the last Sync.
func commitStands(mode fault, death string) bool {
	return death == "" || mode == kill && death == "sync "+logName
}

// chainOf returns an in-memory chain of blocks, the oracle at their last.
func chainOf(t *testing.T, blocks []*types.Block) *chain.Chain {
	t.Helper()
	f := memFixture(t)
	if len(blocks) == 0 {
		return f.chain
	}
	if _, err := f.chain.InsertChain(blocks); err != nil {
		t.Fatal(err)
	}
	return f.chain
}

// checkReopen reopens dir and requires it at the head of acked, or of
// acked+flight when the commit of flight stands, equal to the oracle
// there; from acked, flight must be accepted again.
func checkReopen(t *testing.T, dir string, acked, flight []*types.Block, stands bool) {
	t.Helper()
	all := slices.Concat(acked, flight)
	reopened := mustOpen(t, dir, 0)
	defer reopened.chain.Close()
	if !stands {
		assertEqualChains(t, reopened.chain, chainOf(t, acked))
		if _, err := reopened.chain.InsertChain(flight); err != nil {
			t.Fatalf("re-import of the lost blocks: %v", err)
		}
	}
	assertEqualChains(t, reopened.chain, chainOf(t, all))
}

// crashCommit dies in a commit of the blocks run adds to a chain of three
// single-block commits, the commit written through AppendRecords as one
// run.
func crashCommit(t *testing.T, run func(*fixture) []*types.Block) {
	src := memFixture(t)
	var acked []*types.Block
	for i := 0; i < 3; i++ {
		acked = append(acked, src.extend(1))
	}
	flight := run(src)
	recs := make([]types.BlockRecord, len(flight))
	for i, blk := range flight {
		recs[i].Block = blk
	}
	head := flight[len(flight)-1]
	stepDeaths(t, func(t *testing.T, dir string, fs *faultFS) func() error {
		d := openDisk(t, dir, fs, src, acked)
		return func() error { return d.AppendRecords(recs, head.ID(), head.Header.Number) }
	}, func(t *testing.T, dir string, mode fault, death string) {
		checkReopen(t, dir, acked, flight, commitStands(mode, death))
	})
}

// crashAdoptPrefix dies anywhere from the first open of a fresh datadir
// — its meta, the directory fsync — through the commit of a snap-join's
// prefix of records.
func crashAdoptPrefix(t *testing.T) {
	src := memFixture(t)
	var prefix []*types.Block
	for i := 0; i < 5; i++ {
		prefix = append(prefix, src.extend(1))
	}
	recs, head := recordsOf(prefix), prefix[len(prefix)-1]
	stepDeaths(t, func(t *testing.T, dir string, fs *faultFS) func() error {
		return func() error {
			d, err := openWith(dir, fs)
			if err != nil {
				return err
			}
			if _, err := d.Load(src.chain.Genesis().ID()); err != nil {
				return err
			}
			return d.AppendRecords(recs, head.ID(), head.Header.Number)
		}
	}, func(t *testing.T, dir string, mode fault, death string) {
		checkReopen(t, dir, nil, prefix, commitStands(mode, death))
	})
}

// crashSnapshot dies in a snapshot save that replaces an older one: the
// snapshot that reads back is whole, the old one until the rename and the
// new one from then on, and the chain reopens on it.
func crashSnapshot(t *testing.T) {
	src := memFixture(t)
	var blocks []*types.Block
	for i := 0; i < 4; i++ {
		blocks = append(blocks, src.extend(1))
	}
	old, snap := snapshotAt(t, blocks[:2]), src.chain.SnapshotNow()
	stepDeaths(t, func(t *testing.T, dir string, fs *faultFS) func() error {
		d := openDisk(t, dir, fs, src, blocks)
		if err := d.SaveSnapshot(old); err != nil {
			t.Fatal(err)
		}
		return func() error { return d.SaveSnapshot(snap) }
	}, func(t *testing.T, dir string, mode fault, death string) {
		want := old
		if death == "" || death == "syncdir" {
			want = snap
		}
		d, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		back, ok := d.readSnapshot()
		d.Close()
		if !ok || back.Height != want.Height || back.BlockID != want.BlockID || !bytes.Equal(back.State, want.State) {
			t.Fatalf("died at %q: the snapshot reads back %v, want the one at #%d whole", death, ok, want.Height)
		}
		checkReopen(t, dir, blocks, nil, true)
	})
}

// snapshotAt returns the snapshot of an in-memory chain of blocks.
func snapshotAt(t *testing.T, blocks []*types.Block) chain.StoredSnapshot {
	t.Helper()
	return chainOf(t, blocks).SnapshotNow()
}

// crashChainRun dies in a chain's InsertChain of the blocks #4 to #70,
// which commits them in two runs, cut at #64 (a multiple of the chain's
// 64-block window): #4–#64 and #65–#70. The chain reopens at exactly the
// head of the last commit that stands — #3, #64 or #70 — equal to the
// oracle there.
func crashChainRun(t *testing.T) {
	src := memFixture(t)
	var line []*types.Block
	for i := 0; i < 70; i++ {
		line = append(line, src.extend(1))
	}
	acked, flight := line[:3], line[3:]
	heads := []*types.Block{line[2], line[63], line[69]} // after 0, 1 and 2 flight commits
	var (
		fs    *faultFS
		start int
	)
	stepDeaths(t, func(t *testing.T, dir string, ffs *faultFS) func() error {
		d, err := openWith(dir, ffs)
		if err != nil {
			t.Fatal(err)
		}
		cfg := baseConfig()
		cfg.Storage = d
		c, err := chain.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.InsertChain(acked); err != nil {
			t.Fatal(err)
		}
		fs, start = ffs, len(ffs.log())
		return func() error {
			_, err := c.InsertChain(flight)
			return err
		}
	}, func(t *testing.T, dir string, mode fault, death string) {
		// A flight commit stands once its log sync returned, or when kill -9
		// took it at that sync.
		stood := 0
		for _, call := range fs.log()[start:] {
			if call == "sync "+logName {
				stood++
			}
		}
		if death == "sync "+logName && !commitStands(mode, death) {
			stood--
		}
		want := heads[stood]
		reopened := mustOpen(t, dir, 0)
		defer reopened.chain.Close()
		if got := reopened.chain.Head(); got.ID() != want.ID() {
			t.Fatalf("died at %q (%s) after %d flight commits stood: reopened at #%d, want #%d",
				death, mode, stood, got.Header.Number, want.Header.Number)
		}
		assertEqualChains(t, reopened.chain, chainOf(t, line[:want.Header.Number]))
		if _, err := reopened.chain.InsertChain(line[want.Header.Number:]); err != nil {
			t.Fatalf("re-import of the lost blocks: %v", err)
		}
		assertEqualChains(t, reopened.chain, src.chain)
	})
}

// TestImportWritesTheSameWayEveryTime imports one 200-block batch of
// transfers on ten fresh durable chains and requires the same sequence of
// writes and syncs from each: how InsertChain cuts a batch into commits
// depends on the blocks, not on how far its verification workers got.
func TestImportWritesTheSameWayEveryTime(t *testing.T) {
	src := memFixture(t)
	batch := make([]*types.Block, 200)
	for i := range batch {
		batch[i] = src.extend(3)
	}
	var first []string
	for run := 0; run < 10; run++ {
		fs := newFaultFS(t)
		d, err := openWith(t.TempDir(), fs)
		if err != nil {
			t.Fatal(err)
		}
		cfg := baseConfig()
		cfg.Storage = d
		c, err := chain.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		start := len(fs.log())
		if _, err := c.InsertChain(batch); err != nil {
			t.Fatal(err)
		}
		calls := fs.log()[start:]
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = calls
			if syncs := strings.Count(strings.Join(calls, "\n"), "sync "+logName); syncs != 4 {
				t.Fatalf("the batch committed with %d log syncs, want 4 (#1–#64, #65–#128, #129–#192, #193–#200)", syncs)
			}
			continue
		}
		if !slices.Equal(calls, first) {
			t.Fatalf("import %d made the calls\n%q\nimport 1 made\n%q", run+1, calls, first)
		}
	}
}

// TestSnapshotSaveFailureKeepsOld fails each call of a snapshot save that
// replaces an older one — each Write of the temp file (EIO, or short with
// ENOSPC), its Sync, the Rename, the directory fsync — in a process that
// keeps running. The error reaches the caller, the datadir holds the log,
// meta and one snapshot and no temp file, and Stats reports the snapshot
// a reopen reads: the old one, whole, unless the directory fsync failed.
// The rename was done by then, so the new snapshot is live, and the error
// says it is saved but not yet durable.
func TestSnapshotSaveFailureKeepsOld(t *testing.T) {
	src := memFixture(t)
	var blocks []*types.Block
	for i := 0; i < 4; i++ {
		blocks = append(blocks, src.extend(1))
	}
	old, snap := snapshotAt(t, blocks[:2]), src.chain.SnapshotNow()
	for _, mode := range []fault{failEIO, writeShort} {
		t.Run(mode.String(), func(t *testing.T) {
			for n := 1; ; n++ {
				dir, fs := t.TempDir(), newFaultFS(t)
				d := openDisk(t, dir, fs, src, blocks)
				if err := d.SaveSnapshot(old); err != nil {
					t.Fatal(err)
				}
				fs.arm(n, mode)
				err := d.SaveSnapshot(snap)
				failed := fs.firedAt()
				if failed == "" {
					if err != nil {
						t.Fatal(err)
					}
					t.Logf("%d calls failed in turn", n-1)
					return
				}
				wantErr := error(syscall.EIO)
				if mode == writeShort && strings.HasPrefix(failed, "write ") {
					wantErr = syscall.ENOSPC
				}
				if !errors.Is(err, wantErr) {
					t.Fatalf("save failing at %q: got %v, want %v", failed, err, wantErr)
				}
				stats := d.Stats() // before readSnapshot, which sets what it reports
				want := old
				if failed == "syncdir" {
					want = snap
				}
				if got := errors.Is(err, chain.ErrSnapshotNotDurable); got != (failed == "syncdir") {
					t.Errorf("save failing at %q: %v; not-durable %v, want %v", failed, err, got, !got)
				}
				if got := datadirEntries(t, dir); !slices.Equal(got, []string{logName, metaName, snapName}) {
					t.Errorf("save failing at %q leaves %q", failed, got)
				}
				if back, ok := d.readSnapshot(); !ok || back.Height != want.Height || !bytes.Equal(back.State, want.State) {
					t.Fatalf("save failing at %q: the snapshot at #%d does not read back whole", failed, want.Height)
				}
				d.Close()
				reopened := openDisk(t, dir, osFS{}, src, nil)
				if got, want := stats, reopened.Stats(); got.SnapshotHeight != want.SnapshotHeight || got.SnapshotBytes != want.SnapshotBytes {
					t.Errorf("save failing at %q: Stats reports the snapshot at #%d, %d bytes; a reopen reads #%d, %d bytes",
						failed, got.SnapshotHeight, got.SnapshotBytes, want.SnapshotHeight, want.SnapshotBytes)
				}
				reopened.Close()
			}
		})
	}
}

// TestStraySnapshotTempRemovedAtOpen: a crash in a snapshot save can leave
// its temp file, up to a whole state blob. Opening the datadir removes
// it, and the live snapshot still reads back.
func TestStraySnapshotTempRemovedAtOpen(t *testing.T) {
	src := memFixture(t)
	blocks := []*types.Block{src.extend(1), src.extend(1)}
	dir := t.TempDir()
	d := openDisk(t, dir, osFS{}, src, blocks)
	snap := src.chain.SnapshotNow()
	if err := d.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	d.Close()
	if err := os.WriteFile(filepath.Join(dir, snapTemp), []byte("a save cut short"), 0o644); err != nil {
		t.Fatal(err)
	}

	d = openDisk(t, dir, osFS{}, src, nil)
	defer d.Close()
	if got := datadirEntries(t, dir); !slices.Equal(got, []string{logName, metaName, snapName}) {
		t.Errorf("a reopen leaves %q", got)
	}
	if back, ok := d.readSnapshot(); !ok || back.Height != snap.Height || !bytes.Equal(back.State, snap.State) {
		t.Errorf("the snapshot at #%d does not read back whole after the reopen", snap.Height)
	}
}

// datadirEntries lists a datadir's file names, sorted.
func datadirEntries(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestDatadirEntriesSynced pins the directory fsyncs by the fault
// filesystem's call log. A fresh datadir's Load syncs the directory once,
// after it created blocks.log and meta and before the first commit
// writes, since fsync makes a new file's bytes durable and not its name; a
// reopen syncs none. A snapshot save syncs it after the rename.
func TestDatadirEntriesSynced(t *testing.T) {
	src := memFixture(t)
	blk := src.extend(1)
	dir, fs := t.TempDir(), newFaultFS(t)
	d := openDisk(t, dir, fs, src, []*types.Block{blk})
	if err := d.SaveSnapshot(src.chain.SnapshotNow()); err != nil {
		t.Fatal(err)
	}
	d.Close()
	calls := fs.log()
	want := []string{
		"open " + logName, "open " + metaName, "write " + metaName, "sync " + metaName, "close " + metaName, "syncdir",
		"remove " + snapTemp,
		"write " + logName, "sync " + logName,
		"open " + snapTemp, "write " + snapTemp, "write " + snapTemp, "write " + snapTemp,
		"sync " + snapTemp, "close " + snapTemp, "rename " + snapTemp + " " + snapName, "syncdir",
		"close " + logName,
	}
	if !slices.Equal(calls, want) {
		t.Errorf("a fresh datadir's first open, commit and snapshot save call\n %q\nwant\n %q", calls, want)
	}

	fs = newFaultFS(t)
	d = openDisk(t, dir, fs, src, nil)
	d.Close()
	if calls := fs.log(); slices.Contains(calls, "syncdir") {
		t.Errorf("a reopen syncs the datadir: %q", calls)
	}
}

// TestDirSyncErrorReachesCaller fails the directory fsync: a fresh
// datadir's Load fails with it, and so does a snapshot save, which the
// chain counts as saved but not yet durable, apart from failed ones.
func TestDirSyncErrorReachesCaller(t *testing.T) {
	src := memFixture(t)
	blk := src.extend(1)

	dir, fs := t.TempDir(), newFaultFS(t)
	d, err := openWith(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	fs.armCall("syncdir", failEIO)
	if _, err := d.Load(src.chain.Genesis().ID()); !errors.Is(err, syscall.EIO) {
		t.Fatalf("fresh Load with a failing directory fsync: got %v, want EIO", err)
	}
	d.Close()

	dir, fs = t.TempDir(), newFaultFS(t)
	if d, err = openWith(dir, fs); err != nil {
		t.Fatal(err)
	}
	f, err := fixtureOn(t, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.insert(blk); err != nil {
		t.Fatal(err)
	}
	failed := telemetry.GetCounter("smartcrowd_chain_snapshots_failed_total")
	notDurable := telemetry.GetCounter("smartcrowd_chain_snapshots_not_durable_total")
	failedBefore, notDurableBefore := failed.Value(), notDurable.Value()
	fs.armCall("syncdir", failEIO)
	if err := f.chain.Close(); err != nil { // saves the final snapshot
		t.Fatal(err)
	}
	if fs.firedAt() == "" {
		t.Fatal("Close saved no snapshot")
	}
	if got, gotFailed := notDurable.Value()-notDurableBefore, failed.Value()-failedBefore; got != 1 || gotFailed != 0 {
		t.Errorf("the chain counted %d snapshots not yet durable and %d failed, want 1 and 0", got, gotFailed)
	}
}

// TestStatsReportTrackedSizes: after every commit, Stats().LogBytes is
// the log's size on disk, and SnapshotBytes the snapshot file's, after a
// save and after a reopen.
func TestStatsReportTrackedSizes(t *testing.T) {
	dir := t.TempDir()
	f := mustOpen(t, dir, 0)
	oracle := memFixture(t)
	oracle.nonces = f.nonces
	logPath, snapPath := filepath.Join(dir, logName), filepath.Join(dir, snapName)
	checkLog := func(when string) {
		t.Helper()
		if got, want := f.disk.Stats().LogBytes, sizeOnDisk(t, logPath); got != want {
			t.Errorf("%s: Stats().LogBytes = %d, the log is %d bytes", when, got, want)
		}
	}
	for i := 0; i < 4; i++ {
		if err := oracle.insert(f.extend(i)); err != nil {
			t.Fatal(err)
		}
		checkLog("after a single-block commit")
	}
	var run []*types.Block
	for i := 0; i < 5; i++ {
		run = append(run, oracle.extendBulky(i%3+1))
	}
	if _, err := f.chain.InsertChain(run); err != nil {
		t.Fatal(err)
	}
	checkLog("after InsertChain")
	if got := f.disk.Stats().SnapshotBytes; got != 0 {
		t.Errorf("SnapshotBytes = %d before any snapshot", got)
	}
	if err := f.disk.SaveSnapshot(f.chain.SnapshotNow()); err != nil {
		t.Fatal(err)
	}
	if got, want := f.disk.Stats().SnapshotBytes, sizeOnDisk(t, snapPath); got != want {
		t.Errorf("after a save: SnapshotBytes = %d, the snapshot is %d bytes", got, want)
	}
	if err := f.chain.Close(); err != nil {
		t.Fatal(err)
	}

	f = mustOpen(t, dir, 0)
	defer f.chain.Close()
	checkLog("after a reopen")
	if got, want := f.disk.Stats().SnapshotBytes, sizeOnDisk(t, snapPath); got != want {
		t.Errorf("after a reopen: SnapshotBytes = %d, the snapshot is %d bytes", got, want)
	}
	if _, err := os.Stat(snapPath + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a snapshot temp file is left: %v", err)
	}
}
