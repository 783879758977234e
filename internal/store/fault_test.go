package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
)

// faultFS is a datadir seen through the Disk's seam, with one fault armed
// at the n-th faultable call: a Write or Sync on any file it opened, a
// Rename, or a directory sync. It logs every call that changes the
// datadir, in order, and can hold the next Sync until released.
type faultFS struct {
	mu     sync.Mutex
	calls  []string     // "open blocks.log", "write meta", "sync meta", "syncdir", ...
	files  []*faultFile // every file opened, for a power cut and for cleanup
	ops    int          // faultable calls so far
	at     int          // the faultable call the fault fires at; 0 for none
	atCall string       // or the next faultable call so named
	fault  fault
	fired  string // the call the fault fired at
	dead   bool
	stall  *stall
}

// fault is what the armed call does.
type fault int

const (
	// failEIO fails the call once with EIO, doing nothing.
	failEIO fault = iota + 1
	// writeShort makes a Write put half its bytes and fail with ENOSPC;
	// any other call fails as failEIO.
	writeShort
	// kill dies before the call, as kill -9 does: what was written stays.
	kill
	// powerCut dies before the call and first cuts every open file back
	// to its size at its last Sync, as a power cut may.
	powerCut
)

func (f fault) String() string {
	return [...]string{failEIO: "eio", writeShort: "enospc", kill: "kill", powerCut: "power-cut"}[f]
}

// errDead is what every call returns once the fault filesystem has died.
var errDead = errors.New("faultfs: the process is dead")

// stall holds one Sync: entered is closed when the Sync starts, and the
// Sync goes on once release is closed.
type stall struct{ entered, release chan struct{} }

func newFaultFS(t *testing.T) *faultFS {
	fs := &faultFS{}
	t.Cleanup(fs.closeAll)
	return fs
}

// arm sets fault to fire at the n-th faultable call from now.
func (fs *faultFS) arm(n int, f fault) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.at, fs.atCall, fs.fault, fs.fired = fs.ops+n, "", f, ""
}

// armCall sets fault to fire at the next faultable call named call
// ("sync blocks.log").
func (fs *faultFS) armCall(call string, f fault) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.at, fs.atCall, fs.fault, fs.fired = 0, call, f, ""
}

// stallNextSync holds the next Sync, on any file, until release is closed.
func (fs *faultFS) stallNextSync() *stall {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.stall = &stall{entered: make(chan struct{}), release: make(chan struct{})}
	return fs.stall
}

// firedAt returns the call the armed fault fired at, "" while it has not.
func (fs *faultFS) firedAt() string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.fired
}

// log returns the calls so far, in order.
func (fs *faultFS) log() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]string(nil), fs.calls...)
}

// note logs a call that cannot fault (a read, when call is ""), failing
// it once the filesystem died.
func (fs *faultFS) note(call string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if call != "" {
		fs.calls = append(fs.calls, call)
	}
	if fs.dead {
		return errDead
	}
	return nil
}

// op logs a faultable call and returns the fault it meets, 0 for none, or
// errDead when the filesystem died at or before it.
func (fs *faultFS) op(call string) (fault, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.calls = append(fs.calls, call)
	if fs.dead {
		return 0, errDead
	}
	if fs.ops++; fs.ops != fs.at && (fs.atCall == "" || call != fs.atCall) {
		return 0, nil
	}
	fs.at, fs.atCall, fs.fired = 0, "", call
	if fs.fault == kill || fs.fault == powerCut {
		fs.dieLocked(fs.fault)
		return 0, errDead
	}
	return fs.fault, nil
}

// die kills the process now, as kill -9 or a power cut (mode) would.
func (fs *faultFS) die(mode fault) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.dieLocked(mode)
}

func (fs *faultFS) dieLocked(mode fault) {
	if mode == powerCut {
		for _, f := range fs.files {
			if info, err := f.f.Stat(); err == nil && info.Size() > f.synced {
				_ = f.f.Truncate(f.synced)
			}
		}
	}
	fs.dead = true
}

// closeAll closes every file the filesystem opened.
func (fs *faultFS) closeAll() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, f := range fs.files {
		_ = f.f.Close()
	}
}

func (fs *faultFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	if err := fs.note("open " + filepath.Base(name)); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	ff := &faultFile{fs: fs, name: filepath.Base(name), f: f, synced: info.Size()}
	fs.mu.Lock()
	fs.files = append(fs.files, ff)
	fs.mu.Unlock()
	return ff, nil
}

func (fs *faultFS) ReadFile(name string) ([]byte, error) {
	if err := fs.note(""); err != nil {
		return nil, err
	}
	return os.ReadFile(name)
}

func (fs *faultFS) Rename(from, to string) error {
	if fault, err := fs.op("rename " + filepath.Base(from) + " " + filepath.Base(to)); err != nil || fault != 0 {
		return errors.Join(err, faultErr(fault))
	}
	return os.Rename(from, to)
}

func (fs *faultFS) Remove(name string) error {
	if err := fs.note("remove " + filepath.Base(name)); err != nil {
		return err
	}
	return os.Remove(name)
}

func (fs *faultFS) SyncDir(dir string) error {
	if fault, err := fs.op("syncdir"); err != nil || fault != 0 {
		return errors.Join(err, faultErr(fault))
	}
	return syncDir(dir)
}

// faultErr is the error a call that met fault f returns, nil for none.
func faultErr(f fault) error {
	switch f {
	case failEIO, writeShort:
		return syscall.EIO
	}
	return nil
}

// faultFile is one file a faultFS opened: the real file, and its size at
// its last Sync.
type faultFile struct {
	fs     *faultFS
	name   string
	f      *os.File
	synced int64 // guarded by fs.mu
}

func (f *faultFile) Write(p []byte) (int, error) {
	fault, err := f.fs.op("write " + f.name)
	switch {
	case err != nil:
		return 0, err
	case fault == failEIO:
		return 0, syscall.EIO
	case fault == writeShort:
		n, _ := f.f.Write(p[:len(p)/2])
		return n, syscall.ENOSPC
	}
	return f.f.Write(p)
}

func (f *faultFile) Sync() error {
	f.fs.mu.Lock()
	s := f.fs.stall
	f.fs.stall = nil
	f.fs.mu.Unlock()
	if s != nil {
		close(s.entered)
		<-s.release
	}
	if fault, err := f.fs.op("sync " + f.name); err != nil || fault != 0 {
		return errors.Join(err, faultErr(fault))
	}
	if err := f.f.Sync(); err != nil {
		return err
	}
	info, err := f.f.Stat()
	if err != nil {
		return err
	}
	f.fs.mu.Lock()
	f.synced = info.Size()
	f.fs.mu.Unlock()
	return nil
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.fs.note(""); err != nil {
		return 0, err
	}
	return f.f.ReadAt(p, off)
}

func (f *faultFile) Truncate(size int64) error {
	if err := f.fs.note("truncate " + f.name); err != nil {
		return err
	}
	return f.f.Truncate(size)
}

func (f *faultFile) Stat() (os.FileInfo, error) {
	if err := f.fs.note(""); err != nil {
		return nil, err
	}
	return f.f.Stat()
}

func (f *faultFile) Close() error {
	err := f.fs.note("close " + f.name)
	return errors.Join(err, f.f.Close())
}

// indexOf returns the index of the first call in calls that starts with
// prefix at or after from, or -1.
func indexOf(calls []string, from int, prefix string) int {
	for i := from; i < len(calls); i++ {
		if strings.HasPrefix(calls[i], prefix) {
			return i
		}
	}
	return -1
}
