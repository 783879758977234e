// Fixture for the fsyncdisc pass. Loaded as-if it were internal/store:
// every os.File write needs a later Sync or Close on the same handle in
// the same function, or an audited allowlist entry.
package fixfsync

import (
	"bytes"
	"os"
)

type journal struct {
	logF *os.File
	auxF *os.File
}

// badFireAndForget writes and returns; the bytes live in the page cache
// only.
func badFireAndForget(f *os.File, data []byte) error {
	_, err := f.Write(data) // want `os.File.Write on "f" with no later Sync/Close`
	return err
}

// badWrongHandle syncs the WAL, not the file it wrote.
func badWrongHandle(j *journal, wal *os.File, data []byte) error {
	if _, err := j.logF.Write(data); err != nil { // want `os.File.Write on "logF" with no later Sync/Close`
		return err
	}
	return wal.Sync()
}

// badFieldWriteAt covers the WriteAt variant through a struct field.
func badFieldWriteAt(j *journal, data []byte) error {
	_, err := j.auxF.WriteAt(data, 0) // want `os.File.WriteAt on "auxF" with no later Sync/Close`
	return err
}

// badSyncBeforeWrite has the commit point on the wrong side: a Sync that
// already ran cannot flush a later write.
func badSyncBeforeWrite(f *os.File, data []byte) error {
	if err := f.Sync(); err != nil {
		return err
	}
	_, err := f.WriteString("trailer") // want `os.File.WriteString on "f" with no later Sync/Close`
	return err
}

// goodWriteThenSync is the canonical commit shape.
func goodWriteThenSync(f *os.File, data []byte) error {
	if _, err := f.Write(data); err != nil {
		return err
	}
	return f.Sync()
}

// goodWriteThenClose releases the handle, which is the teardown-path
// commit point the discipline accepts.
func goodWriteThenClose(f *os.File, data []byte) error {
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goodDeferredClose runs the commit at return even though the defer is
// written above the write.
func goodDeferredClose(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(data); err != nil {
		return err
	}
	return f.Sync()
}

// goodPerHandle syncs each handle it wrote, interleaved.
func goodPerHandle(j *journal, data []byte) error {
	if _, err := j.logF.Write(data); err != nil {
		return err
	}
	if _, err := j.auxF.Write(data); err != nil {
		return err
	}
	if err := j.logF.Sync(); err != nil {
		return err
	}
	return j.auxF.Sync()
}

// goodNotAFile writes to an in-memory buffer; fsync is meaningless.
func goodNotAFile(buf *bytes.Buffer, data []byte) (int, error) {
	return buf.Write(data)
}
