package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// testLog lays runs of payloads out as blocks.log commits, the way
// AppendRecords does, each run's head named after its index.
func testLog(runs ...[][]byte) []byte {
	var raw []byte
	for i, run := range runs {
		var runCRC uint32
		for _, p := range run {
			raw = appendRecord(raw, types.BlockRecord{Raw: p})
			runCRC = crc32.Update(runCRC, crcTable, raw[len(raw)-logTrailerSize:])
		}
		raw = appendCommit(raw, len(run), types.HashBytes([]byte{byte(i)}), uint64(i+1), runCRC)
	}
	return raw
}

// threeCommits is a log of three commits, the middle one of three
// records, and the offset each commit ends at.
func threeCommits() (raw []byte, ends []int) {
	runs := [][][]byte{
		{[]byte("genesis child")},
		{[]byte("second"), []byte("third block"), []byte("fourth")},
		{[]byte("fifth")},
	}
	for i := range runs {
		ends = append(ends, len(testLog(runs[:i+1]...)))
	}
	return testLog(runs...), ends
}

// scanLogOracle is the open scan as it ran over a log read whole into
// memory: the reference the streaming scanLog is held to.
func scanLogOracle(raw []byte) (logScan, error) {
	var (
		s       logScan
		kept    int    // records of the commits kept so far
		runLen  int    // block records framed since the last commit record
		runCRC  uint32 // CRC-32C over those records' CRCs
		damaged = -1   // offset of the first record that failed, or -1
		closed  bool   // a commit holding the damage has ended
	)
	for off := 0; off+logHeaderSize <= len(raw); {
		rest := raw[off:]
		if length := binary.BigEndian.Uint32(rest); length != 0 {
			end := logHeaderSize + int(length) + logTrailerSize
			if length > maxLogRecord || len(rest) < end {
				break
			}
			payload, sum := rest[logHeaderSize:end-logTrailerSize], rest[end-logTrailerSize:end]
			if damaged < 0 && crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(sum) {
				damaged = off
			}
			if damaged < 0 {
				s.recs = append(s.recs, types.StoredRecord{Off: int64(off + logHeaderSize), Len: length, Sum: binary.BigEndian.Uint32(sum)})
			}
			runLen++
			runCRC = crc32.Update(runCRC, crcTable, sum)
			off += end
			continue
		}
		if len(rest) < commitSize {
			break
		}
		rec := rest[:commitSize]
		valid := int(binary.BigEndian.Uint32(rec[logHeaderSize:])) == runLen &&
			crc32.Update(runCRC, crcTable, rec[:commitSize-logTrailerSize]) == binary.BigEndian.Uint32(rec[commitSize-logTrailerSize:])
		switch {
		case valid && closed:
			return logScan{}, fmt.Errorf("%w: log record at offset %d fails its check inside an acknowledged commit", ErrCorrupt, damaged)
		case valid && damaged < 0:
			copy(s.headID[:], rec[8:])
			s.headNumber = binary.BigEndian.Uint64(rec[8+types.HashSize:])
			s.end = int64(off + commitSize)
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

// scanBytes runs the open scan over log bytes through a window of the
// given size.
func scanBytes(raw []byte, window int) (logScan, error) {
	return scanLog(&logReader{f: bytes.NewReader(raw), win: make([]byte, window)}, int64(len(raw)))
}

// payloadsOf returns the bytes of each record a scan of raw kept.
func payloadsOf(raw []byte, s logScan) [][]byte {
	out := make([][]byte, len(s.recs))
	for i, rec := range s.recs {
		out[i] = raw[rec.Off : rec.Off+int64(rec.Len)]
	}
	return out
}

// TestScanLogDamage: damage the scan can see past is a torn final commit
// when nothing valid follows it, and corruption when a later valid commit
// acknowledges the commit it sits in — whether a block record or the
// commit record itself is hit. The streaming scan is run through a window
// that holds the whole log and through one smaller than every record.
func TestScanLogDamage(t *testing.T) {
	raw, ends := threeCommits()
	for _, tc := range []struct {
		name    string
		at      int // byte flipped
		cut     int // log length kept, 0 for all
		wantEnd int
		corrupt bool
	}{
		{name: "intact", at: -1, wantEnd: ends[2]},
		{name: "first record, acknowledged", at: logHeaderSize + 2, corrupt: true},
		{name: "middle commit's record, acknowledged", at: ends[0] + logHeaderSize + 1, corrupt: true},
		{name: "middle commit's commit record, acknowledged", at: ends[1] - 10, corrupt: true},
		{name: "final commit's record", at: ends[1] + logHeaderSize + 1, wantEnd: ends[1]},
		{name: "final commit's commit record", at: ends[2] - 1, wantEnd: ends[1]},
		{name: "middle commit's record, later commit torn", at: ends[0] + logHeaderSize + 1, cut: ends[2] - 1, wantEnd: ends[0]},
		{name: "torn inside a record", at: -1, cut: ends[1] + 3, wantEnd: ends[1]},
		{name: "torn inside a commit record", at: -1, cut: ends[2] - 7, wantEnd: ends[1]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := slices.Clone(raw)
			if tc.at >= 0 {
				log[tc.at] ^= 0x40
			}
			if tc.cut > 0 {
				log = log[:tc.cut]
			}
			for _, window := range []int{writeBufSize, 5} {
				s, err := scanBytes(log, window)
				if tc.corrupt {
					if !errors.Is(err, ErrCorrupt) {
						t.Errorf("window %d: got end %d, err %v; want ErrCorrupt", window, s.end, err)
					}
					continue
				}
				if err != nil || s.end != int64(tc.wantEnd) {
					t.Errorf("window %d: got end %d, err %v; want end %d", window, s.end, err, tc.wantEnd)
				}
			}
		})
	}
}

// FuzzScanLog: on any log bytes and any window, down to a few bytes, the
// streaming open scan gives the in-memory oracle's verdict — the same kept
// records at the same offsets, head, end and error — without panicking. A
// record larger than the window still scans. What it keeps is only whole
// commits whose records all check, walked here by a reference reader, no
// record over maxLogRecord, and it keeps all of it when it rescans
// exactly those bytes.
func FuzzScanLog(f *testing.F) {
	raw, ends := threeCommits()
	f.Add(raw, uint16(writeBufSize-1))
	f.Add(raw[:ends[1]+5], uint16(16))
	f.Add([]byte{}, uint16(1))
	f.Add(make([]byte, commitSize+3), uint16(commitSize))
	damaged := slices.Clone(raw)
	damaged[ends[0]+logHeaderSize] ^= 1
	f.Add(damaged, uint16(3))
	big := binary.BigEndian.AppendUint32(slices.Clone(raw), maxLogRecord+1)
	f.Add(append(big, make([]byte, 64)...), uint16(8))
	f.Add(testLog([][]byte{bytes.Repeat([]byte{7}, 300)}, [][]byte{[]byte("x")}), uint16(40))

	f.Fuzz(func(t *testing.T, raw []byte, window uint16) {
		s, err := scanBytes(raw, int(window%512)+1)
		want, wantErr := scanLogOracle(raw)
		if (err == nil) != (wantErr == nil) || s.end != want.end || s.headID != want.headID ||
			s.headNumber != want.headNumber || !slices.Equal(s.recs, want.recs) {
			t.Fatalf("streaming scan: %d records, end %d, head #%d, err %v; oracle: %d records, end %d, head #%d, err %v",
				len(s.recs), s.end, s.headNumber, err, len(want.recs), want.end, want.headNumber, wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("scan error %v is not ErrCorrupt", err)
			}
			return
		}
		if s.end > int64(len(raw)) {
			t.Fatalf("kept %d bytes of %d", s.end, len(raw))
		}
		// The reference reader: whole records and commits, each checked.
		var (
			payloads [][]byte
			pending  [][]byte
			runCRC   uint32
			headID   types.Hash
			headNum  uint64
		)
		kept := raw[:s.end]
		for off := 0; off < len(kept); {
			if len(kept)-off < logHeaderSize {
				t.Fatalf("kept bytes end inside a record header at %d", off)
			}
			n := int(binary.BigEndian.Uint32(kept[off:]))
			if n == 0 {
				rec := kept[off : off+commitSize]
				if int(binary.BigEndian.Uint32(rec[4:])) != len(pending) ||
					crc32.Update(runCRC, crcTable, rec[:commitSize-4]) != binary.BigEndian.Uint32(rec[commitSize-4:]) {
					t.Fatalf("kept a commit record at %d that does not check", off)
				}
				copy(headID[:], rec[8:])
				headNum = binary.BigEndian.Uint64(rec[8+types.HashSize:])
				payloads, pending, runCRC = append(payloads, pending...), nil, 0
				off += commitSize
				continue
			}
			if n > maxLogRecord {
				t.Fatalf("kept a %d-byte record", n)
			}
			p, sum := kept[off+logHeaderSize:off+logHeaderSize+n], kept[off+logHeaderSize+n:off+logHeaderSize+n+4]
			if crc32.Checksum(p, crcTable) != binary.BigEndian.Uint32(sum) {
				t.Fatalf("kept a record at %d that fails its CRC", off)
			}
			pending = append(pending, p)
			runCRC = crc32.Update(runCRC, crcTable, sum)
			off += logHeaderSize + n + logTrailerSize
		}
		if len(pending) != 0 {
			t.Fatalf("kept %d records no commit record closes", len(pending))
		}
		if !slices.EqualFunc(payloads, payloadsOf(raw, s), bytes.Equal) || headID != s.headID || headNum != s.headNumber {
			t.Fatalf("scan kept %d records at head #%d, reference %d at #%d", len(s.recs), s.headNumber, len(payloads), headNum)
		}
		again, err := scanBytes(kept, int(window%512)+1)
		if err != nil || again.end != s.end || again.headID != s.headID || again.headNumber != s.headNumber ||
			!slices.Equal(again.recs, s.recs) {
			t.Fatalf("rescan of the kept %d bytes: end %d, %d records, err %v", s.end, again.end, len(again.recs), err)
		}
	})
}
