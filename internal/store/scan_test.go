package store

import (
	"bytes"
	"encoding/binary"
	"errors"
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

// TestScanLogDamage: damage the scan can see past is a torn final commit
// when nothing valid follows it, and corruption when a later valid commit
// acknowledges the commit it sits in — whether a block record or the
// commit record itself is hit.
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
			s, err := scanLog(log)
			if tc.corrupt {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("got end %d, err %v; want ErrCorrupt", s.end, err)
				}
				return
			}
			if err != nil || s.end != tc.wantEnd {
				t.Fatalf("got end %d, err %v; want end %d", s.end, err, tc.wantEnd)
			}
		})
	}
}

// FuzzScanLog: on any log bytes the open scan does not panic, frames no
// record over maxLogRecord, keeps only whole commits whose records all
// check — walked here by a reference reader — and keeps what it kept when
// it rescans exactly those bytes.
func FuzzScanLog(f *testing.F) {
	raw, ends := threeCommits()
	f.Add(raw)
	f.Add(raw[:ends[1]+5])
	f.Add([]byte{})
	f.Add(make([]byte, commitSize+3))
	damaged := slices.Clone(raw)
	damaged[ends[0]+logHeaderSize] ^= 1
	f.Add(damaged)
	big := binary.BigEndian.AppendUint32(slices.Clone(raw), maxLogRecord+1)
	f.Add(append(big, make([]byte, 64)...))

	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := scanLog(raw)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("scan error %v is not ErrCorrupt", err)
			}
			return
		}
		if s.end > len(raw) {
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
		if !slices.EqualFunc(payloads, s.payloads, bytes.Equal) || headID != s.headID || headNum != s.headNumber {
			t.Fatalf("scan kept %d records at head #%d, reference %d at #%d", len(s.payloads), s.headNumber, len(payloads), headNum)
		}
		again, err := scanLog(kept)
		if err != nil || again.end != s.end || again.headID != s.headID || again.headNumber != s.headNumber ||
			!slices.EqualFunc(again.payloads, s.payloads, bytes.Equal) {
			t.Fatalf("rescan of the kept %d bytes: end %d, %d records, err %v", s.end, again.end, len(again.payloads), err)
		}
	})
}
