// Fixture for the wiretaint pass. Loaded as-if it were internal/p2p: a
// wire-decoded integer must pass a dominating bound check before it
// sizes an allocation or indexes memory — and the check counts no
// matter which side of a call boundary it lives on.
package fixtaint

import (
	"encoding/binary"
	"errors"
)

const maxRecords = 4096

var errTooMany = errors.New("fixture: too many records")

// parseCount decodes a record count and returns it unvalidated: its
// result is tainted in every caller.
func parseCount(b []byte) uint32 {
	return binary.BigEndian.Uint32(b)
}

// checkCount bounds its parameter — a sanitizer, so calling it counts
// as a guard at the call site.
func checkCount(n uint32) bool {
	return n <= maxRecords
}

// goodCaller: the bound check lives in the callee and still clears the
// caller's allocation.
func goodCaller(b []byte) [][]byte {
	n := parseCount(b)
	if !checkCount(n) {
		return nil
	}
	return make([][]byte, n)
}

// badCaller allocates straight off the decoded count.
func badCaller(b []byte) [][]byte {
	n := parseCount(b)
	return make([][]byte, n) // want `allocation size depends on wire-decoded n with no dominating bound check`
}

// badDecode allocates whatever length the peer declared, decoded into a
// local right here (no helper in between).
func badDecode(hdr []byte) []byte {
	length := binary.BigEndian.Uint32(hdr)
	return make([]byte, length) // want `allocation size depends on wire-decoded length with no dominating bound check`
}

// badCap hides the peer-chosen size in the capacity argument.
func badCap(hdr []byte) []byte {
	n := binary.BigEndian.Uint16(hdr)
	return make([]byte, 0, n) // want `allocation size depends on wire-decoded n with no dominating bound check`
}

// goodBounded rejects oversized declarations before allocating — the
// reject-before-allocate idiom, check and allocation in one function.
func goodBounded(hdr []byte) ([]byte, error) {
	length := binary.BigEndian.Uint32(hdr)
	if length > maxRecords {
		return nil, errTooMany
	}
	return make([]byte, length), nil
}

// badDirect uses the decode in place.
func badDirect(b []byte) []byte {
	return make([]byte, binary.BigEndian.Uint32(b)) // want `allocation size depends on wire-decoded a value decoded in place`
}

// badIndex indexes a table with the raw offset.
func badIndex(b, table []byte) byte {
	i := parseCount(b)
	return table[i] // want `index depends on wire-decoded i with no dominating bound check`
}

// goodIndex compares against the table length first.
func goodIndex(b, table []byte) byte {
	i := parseCount(b)
	if int(i) >= len(table) {
		return 0
	}
	return table[i]
}

// alloc never sees wire bytes itself, but badHelperCall feeds it a
// decoded count — taint crosses the call into the parameter.
func alloc(n uint32) []byte {
	return make([]byte, n) // want `allocation size depends on wire-decoded n with no dominating bound check`
}

func badHelperCall(b []byte) []byte {
	return alloc(parseCount(b))
}

// header proves result summaries are field-sensitive: version is
// validated before returning, extra is not.
type header struct {
	version uint32
	extra   uint32
}

func parseHeader(b []byte) (header, error) {
	var h header
	h.version = binary.BigEndian.Uint32(b[0:4])
	h.extra = binary.BigEndian.Uint32(b[4:8])
	if h.version > maxRecords {
		return header{}, errTooMany
	}
	return h, nil
}

func useHeader(b []byte) ([]byte, []byte) {
	h, err := parseHeader(b)
	if err != nil {
		return nil, nil
	}
	va := make([]byte, h.version)
	ea := make([]byte, h.extra) // want `allocation size depends on wire-decoded h\.extra with no dominating bound check`
	return va, ea
}
