// Package rlp implements Recursive Length Prefix encoding, the canonical
// serialization used by Ethereum for blocks and transactions. SmartCrowd
// hashes RLP encodings to derive block identifiers, transaction hashes and
// the report identifiers of Eq. 1, 3 and 5.
//
// There is no intermediate value tree and no reflection: writers append
// one encoded value to a byte slice, readers split one value off the front
// of a byte slice and return views into it. A list is written by encoding
// its elements into a payload and wrapping that with AppendList, and read
// by splitting the payload off with SplitList and splitting its elements
// in turn. Readers accept only the canonical form the writers produce, so
// a value has exactly one encoding; rejecting bytes left over after the
// last expected value is the caller's job (the readers hand them back).
package rlp

import (
	"errors"
	"math/bits"
	"slices"
)

// Decoding errors.
var (
	ErrTruncated      = errors.New("rlp: input truncated")
	ErrNonCanonical   = errors.New("rlp: non-canonical encoding")
	ErrOversizedValue = errors.New("rlp: length prefix exceeds input")
	ErrUintOverflow   = errors.New("rlp: integer overflows uint64")
	ErrExpectedString = errors.New("rlp: expected a string, found a list")
	ErrExpectedList   = errors.New("rlp: expected a list, found a string")
)

// AppendBytes appends the encoding of the byte string b.
func AppendBytes(dst, b []byte) []byte {
	if len(b) == 1 && b[0] < 0x80 {
		return append(dst, b[0])
	}
	return append(appendHeader(slices.Grow(dst, Size(len(b))), 0x80, len(b)), b...)
}

// AppendUint64 appends the encoding of v as a string holding its minimal
// big-endian form (zero is the empty string, per the Ethereum convention).
func AppendUint64(dst []byte, v uint64) []byte {
	if v != 0 && v < 0x80 {
		return append(dst, byte(v))
	}
	n := (bits.Len64(v) + 7) / 8
	return appendBigEndian(append(dst, 0x80+byte(n)), v, n)
}

// AppendList appends the encoding of the list whose already-encoded
// elements are concatenated in payload.
func AppendList(dst, payload []byte) []byte {
	return append(appendHeader(slices.Grow(dst, Size(len(payload))), 0xc0, len(payload)), payload...)
}

// AppendListHeader appends only the header of a list whose payload is
// payloadLen bytes, for a writer that sized its buffer up front and encodes
// the elements straight in behind it. It grows dst by the header alone, so
// a header written into a small stack array stays there.
func AppendListHeader(dst []byte, payloadLen int) []byte {
	return appendHeader(dst, 0xc0, payloadLen)
}

// Size returns the encoded length of a string or list with length bytes of
// content. (The one string it overstates is a single byte below 0x80,
// which is its own encoding; BytesSize and Uint64Size know that.)
func Size(length int) int {
	if length < 56 {
		return 1 + length
	}
	return 1 + (bits.Len64(uint64(length))+7)/8 + length
}

// BytesSize returns the number of bytes AppendBytes appends for b.
func BytesSize(b []byte) int {
	if len(b) == 1 && b[0] < 0x80 {
		return 1
	}
	return Size(len(b))
}

// Uint64Size returns the number of bytes AppendUint64 appends for v.
func Uint64Size(v uint64) int {
	if v < 0x80 {
		return 1
	}
	return 1 + (bits.Len64(v)+7)/8
}

// appendHeader appends the header of a value whose content is length
// bytes. AppendBytes and AppendList first make room for the content too, so
// their append of it does not reallocate.
func appendHeader(dst []byte, base byte, length int) []byte {
	if length < 56 {
		return append(dst, base+byte(length))
	}
	n := (bits.Len64(uint64(length)) + 7) / 8
	return appendBigEndian(append(dst, base+55+byte(n)), uint64(length), n)
}

// appendBigEndian appends the low n bytes of v, most significant first.
func appendBigEndian(dst []byte, v uint64, n int) []byte {
	for i := n - 1; i >= 0; i-- {
		dst = append(dst, byte(v>>(8*i)))
	}
	return dst
}

// SplitBytes splits the string at the front of b into its content and the
// bytes after it. A list is refused.
func SplitBytes(b []byte) (content, rest []byte, err error) {
	isList, content, rest, err := split(b)
	if err == nil && isList {
		err = ErrExpectedString
	}
	return content, rest, err
}

// SplitUint64 splits the canonical unsigned integer at the front of b: a
// string of at most eight bytes with no leading zero.
func SplitUint64(b []byte) (v uint64, rest []byte, err error) {
	content, rest, err := SplitBytes(b)
	switch {
	case err != nil:
		return 0, nil, err
	case len(content) > 8:
		return 0, nil, ErrUintOverflow
	case len(content) > 0 && content[0] == 0:
		return 0, nil, ErrNonCanonical
	}
	for _, c := range content {
		v = v<<8 | uint64(c)
	}
	return v, rest, nil
}

// SplitList splits the list at the front of b into its payload (the
// concatenated encodings of its elements) and the bytes after it. A string
// is refused.
func SplitList(b []byte) (payload, rest []byte, err error) {
	isList, payload, rest, err := split(b)
	if err == nil && !isList {
		err = ErrExpectedList
	}
	return payload, rest, err
}

// split reads the header of the value at the front of b and cuts b into
// the value's content and the bytes after it.
func split(b []byte) (isList bool, content, rest []byte, err error) {
	if len(b) == 0 {
		return false, nil, nil, ErrTruncated
	}
	prefix, body := b[0], b[1:]
	switch {
	case prefix < 0x80: // the byte is its own encoding
		content, rest = b[:1], body
	case prefix <= 0xb7: // short string
		content, rest, err = cut(body, int(prefix-0x80))
		if err == nil && len(content) == 1 && content[0] < 0x80 {
			err = ErrNonCanonical // should have been a bare byte
		}
	case prefix <= 0xbf: // long string
		content, rest, err = cutLong(body, int(prefix-0xb7))
	case prefix <= 0xf7: // short list
		isList = true
		content, rest, err = cut(body, int(prefix-0xc0))
	default: // long list
		isList = true
		content, rest, err = cutLong(body, int(prefix-0xf7))
	}
	return isList, content, rest, err
}

// cut splits b after n bytes.
func cut(b []byte, n int) (content, rest []byte, err error) {
	if len(b) < n {
		return nil, nil, ErrOversizedValue
	}
	return b[:n], b[n:], nil
}

// cutLong reads a lenLen-byte big-endian length from the front of b and
// splits what follows after that many bytes. The long form is canonical
// only for lengths of 56 and up, written without a leading zero.
func cutLong(b []byte, lenLen int) (content, rest []byte, err error) {
	if len(b) < lenLen {
		return nil, nil, ErrTruncated
	}
	if b[0] == 0 {
		return nil, nil, ErrNonCanonical
	}
	var n uint64
	for _, c := range b[:lenLen] {
		n = n<<8 | uint64(c)
	}
	const maxLen = 1 << 31
	switch {
	case n > maxLen:
		return nil, nil, ErrOversizedValue
	case n < 56:
		return nil, nil, ErrNonCanonical
	}
	return cut(b[lenLen:], int(n))
}
