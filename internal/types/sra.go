package types

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/smartcrowd/smartcrowd/internal/crypto/secp256k1"
	"github.com/smartcrowd/smartcrowd/internal/rlp"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// SRA is a system release announcement Δ (paper Eq. 1):
//
//	Δ = {Δ_id, P_i, U_n, U_v, U_h, U_l, I_i, P_Sign}
//
// broadcast by an IoT provider when it releases a new IoT system. The
// announcement carries an insurance I_i that is escrowed in the SmartCrowd
// contract and forfeited pro rata when vulnerabilities are confirmed, plus
// the preset per-vulnerability bounty μ (paper §V-D). The bounty is covered
// by Δ_id alongside the paper's fields so it cannot be tampered with after
// signing.
type SRA struct {
	// Provider is P_i, the releasing provider's address.
	Provider Address
	// Name is U_n, the system's name.
	Name string
	// Version is U_v, the released version.
	Version string
	// SystemHash is U_h, the hash of the released system image; detectors
	// check the downloaded image against it.
	SystemHash Hash
	// DownloadLink is U_l, where detectors obtain the image.
	DownloadLink string
	// Insurance is I_i, the escrowed deposit forfeited on confirmed
	// vulnerabilities.
	Insurance Amount
	// Bounty is μ, the preset incentive per confirmed vulnerability.
	Bounty Amount
	// ID is Δ_id = H(P_i || U_n || U_v || U_h || U_l || I_i || μ).
	ID Hash
	// Sig is P_Sign = Sign_{sk_{P_i}}(Δ_id) (paper Eq. 2).
	Sig secp256k1.Signature
}

// SRA verification errors (the decentralized verification of paper §V-A).
var (
	ErrSRABadID        = errors.New("types: SRA identifier does not match contents")
	ErrSRABadSignature = errors.New("types: SRA signature invalid or not by provider")
	ErrSRANoInsurance  = errors.New("types: SRA carries no insurance")
	ErrSRANoBounty     = errors.New("types: SRA presets no vulnerability bounty")
	ErrSRAEmptyName    = errors.New("types: SRA system name is empty")
)

// ComputeID derives Δ_id from the announcement's contents.
func (s *SRA) ComputeID() Hash {
	var ins, bty [8]byte
	binary.BigEndian.PutUint64(ins[:], uint64(s.Insurance))
	binary.BigEndian.PutUint64(bty[:], uint64(s.Bounty))
	return HashConcat(
		s.Provider[:],
		[]byte(s.Name),
		[]byte{0}, // field separators prevent boundary ambiguity
		[]byte(s.Version),
		[]byte{0},
		s.SystemHash[:],
		[]byte(s.DownloadLink),
		[]byte{0},
		ins[:],
		bty[:],
	)
}

// SignSRA fills in the ID and provider signature using the provider's
// wallet. The wallet address must be the announcement's Provider.
func SignSRA(s *SRA, w *wallet.Wallet) error {
	if w.Address() != s.Provider {
		return fmt.Errorf("types: signing SRA for %s with wallet %s", s.Provider, w.Address())
	}
	s.ID = s.ComputeID()
	sig, err := w.SignDigest(s.ID)
	if err != nil {
		return fmt.Errorf("types: sign SRA: %w", err)
	}
	s.Sig = sig
	return nil
}

// Verify performs the decentralized SRA verification of paper §V-A: it
// recomputes Δ_id, checks that the signature recovers to P_i, and enforces
// that the announcement is insured. Nodes drop (do not propagate)
// announcements that fail any check, eradicating spoofed SRAs.
func (s *SRA) Verify() error {
	switch {
	case s.Name == "":
		return ErrSRAEmptyName
	case s.Insurance == 0:
		return ErrSRANoInsurance
	case s.Bounty == 0:
		return ErrSRANoBounty
	}
	if s.ComputeID() != s.ID {
		return ErrSRABadID
	}
	if !wallet.VerifyDigest(s.Provider, s.ID, s.Sig) {
		return ErrSRABadSignature
	}
	return nil
}

// encodePayload serializes the SRA for embedding in a transaction.
func (s *SRA) encodePayload() []byte {
	var buf []byte
	buf = append(buf, s.Provider[:]...)
	buf = appendString(buf, s.Name)
	buf = appendString(buf, s.Version)
	buf = append(buf, s.SystemHash[:]...)
	buf = appendString(buf, s.DownloadLink)
	buf = appendUint64(buf, uint64(s.Insurance))
	buf = appendUint64(buf, uint64(s.Bounty))
	buf = append(buf, s.ID[:]...)
	return appendSig(buf, &s.Sig)
}

func decodeSRA(data []byte) (*SRA, error) {
	d := decoder{buf: data}
	var s SRA
	d.bytes(s.Provider[:])
	s.Name = d.string()
	s.Version = d.string()
	d.bytes(s.SystemHash[:])
	s.DownloadLink = d.string()
	s.Insurance = Amount(d.uint64())
	s.Bounty = Amount(d.uint64())
	d.bytes(s.ID[:])
	d.sig(&s.Sig)
	if d.err != nil {
		return nil, fmt.Errorf("types: decode SRA: %w", d.err)
	}
	if len(d.buf) != 0 {
		return nil, errors.New("types: decode SRA: trailing bytes")
	}
	return &s, nil
}

// --- minimal length-prefixed encoding helpers shared by payload types ---

func appendString(buf []byte, s string) []byte {
	buf = appendUint64(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendUint64(buf []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(buf, b[:]...)
}

// appendSig appends a signature's 65-byte wire form, R ‖ S ‖ V.
func appendSig(buf []byte, sig *secp256k1.Signature) []byte {
	buf = append(buf, sig.R[:]...)
	buf = append(buf, sig.S[:]...)
	return append(buf, sig.V)
}

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) bytes(dst []byte) {
	if d.err != nil {
		return
	}
	if len(d.buf) < len(dst) {
		d.err = errors.New("short buffer")
		return
	}
	copy(dst, d.buf[:len(dst)])
	d.buf = d.buf[len(dst):]
}

// sig reads the 65 bytes appendSig writes into dst.
func (d *decoder) sig(dst *secp256k1.Signature) {
	var v [1]byte
	d.bytes(dst.R[:])
	d.bytes(dst.S[:])
	d.bytes(v[:])
	dst.V = v[0]
}

func (d *decoder) uint64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.err = errors.New("short buffer")
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[:8])
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) string() string {
	n := d.uint64()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)) {
		d.err = errors.New("string length exceeds buffer")
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// The rlp readers take one RLP value off the front of buf — the
// transaction and block encodings are RLP, the payloads above are
// fixed-width — and share the sticky error.

func (d *decoder) rlpUint64() (v uint64) {
	if d.err == nil {
		v, d.buf, d.err = rlp.SplitUint64(d.buf)
	}
	return v
}

func (d *decoder) rlpString() (s []byte) {
	if d.err == nil {
		s, d.buf, d.err = rlp.SplitBytes(d.buf)
	}
	return s
}

// rlpFixed reads a string that must be exactly len(dst) bytes into dst.
func (d *decoder) rlpFixed(dst []byte) {
	s := d.rlpString()
	if d.err == nil && len(s) != len(dst) {
		d.err = fmt.Errorf("field is %d bytes, want %d", len(s), len(dst))
	}
	copy(dst, s)
}

// rlpList enters the list at the front of buf: buf becomes the list's
// payload, and the bytes after the list are returned for the matching end.
func (d *decoder) rlpList() (after []byte) {
	if d.err == nil {
		d.buf, after, d.err = rlp.SplitList(d.buf)
	}
	return after
}

// end leaves a list entered with rlpList (or, given nil, the whole input):
// unread bytes are an error — a list has exactly the expected elements and
// the input exactly one value — and reading continues with after.
func (d *decoder) end(after []byte) {
	if d.err == nil && len(d.buf) != 0 {
		d.err = errors.New("trailing bytes")
	}
	d.buf = after
}
