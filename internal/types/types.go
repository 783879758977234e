// Package types defines the consensus data structures of SmartCrowd: the
// system release announcement Δ (paper Eq. 1-2), the two-phase detection
// reports R† and R* (Eq. 3-5), transactions, blocks, and the monetary units
// the incentive scheme is denominated in.
package types

import (
	"encoding/hex"
	"fmt"
	"strconv"

	"github.com/smartcrowd/smartcrowd/internal/crypto/keccak"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// HashSize is the length of consensus hashes in bytes.
const HashSize = keccak.Size

// Hash is a 32-byte Keccak-256 digest.
type Hash [HashSize]byte

// ZeroHash is the all-zero hash.
var ZeroHash Hash

// String renders the hash as 0x-prefixed hex. The digits are written on
// the stack, so the string is the one allocation.
func (h Hash) String() string {
	var buf [2 + 2*HashSize]byte
	return string(hex.AppendEncode(append(buf[:0], "0x"...), h[:]))
}

// Short renders the first 4 bytes for logs.
func (h Hash) Short() string {
	var buf [2 + 2*4]byte
	return string(hex.AppendEncode(append(buf[:0], "0x"...), h[:4]))
}

// IsZero reports whether the hash is all zeroes.
func (h Hash) IsZero() bool { return h == ZeroHash }

// HashBytes computes the Keccak-256 digest of data.
func HashBytes(data []byte) Hash { return Hash(keccak.Sum256(data)) }

// HashConcat computes the Keccak-256 digest of the concatenated parts.
// SmartCrowd identifiers (Δ_id, ID†, ID*) are hashes over field
// concatenations.
func HashConcat(parts ...[]byte) Hash { return Hash(keccak.Sum256Concat(parts...)) }

// Address aliases the wallet address type so consumers of types need not
// import wallet directly.
type Address = wallet.Address

// Amount is a quantity of currency in gwei (10⁻⁹ ether). The paper
// denominates everything in ether; a uint64 of gwei comfortably covers the
// evaluated range (insurances up to thousands of ether) while keeping
// balance arithmetic exact and allocation-free.
type Amount uint64

// Currency units.
const (
	GWei  Amount = 1
	Finny Amount = 1e6 * GWei // 10⁻³ ether ("finney")
	Ether Amount = 1e9 * GWei // 1 ether
)

// EtherAmount converts whole ether to an Amount.
func EtherAmount(n uint64) Amount { return Amount(n) * Ether }

// Ether returns the amount as a float64 number of ether (for reporting
// only; never used in consensus arithmetic).
func (a Amount) Ether() float64 { return float64(a) / float64(Ether) }

// String formats the amount in ether with gwei precision.
func (a Amount) String() string {
	return strconv.FormatFloat(a.Ether(), 'f', -1, 64) + " ETH"
}

// Severity classifies a vulnerability, mirroring Table I of the paper
// (high-, medium- and low-risk findings).
type Severity int

// Severity levels. Starting at 1 so the zero value is invalid.
const (
	SeverityLow Severity = iota + 1
	SeverityMedium
	SeverityHigh
)

// String returns the severity name.
func (s Severity) String() string {
	switch s {
	case SeverityLow:
		return "low"
	case SeverityMedium:
		return "medium"
	case SeverityHigh:
		return "high"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// Valid reports whether s is a defined severity.
func (s Severity) Valid() bool {
	return s >= SeverityLow && s <= SeverityHigh
}

// Finding is one discovered vulnerability inside a detection report's
// description field (Des in Eq. 5).
type Finding struct {
	// VulnID is the canonical identifier of the vulnerability (CVE-style,
	// e.g. "SC-2019-0042"). AutoVerif keys on this.
	VulnID string
	// Severity is the risk classification.
	Severity Severity
	// Evidence is free-form proof material (crash trace, exploit sketch).
	Evidence string
}

// encode serializes a finding for hashing.
func (f Finding) encode() []byte {
	buf := make([]byte, 0, len(f.VulnID)+len(f.Evidence)+2)
	buf = append(buf, byte(f.Severity))
	buf = append(buf, byte(len(f.VulnID)))
	buf = append(buf, f.VulnID...)
	buf = append(buf, f.Evidence...)
	return buf
}

// HashFindings hashes an ordered finding list (the Des component of ID*).
func HashFindings(findings []Finding) Hash {
	parts := make([][]byte, len(findings))
	for i, f := range findings {
		parts[i] = f.encode()
	}
	return HashConcat(parts...)
}
