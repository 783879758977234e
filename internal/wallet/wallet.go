// Package wallet provides key management for SmartCrowd stakeholders. Every
// IoT entity (provider, detector, consumer) holds a long-lived secp256k1
// keypair (paper §V-A); its on-chain identity is the Ethereum-style address
// derived from the public key, and its signatures authenticate SRAs and
// detection reports.
package wallet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/big"
	"sync"

	"github.com/smartcrowd/smartcrowd/internal/crypto/keccak"
	"github.com/smartcrowd/smartcrowd/internal/crypto/secp256k1"
)

// AddressSize is the length of an address in bytes.
const AddressSize = 20

// Address is a 20-byte account identifier: the low 20 bytes of the
// Keccak-256 hash of the uncompressed public key (without the 0x04 prefix),
// exactly as Ethereum derives addresses.
type Address [AddressSize]byte

// String renders the address as 0x-prefixed hex.
func (a Address) String() string { return "0x" + hex.EncodeToString(a[:]) }

// Short renders the first 4 bytes for logs.
func (a Address) Short() string { return "0x" + hex.EncodeToString(a[:4]) }

// ParseAddress parses a 0x-prefixed or bare hex address.
func ParseAddress(s string) (Address, error) {
	if len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	raw, err := hex.DecodeString(s)
	if err != nil {
		return Address{}, fmt.Errorf("wallet: invalid address hex: %w", err)
	}
	if len(raw) != AddressSize {
		return Address{}, fmt.Errorf("wallet: address must be %d bytes, got %d", AddressSize, len(raw))
	}
	var a Address
	copy(a[:], raw)
	return a, nil
}

// PubKeyAddress derives the address of a public key.
func PubKeyAddress(pk secp256k1.PublicKey) Address {
	raw := pk.Bytes() // 0x04 || X || Y
	return xyAddress(raw[1:])
}

// xyAddress derives the address of a public key given as X ‖ Y.
func xyAddress(xy []byte) (a Address) {
	h := keccak.Sum256(xy)
	copy(a[:], h[12:])
	return a
}

// Wallet is a signing identity.
type Wallet struct {
	key  *secp256k1.PrivateKey
	addr Address
}

// New creates a wallet with fresh entropy from r (nil means crypto/rand).
func New(r io.Reader) (*Wallet, error) {
	key, err := secp256k1.GenerateKey(r)
	if err != nil {
		return nil, fmt.Errorf("wallet: generate key: %w", err)
	}
	return fromKey(key), nil
}

// NewDeterministic derives a wallet from a seed label. Simulations use this
// so that experiment runs are reproducible; it must never be used for real
// value.
func NewDeterministic(label string) *Wallet {
	sum := sha256.Sum256([]byte("smartcrowd-wallet:" + label))
	d := new(big.Int).SetBytes(sum[:])
	return fromKey(secp256k1.NewPrivateKey(d))
}

func fromKey(key *secp256k1.PrivateKey) *Wallet {
	return &Wallet{key: key, addr: PubKeyAddress(key.Public)}
}

// Address returns the wallet's on-chain identity.
func (w *Wallet) Address() Address { return w.addr }

// PublicKey returns the wallet's public key.
func (w *Wallet) PublicKey() secp256k1.PublicKey { return w.key.Public }

// SignDigest signs a 32-byte digest.
func (w *Wallet) SignDigest(digest [32]byte) (secp256k1.Signature, error) {
	return w.key.Sign(digest[:])
}

// RecoverSigner recovers the address that signed the given digest. A
// successful recovery allocates nothing: the key's 64 bytes are hashed
// where they were written, on the stack.
func RecoverSigner(digest [32]byte, sig secp256k1.Signature) (Address, error) {
	xy, err := secp256k1.RecoverPublicKeyXY(digest[:], sig)
	if err != nil {
		return Address{}, fmt.Errorf("wallet: recover signer: %w", err)
	}
	return xyAddress(xy[:]), nil
}

// sigCache memoizes signature verification results. SmartCrowd nodes check
// the same SRA/report signatures at several layers (pool admission, block
// validation, contract execution); public-key recovery is a scalar
// multiplication (≈ 80 µs) against a hash and a map lookup, so a bounded
// global cache — the same trick geth uses — removes the redundant work. The cache key covers digest, signature and claimed
// signer, so a hit can never confuse distinct verifications.
var sigCache = struct {
	sync.RWMutex
	m map[[32]byte]bool
}{m: make(map[[32]byte]bool)}

// sigCacheLimit bounds the cache; on overflow it is reset wholesale.
const sigCacheLimit = 1 << 17

// VerifyDigest reports whether sig over digest was produced by addr.
// Results are memoized (see sigCache).
func VerifyDigest(addr Address, digest [32]byte, sig secp256k1.Signature) bool {
	key := keccak.Sum256Concat(digest[:], sig.R[:], sig.S[:], []byte{sig.V}, addr[:])

	sigCache.RLock()
	cached, ok := sigCache.m[key]
	sigCache.RUnlock()
	if ok {
		return cached
	}

	got, err := RecoverSigner(digest, sig)
	result := err == nil && got == addr

	sigCache.Lock()
	if len(sigCache.m) >= sigCacheLimit {
		sigCache.m = make(map[[32]byte]bool)
	}
	sigCache.m[key] = result
	sigCache.Unlock()
	return result
}
