package wallet

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/smartcrowd/smartcrowd/internal/crypto/secp256k1"
)

// Encrypted keystore files. Stakeholder keys are long-lived (paper §V-A:
// "every IoT entity has long-time lived public key pk and private key
// sk"), so nodes persist them at rest encrypted with a passphrase:
// PBKDF2-HMAC-SHA256 key derivation + AES-256-GCM sealing, the same
// construction geth's keystore uses (with scrypt swapped for PBKDF2 to
// stay inside the standard library).

// Keystore file format constants.
const (
	keystoreVersion = 1
	keystoreKDF     = "pbkdf2-hmac-sha256"
	keystoreCipher  = "aes-256-gcm"
	// keystoreIterations balances unlock latency against brute force.
	keystoreIterations = 65_536
)

// Keystore errors.
var (
	ErrBadPassphrase  = errors.New("wallet: wrong passphrase or corrupted keystore")
	ErrBadKeystore    = errors.New("wallet: malformed keystore file")
	ErrWrongKeystore  = errors.New("wallet: keystore address does not match key")
	ErrEmptyPassword  = errors.New("wallet: passphrase must not be empty")
	ErrUnsupportedKDF = errors.New("wallet: unsupported keystore parameters")
)

// keystoreFile is the on-disk JSON envelope.
type keystoreFile struct {
	Version    int    `json:"version"`
	Address    string `json:"address"`
	KDF        string `json:"kdf"`
	Iterations int    `json:"iterations"`
	SaltHex    string `json:"salt"`
	Cipher     string `json:"cipher"`
	NonceHex   string `json:"nonce"`
	SealedHex  string `json:"sealed"`
}

// pbkdf2SHA256 implements PBKDF2 (RFC 2898) with HMAC-SHA256.
func pbkdf2SHA256(password, salt []byte, iterations, keyLen int) []byte {
	numBlocks := (keyLen + sha256.Size - 1) / sha256.Size
	out := make([]byte, 0, numBlocks*sha256.Size)
	var blockIndex [4]byte
	for block := 1; block <= numBlocks; block++ {
		binary.BigEndian.PutUint32(blockIndex[:], uint32(block))
		mac := hmac.New(sha256.New, password)
		mac.Write(salt)
		mac.Write(blockIndex[:])
		u := mac.Sum(nil)
		t := make([]byte, len(u))
		copy(t, u)
		for i := 1; i < iterations; i++ {
			mac = hmac.New(sha256.New, password)
			mac.Write(u)
			u = mac.Sum(nil)
			for j := range t {
				t[j] ^= u[j]
			}
		}
		out = append(out, t...)
	}
	return out[:keyLen]
}

// SaveKeystore writes the wallet's private key to path, sealed under the
// passphrase. The file is created with 0600 permissions.
func SaveKeystore(w *Wallet, path, passphrase string) error {
	if passphrase == "" {
		return ErrEmptyPassword
	}
	return writeKeystore(path, passphrase, w.Address(), w.key.Bytes())
}

// writeKeystore writes plain to path sealed under the passphrase and
// bound to addr: SaveKeystore's file, for any plaintext.
func writeKeystore(path, passphrase string, addr Address, plain []byte) error {
	salt := make([]byte, 16)
	if _, err := rand.Read(salt); err != nil {
		return fmt.Errorf("wallet: keystore salt: %w", err)
	}
	key := pbkdf2SHA256([]byte(passphrase), salt, keystoreIterations, 32)

	block, err := aes.NewCipher(key)
	if err != nil {
		return fmt.Errorf("wallet: keystore cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return fmt.Errorf("wallet: keystore gcm: %w", err)
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return fmt.Errorf("wallet: keystore nonce: %w", err)
	}
	// Bind the ciphertext to the address via GCM additional data.
	sealed := gcm.Seal(nil, nonce, plain, addr[:])

	file := keystoreFile{
		Version:    keystoreVersion,
		Address:    addr.String(),
		KDF:        keystoreKDF,
		Iterations: keystoreIterations,
		SaltHex:    hex.EncodeToString(salt),
		Cipher:     keystoreCipher,
		NonceHex:   hex.EncodeToString(nonce),
		SealedHex:  hex.EncodeToString(sealed),
	}
	blob, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return fmt.Errorf("wallet: encode keystore: %w", err)
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o700); err != nil {
			return fmt.Errorf("wallet: keystore dir: %w", err)
		}
	}
	if err := os.WriteFile(path, blob, 0o600); err != nil {
		return fmt.Errorf("wallet: write keystore: %w", err)
	}
	return nil
}

// LoadKeystore reads and unseals a keystore file.
func LoadKeystore(path, passphrase string) (*Wallet, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wallet: read keystore: %w", err)
	}
	var file keystoreFile
	if err := json.Unmarshal(blob, &file); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadKeystore, err)
	}
	if file.Version != keystoreVersion || file.KDF != keystoreKDF || file.Cipher != keystoreCipher {
		return nil, fmt.Errorf("%w: version=%d kdf=%q cipher=%q",
			ErrUnsupportedKDF, file.Version, file.KDF, file.Cipher)
	}
	if file.Iterations < 1024 {
		return nil, fmt.Errorf("%w: iteration count %d too low", ErrUnsupportedKDF, file.Iterations)
	}
	salt, err := hex.DecodeString(file.SaltHex)
	if err != nil {
		return nil, fmt.Errorf("%w: bad salt", ErrBadKeystore)
	}
	nonce, err := hex.DecodeString(file.NonceHex)
	if err != nil {
		return nil, fmt.Errorf("%w: bad nonce", ErrBadKeystore)
	}
	sealed, err := hex.DecodeString(file.SealedHex)
	if err != nil {
		return nil, fmt.Errorf("%w: bad ciphertext", ErrBadKeystore)
	}
	claimed, err := ParseAddress(file.Address)
	if err != nil {
		return nil, fmt.Errorf("%w: bad address", ErrBadKeystore)
	}

	key := pbkdf2SHA256([]byte(passphrase), salt, file.Iterations, 32)
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("wallet: keystore cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("wallet: keystore gcm: %w", err)
	}
	if len(nonce) != gcm.NonceSize() {
		return nil, fmt.Errorf("%w: nonce size", ErrBadKeystore)
	}
	plain, err := gcm.Open(nil, nonce, sealed, claimed[:])
	if err != nil {
		return nil, ErrBadPassphrase
	}
	// A sealed key is exactly what SaveKeystore wrote: 32 bytes in
	// [1, n−1], never reduced.
	priv, ok := secp256k1.ParsePrivateKey(plain)
	if !ok {
		return nil, fmt.Errorf("%w: sealed key is not 32 bytes in [1, n-1]", ErrBadKeystore)
	}
	w := fromKey(priv)
	if w.Address() != claimed {
		return nil, ErrWrongKeystore
	}
	return w, nil
}
