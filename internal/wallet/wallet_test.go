package wallet

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/crypto/secp256k1"
)

func TestNewDeterministicStable(t *testing.T) {
	a := NewDeterministic("provider-1")
	b := NewDeterministic("provider-1")
	if a.Address() != b.Address() {
		t.Error("same label produced different wallets")
	}
	c := NewDeterministic("provider-2")
	if a.Address() == c.Address() {
		t.Error("different labels produced the same wallet")
	}
}

func TestAddressDerivation(t *testing.T) {
	w := NewDeterministic("x")
	derived := PubKeyAddress(w.PublicKey())
	if derived != w.Address() {
		t.Error("PubKeyAddress disagrees with wallet address")
	}
	if w.Address() == (Address{}) {
		t.Error("derived address is zero")
	}
}

// secp256k1N is the secp256k1 group order n.
var secp256k1N, _ = new(big.Int).SetString("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141", 16)

func TestSignAndRecover(t *testing.T) {
	w := NewDeterministic("signer")
	digest := sha256.Sum256([]byte("message"))
	sig, err := w.SignDigest(digest)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RecoverSigner(digest, sig)
	if err != nil {
		t.Fatal(err)
	}
	if got != w.Address() {
		t.Errorf("recovered %s, want %s", got, w.Address())
	}
	if !VerifyDigest(w.Address(), digest, sig) {
		t.Error("VerifyDigest rejected a valid signature")
	}
	other := NewDeterministic("other")
	if VerifyDigest(other.Address(), digest, sig) {
		t.Error("VerifyDigest attributed the signature to the wrong address")
	}
	// SRAs, R† and R* are checked through VerifyDigest: the high-S twin of
	// a signature would be a second valid encoding of each of them.
	twin := secp256k1.Signature{R: sig.R, V: sig.V ^ 1}
	new(big.Int).Sub(secp256k1N, new(big.Int).SetBytes(sig.S[:])).FillBytes(twin.S[:])
	if _, err := RecoverSigner(digest, twin); !errors.Is(err, secp256k1.ErrInvalidSignature) {
		t.Errorf("RecoverSigner(high-S twin) = %v, want ErrInvalidSignature", err)
	}
	if VerifyDigest(w.Address(), digest, twin) {
		t.Error("VerifyDigest accepted the high-S twin")
	}
}

func TestRecoverSignerRejectsGarbage(t *testing.T) {
	digest := sha256.Sum256([]byte("m"))
	var sig secp256k1.Signature // R = S = 0
	if _, err := RecoverSigner(digest, sig); err == nil {
		t.Error("garbage signature recovered")
	}
}

// TestRecoverSignerAllocatesNothing: every transaction, SRA and report
// signature a node checks goes through RecoverSigner, from the 65 signature
// bytes to the 20 address bytes without touching the heap.
func TestRecoverSignerAllocatesNothing(t *testing.T) {
	w := NewDeterministic("allocs")
	digest := sha256.Sum256([]byte("allocs"))
	sig, err := w.SignDigest(digest)
	if err != nil {
		t.Fatal(err)
	}
	var got Address
	if allocs := testing.AllocsPerRun(100, func() { got, err = RecoverSigner(digest, sig) }); allocs != 0 {
		t.Errorf("RecoverSigner allocates %.0f times per call, want 0", allocs)
	}
	if err != nil || got != w.Address() {
		t.Fatalf("RecoverSigner = %s, %v; want %s", got, err, w.Address())
	}
}

func TestAddressStringRoundtrip(t *testing.T) {
	w := NewDeterministic("addr")
	s := w.Address().String()
	if !strings.HasPrefix(s, "0x") || len(s) != 42 {
		t.Errorf("address string %q malformed", s)
	}
	parsed, err := ParseAddress(s)
	if err != nil {
		t.Fatal(err)
	}
	if parsed != w.Address() {
		t.Error("ParseAddress roundtrip failed")
	}
	// Bare hex also accepted.
	parsed2, err := ParseAddress(s[2:])
	if err != nil || parsed2 != w.Address() {
		t.Error("bare hex parse failed")
	}
}

func TestParseAddressErrors(t *testing.T) {
	for _, in := range []string{"", "0x12", "zz", "0x" + strings.Repeat("ab", 21)} {
		if _, err := ParseAddress(in); err == nil {
			t.Errorf("ParseAddress(%q) accepted", in)
		}
	}
}

func TestShortForms(t *testing.T) {
	w := NewDeterministic("short")
	if len(w.Address().Short()) != 10 {
		t.Errorf("Short() = %q, want 10 chars", w.Address().Short())
	}
}

// TestAddressStringsAllocateOnce pins String and Short to the string
// itself, and to the bytes of "0x" + hex.EncodeToString.
func TestAddressStringsAllocateOnce(t *testing.T) {
	a := NewDeterministic("strings").Address()
	var sink string
	for _, tc := range []struct {
		name string
		f    func() string
		want string
	}{
		{"String", a.String, "0x" + hex.EncodeToString(a[:])},
		{"Short", a.Short, "0x" + hex.EncodeToString(a[:4])},
	} {
		if got := tc.f(); got != tc.want {
			t.Errorf("%s = %q, want %q", tc.name, got, tc.want)
		}
		if n := testing.AllocsPerRun(100, func() { sink = tc.f() }); n != 1 {
			t.Errorf("%s allocates %.0f times per call, want 1", tc.name, n)
		}
	}
	_ = sink
}

func TestKeystore(t *testing.T) {
	ks := NewKeystore()
	w1 := NewDeterministic("k1")
	w2 := NewDeterministic("k2")
	ks.Add(w1)
	ks.Add(w2)

	got, err := ks.Get(w1.Address())
	if err != nil || got != w1 {
		t.Error("Get returned wrong wallet")
	}
	if _, err := ks.Get(Address{}); !errors.Is(err, ErrUnknownAccount) {
		t.Errorf("missing account: err = %v", err)
	}
	addrs := ks.Addresses()
	if len(addrs) != 2 {
		t.Fatalf("Addresses() = %d entries, want 2", len(addrs))
	}
	// Deterministic order.
	again := ks.Addresses()
	if addrs[0] != again[0] || addrs[1] != again[1] {
		t.Error("Addresses() order is unstable")
	}
}

func TestKeystoreConcurrentAccess(t *testing.T) {
	ks := NewKeystore()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := NewDeterministic(string(rune('a' + i)))
			ks.Add(w)
			if _, err := ks.Get(w.Address()); err != nil {
				t.Errorf("concurrent get failed: %v", err)
			}
			ks.Addresses()
		}(i)
	}
	wg.Wait()
	if len(ks.Addresses()) != 8 {
		t.Errorf("keystore lost wallets under concurrency")
	}
}

func TestNewFromEntropy(t *testing.T) {
	w, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("fresh"))
	sig, err := w.SignDigest(digest)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyDigest(w.Address(), digest, sig) {
		t.Error("fresh wallet cannot verify its own signature")
	}
}

// ErrUnknownAccount is returned by Keystore lookups for missing addresses.
var ErrUnknownAccount = errors.New("wallet: unknown account")

// Keystore is a thread-safe in-memory collection of wallets, used by nodes
// that manage several identities (e.g. a provider that operates both a
// mining identity and a release identity).
type Keystore struct {
	mu      sync.RWMutex
	wallets map[Address]*Wallet
}

// NewKeystore creates an empty keystore.
func NewKeystore() *Keystore {
	return &Keystore{wallets: make(map[Address]*Wallet)}
}

// Add registers a wallet and returns its address.
func (ks *Keystore) Add(w *Wallet) Address {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	ks.wallets[w.Address()] = w
	return w.Address()
}

// Get looks up a wallet by address.
func (ks *Keystore) Get(addr Address) (*Wallet, error) {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	w, ok := ks.wallets[addr]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownAccount, addr)
	}
	return w, nil
}

// Addresses returns all registered addresses in deterministic order.
func (ks *Keystore) Addresses() []Address {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	out := make([]Address, 0, len(ks.wallets))
	for a := range ks.wallets {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}
