package wallet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestKeystoreSaveLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keys", "provider.json")
	w := NewDeterministic("persisted")
	if err := SaveKeystore(w, path, "correct horse battery staple"); err != nil {
		t.Fatal(err)
	}
	// File permissions are private.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o600 {
		t.Errorf("keystore permissions %v, want 0600", info.Mode().Perm())
	}

	loaded, err := LoadKeystore(path, "correct horse battery staple")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Address() != w.Address() {
		t.Error("loaded wallet has a different address")
	}
	// The loaded key signs identically (RFC 6979 determinism).
	digest := sha256.Sum256([]byte("same key?"))
	sigA, err := w.SignDigest(digest)
	if err != nil {
		t.Fatal(err)
	}
	sigB, err := loaded.SignDigest(digest)
	if err != nil {
		t.Fatal(err)
	}
	if sigA != sigB {
		t.Error("loaded key signs differently")
	}
}

func TestKeystoreWrongPassphrase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.json")
	w := NewDeterministic("persisted")
	if err := SaveKeystore(w, path, "right"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadKeystore(path, "wrong"); !errors.Is(err, ErrBadPassphrase) {
		t.Errorf("err = %v, want ErrBadPassphrase", err)
	}
}

func TestKeystoreEmptyPassphraseRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.json")
	if err := SaveKeystore(NewDeterministic("x"), path, ""); !errors.Is(err, ErrEmptyPassword) {
		t.Errorf("err = %v, want ErrEmptyPassword", err)
	}
}

func TestKeystoreTamperDetection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.json")
	w := NewDeterministic("persisted")
	if err := SaveKeystore(w, path, "pw"); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file map[string]interface{}
	if err := json.Unmarshal(blob, &file); err != nil {
		t.Fatal(err)
	}

	t.Run("flipped ciphertext byte", func(t *testing.T) {
		mutated := make(map[string]interface{}, len(file))
		for k, v := range file {
			mutated[k] = v
		}
		sealed, _ := hex.DecodeString(file["sealed"].(string))
		sealed[0] ^= 0xFF
		mutated["sealed"] = hex.EncodeToString(sealed)
		writeMutated(t, path+".1", mutated)
		if _, err := LoadKeystore(path+".1", "pw"); !errors.Is(err, ErrBadPassphrase) {
			t.Errorf("err = %v, want ErrBadPassphrase (GCM must detect tampering)", err)
		}
	})

	t.Run("swapped address", func(t *testing.T) {
		mutated := make(map[string]interface{}, len(file))
		for k, v := range file {
			mutated[k] = v
		}
		mutated["address"] = NewDeterministic("other").Address().String()
		writeMutated(t, path+".2", mutated)
		// The address is GCM additional data: swapping it breaks the seal.
		if _, err := LoadKeystore(path+".2", "pw"); !errors.Is(err, ErrBadPassphrase) {
			t.Errorf("err = %v, want ErrBadPassphrase (address is authenticated)", err)
		}
	})
}

func writeMutated(t *testing.T, path string, file map[string]interface{}) {
	t.Helper()
	blob, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o600); err != nil {
		t.Fatal(err)
	}
}

func TestKeystoreRejectsWeakParameters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.json")
	w := NewDeterministic("persisted")
	if err := SaveKeystore(w, path, "pw"); err != nil {
		t.Fatal(err)
	}
	blob, _ := os.ReadFile(path)
	var file map[string]interface{}
	_ = json.Unmarshal(blob, &file)

	for name, mutate := range map[string]func(map[string]interface{}){
		"downgraded iterations": func(m map[string]interface{}) { m["iterations"] = 1 },
		"unknown kdf":           func(m map[string]interface{}) { m["kdf"] = "md5" },
		"unknown cipher":        func(m map[string]interface{}) { m["cipher"] = "rot13" },
		"wrong version":         func(m map[string]interface{}) { m["version"] = 99 },
	} {
		mutated := make(map[string]interface{}, len(file))
		for k, v := range file {
			mutated[k] = v
		}
		mutate(mutated)
		p := path + "." + name
		writeMutated(t, p, mutated)
		if _, err := LoadKeystore(p, "pw"); !errors.Is(err, ErrUnsupportedKDF) {
			t.Errorf("%s: err = %v, want ErrUnsupportedKDF", name, err)
		}
	}
}

func TestKeystoreMissingFile(t *testing.T) {
	if _, err := LoadKeystore(filepath.Join(t.TempDir(), "nope.json"), "pw"); err == nil {
		t.Error("missing file loaded")
	}
}

func TestKeystoreGarbageFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(path, []byte("not json at all"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadKeystore(path, "pw"); !errors.Is(err, ErrBadKeystore) {
		t.Errorf("err = %v, want ErrBadKeystore", err)
	}
}

// TestPBKDF2KnownVector checks the PBKDF2 implementation against an
// RFC 7914-era published test vector for PBKDF2-HMAC-SHA256.
func TestPBKDF2KnownVector(t *testing.T) {
	// From RFC 7914 §11: PBKDF2-HMAC-SHA-256 (P="passwd", S="salt", c=1, dkLen=64).
	got := pbkdf2SHA256([]byte("passwd"), []byte("salt"), 1, 64)
	want := "55ac046e56e3089fec1691c22544b605f94185216dde0465e68b9d57c20dacbc" +
		"49ca9cccf179b645991664b39d77ef317c71b845b1e30bd509112041d3a19783"
	if hex.EncodeToString(got) != want {
		t.Errorf("PBKDF2 vector mismatch:\n got %x\nwant %s", got, want)
	}
}
