package types

import (
	"errors"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/crypto/secp256k1"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

func testSRA(t *testing.T, provider *wallet.Wallet) *SRA {
	t.Helper()
	s := &SRA{
		Provider:     provider.Address(),
		Name:         "smart-camera-fw",
		Version:      "2.4.1",
		SystemHash:   HashBytes([]byte("firmware image payload")),
		DownloadLink: "sc://releases/smart-camera-fw/2.4.1",
		Insurance:    EtherAmount(1000),
		Bounty:       EtherAmount(5),
	}
	if err := SignSRA(s, provider); err != nil {
		t.Fatalf("SignSRA: %v", err)
	}
	return s
}

func TestSRASignVerify(t *testing.T) {
	p := wallet.NewDeterministic("provider-1")
	s := testSRA(t, p)
	if err := s.Verify(); err != nil {
		t.Fatalf("valid SRA rejected: %v", err)
	}
}

func TestSRASpoofingRejected(t *testing.T) {
	p := wallet.NewDeterministic("provider-1")
	attacker := wallet.NewDeterministic("attacker")

	t.Run("forged provider identity", func(t *testing.T) {
		// The attacker frames the benign provider: announcement claims P_i
		// but is signed by the attacker.
		s := &SRA{
			Provider:     p.Address(), // victim
			Name:         "repackaged-malware",
			Version:      "1.0",
			SystemHash:   HashBytes([]byte("malware")),
			DownloadLink: "sc://evil/1.0",
			Insurance:    EtherAmount(1),
			Bounty:       EtherAmount(1),
		}
		s.ID = s.ComputeID()
		sig, err := attacker.SignDigest(s.ID)
		if err != nil {
			t.Fatal(err)
		}
		s.Sig = sig
		if err := s.Verify(); !errors.Is(err, ErrSRABadSignature) {
			t.Errorf("spoofed SRA verified: err = %v, want ErrSRABadSignature", err)
		}
	})

	t.Run("tampered contents", func(t *testing.T) {
		s := testSRA(t, p)
		s.DownloadLink = "sc://evil/other" // swap download link after signing
		if err := s.Verify(); !errors.Is(err, ErrSRABadID) {
			t.Errorf("tampered SRA verified: err = %v, want ErrSRABadID", err)
		}
	})

	t.Run("tampered insurance", func(t *testing.T) {
		s := testSRA(t, p)
		s.Insurance = EtherAmount(1) // shrink the escrow after signing
		if err := s.Verify(); !errors.Is(err, ErrSRABadID) {
			t.Errorf("insurance tamper verified: err = %v, want ErrSRABadID", err)
		}
	})

	t.Run("tampered bounty", func(t *testing.T) {
		s := testSRA(t, p)
		s.Bounty = EtherAmount(1)
		if err := s.Verify(); !errors.Is(err, ErrSRABadID) {
			t.Errorf("bounty tamper verified: err = %v, want ErrSRABadID", err)
		}
	})
}

func TestSRARequiresInsuranceAndBounty(t *testing.T) {
	p := wallet.NewDeterministic("provider-1")
	s := testSRA(t, p)
	s.Insurance = 0
	s.ID = s.ComputeID()
	if err := s.Verify(); !errors.Is(err, ErrSRANoInsurance) {
		t.Errorf("uninsured SRA: err = %v, want ErrSRANoInsurance", err)
	}

	s = testSRA(t, p)
	s.Bounty = 0
	s.ID = s.ComputeID()
	if err := s.Verify(); !errors.Is(err, ErrSRANoBounty) {
		t.Errorf("bounty-less SRA: err = %v, want ErrSRANoBounty", err)
	}

	s = testSRA(t, p)
	s.Name = ""
	s.ID = s.ComputeID()
	if err := s.Verify(); !errors.Is(err, ErrSRAEmptyName) {
		t.Errorf("nameless SRA: err = %v, want ErrSRAEmptyName", err)
	}
}

func TestSignSRAWrongWallet(t *testing.T) {
	p := wallet.NewDeterministic("provider-1")
	other := wallet.NewDeterministic("other")
	s := testSRA(t, p)
	s.Sig = secp256k1.Signature{}
	if err := SignSRA(s, other); err == nil {
		t.Error("SignSRA accepted a wallet that is not the provider")
	}
}

func TestSRAIDFieldSeparation(t *testing.T) {
	// Name/Version boundary shifting must change the ID (no concatenation
	// ambiguity).
	p := wallet.NewDeterministic("provider-1")
	a := &SRA{Provider: p.Address(), Name: "ab", Version: "c", Insurance: 1, Bounty: 1}
	b := &SRA{Provider: p.Address(), Name: "a", Version: "bc", Insurance: 1, Bounty: 1}
	if a.ComputeID() == b.ComputeID() {
		t.Error("field boundary ambiguity in Δ_id")
	}
}

func TestSRAPayloadRoundtrip(t *testing.T) {
	p := wallet.NewDeterministic("provider-1")
	s := testSRA(t, p)
	decoded, err := decodeSRA(s.encodePayload())
	if err != nil {
		t.Fatalf("decodeSRA: %v", err)
	}
	if decoded.ID != s.ID || decoded.Name != s.Name || decoded.Version != s.Version ||
		decoded.Insurance != s.Insurance || decoded.Bounty != s.Bounty ||
		decoded.DownloadLink != s.DownloadLink || decoded.SystemHash != s.SystemHash {
		t.Error("payload roundtrip lost fields")
	}
	if err := decoded.Verify(); err != nil {
		t.Errorf("roundtripped SRA no longer verifies: %v", err)
	}
}

func TestSRAPayloadRejectsTruncation(t *testing.T) {
	p := wallet.NewDeterministic("provider-1")
	payload := testSRA(t, p).encodePayload()
	for _, n := range []int{0, 1, 20, len(payload) / 2, len(payload) - 1} {
		if _, err := decodeSRA(payload[:n]); err == nil {
			t.Errorf("decodeSRA accepted %d-byte truncation", n)
		}
	}
	if _, err := decodeSRA(append(payload, 0x00)); err == nil {
		t.Error("decodeSRA accepted trailing bytes")
	}
}
