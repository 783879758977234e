// Package smartcrowd is a from-scratch Go implementation of SmartCrowd
// (Wu et al., ICDCS 2019): a blockchain-powered platform that crowdsources
// IoT system vulnerability detection with decentralized, automated
// incentives.
//
// The platform runs three stakeholder roles over a proof-of-work
// blockchain with a gas-metered contract VM:
//
//   - IoT providers release systems through insured announcements (SRAs),
//     mine the chain, verify detection reports, and are punished — out of
//     their escrowed insurance — for every confirmed vulnerability;
//   - detectors scan released systems and submit two-phase reports
//     (commitment R†, reveal R*), earning the preset bounty automatically
//     for every first-reported genuine vulnerability;
//   - consumers query the chain as an authoritative reference before
//     deploying a system.
//
// # Quick start
//
//	p := smartcrowd.NewPlatform(smartcrowd.PlatformConfig{Seed: 1})
//	_ = p.Fund(p.ProviderWallet("acme").Address(), smartcrowd.EtherAmount(10_000))
//	_ = p.Fund(p.DetectorWallet("lab").Address(), smartcrowd.EtherAmount(100))
//	provider, _ := p.AddProvider("acme")
//	_, _ = p.AddDetector("lab", &smartcrowd.CapabilityEngine{Name: "lab", Capability: 1})
//
//	img := smartcrowd.GenerateImage("cam-fw", "2.0", smartcrowd.UniverseSpec{High: 3, Seed: 7})
//	sra, _ := p.Release(0, img, smartcrowd.EtherAmount(1000), smartcrowd.EtherAmount(5))
//	for i := 0; i < 5; i++ {
//		_, _ = p.Mine(0)
//	}
//	ref, _ := p.Reference(sra.ID)
//	fmt.Println(ref.ConfirmedVulns, ref.SafeToDeploy)
//	_ = provider
//
// For large-scale experiments (hours of simulated mining in seconds)
// use RunSimulation, which reproduces the paper's §VII evaluation; the
// cmd/smartcrowd-bench binary regenerates every table and figure.
package smartcrowd

import (
	"errors"
	"net/http"

	"github.com/smartcrowd/smartcrowd/internal/core"
	"github.com/smartcrowd/smartcrowd/internal/detection"
	"github.com/smartcrowd/smartcrowd/internal/economics"
	"github.com/smartcrowd/smartcrowd/internal/node"
	"github.com/smartcrowd/smartcrowd/internal/rpc"
	"github.com/smartcrowd/smartcrowd/internal/sim"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// Core value types.
type (
	// Amount is a currency quantity in gwei (10⁻⁹ ether).
	Amount = types.Amount
	// Address is a 20-byte account identifier.
	Address = types.Address
	// Hash is a 32-byte Keccak-256 digest.
	Hash = types.Hash
	// Severity classifies a vulnerability's risk.
	Severity = types.Severity
	// Finding is one reported vulnerability.
	Finding = types.Finding
	// SRA is a system release announcement (paper Eq. 1).
	SRA = types.SRA
	// InitialReport is the R† commitment (paper Eq. 3).
	InitialReport = types.InitialReport
	// DetailedReport is the R* reveal (paper Eq. 5).
	DetailedReport = types.DetailedReport
	// Wallet is a secp256k1 signing identity.
	Wallet = wallet.Wallet
)

// Currency units.
const (
	GWei  = types.GWei
	Ether = types.Ether
)

// Severity levels.
const (
	SeverityLow    = types.SeverityLow
	SeverityMedium = types.SeverityMedium
	SeverityHigh   = types.SeverityHigh
)

// EtherAmount converts whole ether to an Amount.
func EtherAmount(n uint64) Amount { return types.EtherAmount(n) }

// Platform orchestration.
type (
	// Platform is a running SmartCrowd deployment: providers, detectors
	// and consumers over a gossip network.
	Platform = core.Platform
	// PlatformConfig parameterizes NewPlatform.
	PlatformConfig = core.Config
	// Reference is the consumer-facing security summary for a release.
	Reference = node.Reference
	// ProviderNode is a mining IoT provider (full node).
	ProviderNode = node.ProviderNode
	// DetectorNode is a lightweight detector driving the two-phase
	// report protocol.
	DetectorNode = node.DetectorNode
	// Consumer queries the chain before deployment.
	Consumer = node.Consumer
)

// NewPlatform creates an empty platform; fund accounts and add providers
// and detectors, then drive it with Release (a provider announces a
// system) and Mine (a provider seals the next block, and every detector
// polls the chain).
func NewPlatform(cfg PlatformConfig) *Platform { return core.NewPlatform(cfg) }

// Detection substrate.
type (
	// SystemImage is a released IoT system with its vulnerability
	// universe.
	SystemImage = detection.SystemImage
	// UniverseSpec sizes a generated vulnerability universe.
	UniverseSpec = detection.UniverseSpec
	// Vulnerability is one ground-truth flaw.
	Vulnerability = detection.Vulnerability
	// Engine is a detector's analysis capability.
	Engine = detection.Engine
	// CapabilityEngine models a detector with tunable capability/speed.
	CapabilityEngine = detection.CapabilityEngine
	// ForgingEngine fabricates findings (attack model).
	ForgingEngine = detection.ForgingEngine
	// PlagiarizingEngine replays stolen findings (attack model).
	PlagiarizingEngine = detection.PlagiarizingEngine
	// ServiceProfile simulates a Table-I third-party scanning service.
	ServiceProfile = detection.ServiceProfile
	// Detection is one engine finding with its discovery time.
	Detection = detection.Detection
	// OverlapStats measures how much two finding sets intersect.
	OverlapStats = detection.OverlapStats
)

// Extended detection capabilities (paper §VIII).
type (
	// VulnLibrary is a CVE/NVD-style signature database.
	VulnLibrary = detection.VulnLibrary
	// Signature is one known-vulnerability record.
	Signature = detection.Signature
	// LibraryEngine scans by signature matching against a library.
	LibraryEngine = detection.LibraryEngine
	// FuzzingEngine models dynamic/fuzz testing with an iteration budget.
	FuzzingEngine = detection.FuzzingEngine
	// CompositeEngine merges engines N-version style.
	CompositeEngine = detection.CompositeEngine
	// Notification is a retrospective-detection alert for a subscribed
	// consumer (the SmartRetro extension).
	Notification = core.Notification
)

// NewVulnLibrary creates an empty signature database.
func NewVulnLibrary() *VulnLibrary { return detection.NewVulnLibrary() }

// AggregateFindings merges multiple detectors' findings into one
// deduplicated reference (N-version descriptions, paper §VIII).
func AggregateFindings(reports ...[]Finding) []Finding {
	return detection.AggregateFindings(reports...)
}

// Overlap computes the pairwise overlap between two scans.
func Overlap(nameA string, a []Detection, nameB string, b []Detection) OverlapStats {
	return detection.Overlap(nameA, a, nameB, b)
}

// CountBySeverity tallies detections per severity in Table I column order
// (high, medium, low).
func CountBySeverity(ds []Detection) [3]int { return detection.CountBySeverity(ds) }

// GenerateImage builds a system image with a seeded vulnerability
// universe.
func GenerateImage(name, version string, spec UniverseSpec) *SystemImage {
	return detection.GenerateImage(name, version, spec)
}

// TableIApps returns the two IoT apps of the paper's Table I.
func TableIApps() []*SystemImage { return detection.TableIApps() }

// TableIServices returns the six third-party service profiles of Table I.
func TableIServices() []*ServiceProfile { return detection.TableIServices() }

// Experiment harness.
type (
	// SimConfig parameterizes a whole-platform simulation run.
	SimConfig = sim.Config
	// SimResult carries a run's blocks, balances and SRA outcomes.
	SimResult = sim.Result
	// ProviderSpec configures one simulated mining provider.
	ProviderSpec = sim.ProviderSpec
	// DetectorSpec configures one simulated detector.
	DetectorSpec = sim.DetectorSpec
	// ReleaseSpec schedules one simulated SRA.
	ReleaseSpec = sim.ReleaseSpec
)

// RunSimulation executes a deterministic whole-platform simulation — the
// harness behind every table and figure reproduction.
func RunSimulation(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// ProviderModel is the theoretical model of paper §VI-B: it evaluates
// provider incentives, punishments and the VPB baseline (Eq. 8, 9, 14).
type ProviderModel = economics.ProviderModel

// PaperProviderModel returns the provider model calibrated to the paper's
// testbed for a hashing-power share and insurance.
func PaperProviderModel(hashShare, insuranceEther float64) ProviderModel {
	return economics.PaperProviderModel(hashShare, insuranceEther)
}

// TotalDetectionCapability computes DC_T (Eq. 11).
func TotalDetectionCapability(capabilities, rhos []float64) (float64, error) {
	return economics.TotalDetectionCapability(capabilities, rhos)
}

// NewWallet derives a deterministic wallet from a label (simulation use
// only — not for real value).
func NewWallet(label string) *Wallet { return wallet.NewDeterministic(label) }

// SaveKeystore persists a wallet's key encrypted under a passphrase
// (AES-256-GCM, PBKDF2-HMAC-SHA256).
func SaveKeystore(w *Wallet, path, passphrase string) error {
	return wallet.SaveKeystore(w, path, passphrase)
}

// LoadKeystore unseals a keystore file.
func LoadKeystore(path, passphrase string) (*Wallet, error) {
	return wallet.LoadKeystore(path, passphrase)
}

// NewAPIHandler serves the platform's HTTP/JSON query API (status, blocks,
// balances, receipts, SRA references, light-client proofs, transaction
// submission) over its first provider node — the interaction surface the
// paper implements with the Ethereum JSON API.
func NewAPIHandler(p *Platform) (http.Handler, error) {
	providers := p.Providers()
	if len(providers) == 0 {
		return nil, errors.New("smartcrowd: platform has no providers")
	}
	return rpc.NewServer(providers[0], p.Contract()), nil
}
