// Package core assembles the SmartCrowd platform: a gossip network of
// mining IoT providers, lightweight detectors, and consumer clients wired
// to the SmartCrowd contract — the production-path counterpart of the
// experiment harness in internal/sim. It exposes the workflow of paper
// §IV-B: insured release announcements, distributed detection, two-phase
// fault-tolerant report storage, and automated incentive allocation.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/detection"
	"github.com/smartcrowd/smartcrowd/internal/node"
	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// Config parameterizes a platform.
type Config struct {
	// Seed drives deterministic wallets and network behaviour.
	Seed int64
}

// Platform is a running SmartCrowd deployment.
type Platform struct {
	mu  sync.Mutex
	cfg Config

	net      *p2p.Network
	verifier *detection.GroundTruthVerifier
	contract *contract.Contract
	chainCfg chain.Config

	providers []*node.ProviderNode
	detectors []*node.DetectorNode

	alloc  map[types.Address]types.Amount
	clock  uint64
	nonce  map[types.Address]uint64
	notify *notifier
}

// Platform errors.
var (
	ErrNoProviders     = errors.New("core: platform has no providers")
	ErrUnknownProvider = errors.New("core: unknown provider index")
	ErrUnknownSRA      = errors.New("core: unknown SRA")
	ErrLocked          = errors.New("core: providers must be added before the platform starts")
)

// NewPlatform creates an empty platform; add providers and detectors, then
// drive it with Release/Mine/Step.
func NewPlatform(cfg Config) *Platform {
	p := &Platform{
		cfg:      cfg,
		net:      p2p.New(p2p.Config{Seed: cfg.Seed}),
		verifier: detection.NewGroundTruthVerifier(false),
		alloc:    make(map[types.Address]types.Amount),
		nonce:    make(map[types.Address]uint64),
		notify:   newNotifier(),
	}
	p.contract = contract.New(contract.DefaultParams(), p.verifier)
	p.chainCfg = chain.DefaultConfig(p.contract)
	p.chainCfg.SkipPoWCheck = true
	return p
}

// Fund allocates genesis balance to an address. Must be called before the
// first provider is added (genesis is fixed at that point).
func (p *Platform) Fund(addr types.Address, amount types.Amount) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.providers) > 0 {
		return ErrLocked
	}
	p.alloc[addr] = amount
	return nil
}

// AddProvider creates a mining provider node. All providers must be added
// after funding and before any blocks are mined (they share one genesis).
func (p *Platform) AddProvider(name string) (*node.ProviderNode, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := wallet.NewDeterministic(fmt.Sprintf("platform%d-provider-%s", p.cfg.Seed, name))
	cfg := p.chainCfg
	cfg.Alloc = p.alloc
	prov, err := node.NewProvider(p2p.NodeID("provider/"+name), w, cfg, p.net)
	if err != nil {
		return nil, err
	}
	p.providers = append(p.providers, prov)
	return prov, nil
}

// AddDetector creates a lightweight detector node with the given engine.
// Detectors read the chain through the first provider and download
// released images from the platform's verifier, which publishes each at
// Release.
func (p *Platform) AddDetector(name string, engine detection.Engine) (*node.DetectorNode, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.providers) == 0 {
		return nil, ErrNoProviders
	}
	w := wallet.NewDeterministic(fmt.Sprintf("platform%d-detector-%s", p.cfg.Seed, name))
	det := node.NewDetector(p2p.NodeID("detector/"+name), w, engine, p.providers[0].Chain(), p.contract, p.verifier, p.net)
	p.detectors = append(p.detectors, det)
	return det, nil
}

// DetectorWallet returns the deterministic wallet a named detector will
// use; callers fund it before adding providers.
func (p *Platform) DetectorWallet(name string) *wallet.Wallet {
	return wallet.NewDeterministic(fmt.Sprintf("platform%d-detector-%s", p.cfg.Seed, name))
}

// ProviderWallet returns the deterministic wallet a named provider will
// use.
func (p *Platform) ProviderWallet(name string) *wallet.Wallet {
	return wallet.NewDeterministic(fmt.Sprintf("platform%d-provider-%s", p.cfg.Seed, name))
}

// Contract exposes the SmartCrowd contract for queries.
func (p *Platform) Contract() *contract.Contract { return p.contract }

// Release performs Phase #1 for provider i: it signs an insured SRA for
// the image, submits the announcement transaction, and registers the
// ground truth with AutoVerif, which also publishes the image at its
// download link.
func (p *Platform) Release(providerIdx int, img *detection.SystemImage, insurance, bounty types.Amount) (*types.SRA, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if providerIdx < 0 || providerIdx >= len(p.providers) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownProvider, providerIdx)
	}
	prov := p.providers[providerIdx]
	sra := &types.SRA{
		Provider:     prov.Address(),
		Name:         img.Name,
		Version:      img.Version,
		SystemHash:   img.Hash(),
		DownloadLink: fmt.Sprintf("sc://releases/%s/%s", img.Name, img.Version),
		Insurance:    insurance,
		Bounty:       bounty,
	}
	if err := types.SignSRA(sra, prov.Wallet()); err != nil {
		return nil, err
	}
	// The nonce is spent only by a submission the pool admits: the pool
	// admits nonce gaps, so a refused SRA that kept its nonce would leave
	// every later release by this provider pooled but never mined.
	tx := types.NewSRATx(sra, p.nonce[prov.Address()], contract.GasSRA, contract.GasPrice)
	if err := types.SignTx(tx, prov.Wallet()); err != nil {
		return nil, err
	}
	if err := prov.SubmitTx(tx); err != nil {
		return nil, fmt.Errorf("core: submit SRA: %w", err)
	}
	p.nonce[prov.Address()]++
	p.verifier.Register(sra.ID, img)
	return sra, nil
}

// Mine lets provider i seal the next block (timestamped by the platform
// clock), settles gossip and polls every detector: each scans the SRAs
// newly chained in its view (Phase #2) and commits what it found, and
// reveals its confirmed commitments (Phase #3/#4).
func (p *Platform) Mine(providerIdx int) (*types.Block, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if providerIdx < 0 || providerIdx >= len(p.providers) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownProvider, providerIdx)
	}
	p.clock += 15_350
	blk, err := p.providers[providerIdx].SealAndPublish(pow.AsBuilt{}, p.clock, 1000, 0, nil)
	if err != nil {
		return nil, err
	}
	p.settleLocked()
	for _, det := range p.detectors {
		det.Poll(scanWhole)
	}
	p.settleLocked()
	p.dispatchNotificationsLocked()
	return blk, nil
}

// settleLocked drains the network until quiet: after a seal, and after
// the messages detector polls produce.
func (p *Platform) settleLocked() {
	for i := 0; i < 32; i++ {
		p.clock += 10
		p.net.AdvanceTo(p.clock)
		for _, prov := range p.providers {
			prov.HandleMessages()
		}
		if p.net.PendingDeliveries() == 0 {
			return
		}
	}
}

// scanWhole is the time the platform polls its detectors at: past any
// finding's search time, so a detector commits everything one scan of an
// SRA found at once, in one R†.
const scanWhole = time.Duration(math.MaxInt64)

// Providers returns the provider nodes.
func (p *Platform) Providers() []*node.ProviderNode {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*node.ProviderNode(nil), p.providers...)
}

// Detectors returns the detector nodes.
func (p *Platform) Detectors() []*node.DetectorNode {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*node.DetectorNode(nil), p.detectors...)
}

// Consumer builds a consumer client over the canonical chain.
func (p *Platform) Consumer(maxTolerated uint64) (*node.Consumer, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.providers) == 0 {
		return nil, ErrNoProviders
	}
	return node.NewConsumer(p.providers[0].Chain(), p.contract, maxTolerated), nil
}

// Reference looks up the consumer-facing security reference for an SRA.
func (p *Platform) Reference(sraID types.Hash) (node.Reference, error) {
	consumer, err := p.Consumer(0)
	if err != nil {
		return node.Reference{}, err
	}
	return consumer.Lookup(sraID)
}
