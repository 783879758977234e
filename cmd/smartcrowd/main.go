// Command smartcrowd runs a local SmartCrowd testnet and utilities.
//
// Subcommands:
//
//	keygen            generate a stakeholder keypair
//	demo              run the full release→detect→payout→query lifecycle
//	mine              seal blocks with the real CPU proof-of-work sealer
//	simulate          run a whole-platform simulation and print balances
//	node              run a networked provider on the TCP wire transport
//	serve             serve the HTTP/JSON query API
//
// Run `smartcrowd <subcommand> -h` for flags.
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/core"
	"github.com/smartcrowd/smartcrowd/internal/detection"
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/rpc"
	"github.com/smartcrowd/smartcrowd/internal/sim"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	switch args[0] {
	case "keygen":
		return cmdKeygen(args[1:])
	case "demo":
		return cmdDemo(args[1:])
	case "mine":
		return cmdMine(args[1:])
	case "simulate":
		return cmdSimulate(args[1:])
	case "node":
		return cmdNode(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "-h", "--help", "help":
		usage()
		return 0
	default:
		fmt.Fprintf(os.Stderr, "smartcrowd: unknown subcommand %q\n", args[0])
		usage()
		return 2
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: smartcrowd <subcommand> [flags]

subcommands:
  keygen      generate a stakeholder keypair
  demo        run the full release→detect→payout→query lifecycle
  mine        seal blocks with the real CPU proof-of-work sealer
  simulate    run a whole-platform simulation and print balances
  node        run a networked provider: TCP gossip, CPU mining, /v1 API
  serve       run the demo lifecycle and serve the HTTP/JSON query API`)
}

func cmdKeygen(args []string) int {
	fs := flag.NewFlagSet("keygen", flag.ExitOnError)
	label := fs.String("label", "", "derive deterministically from a label (testing only)")
	out := fs.String("out", "", "save an encrypted keystore file to this path")
	passphrase := fs.String("passphrase", "", "keystore passphrase (required with -out)")
	_ = fs.Parse(args)

	var w *wallet.Wallet
	if *label != "" {
		w = wallet.NewDeterministic(*label)
	} else {
		var err error
		w, err = wallet.New(rand.Reader)
		if err != nil {
			fmt.Fprintf(os.Stderr, "smartcrowd: keygen: %v\n", err)
			return 1
		}
	}
	fmt.Printf("address:    %s\n", w.Address())
	fmt.Printf("public key: %x\n", w.PublicKey().BytesCompressed())
	if *out != "" {
		if err := wallet.SaveKeystore(w, *out, *passphrase); err != nil {
			fmt.Fprintf(os.Stderr, "smartcrowd: keygen: %v\n", err)
			return 1
		}
		// Prove the roundtrip before reporting success.
		if _, err := wallet.LoadKeystore(*out, *passphrase); err != nil {
			fmt.Fprintf(os.Stderr, "smartcrowd: keygen: keystore verification failed: %v\n", err)
			return 1
		}
		fmt.Printf("keystore:   %s (AES-256-GCM, PBKDF2-HMAC-SHA256)\n", *out)
	}
	return 0
}

func cmdDemo(args []string) int {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	vulns := fs.Int("vulns", 4, "vulnerabilities seeded into the released firmware")
	insurance := fs.Uint64("insurance", 1000, "SRA insurance in ether")
	bounty := fs.Uint64("bounty", 5, "per-vulnerability bounty in ether")
	seed := fs.Int64("seed", 1, "deterministic run seed")
	_ = fs.Parse(args)

	p := core.NewPlatform(core.Config{Seed: *seed})
	must := func(err error) bool {
		if err != nil {
			fmt.Fprintf(os.Stderr, "smartcrowd: demo: %v\n", err)
			return false
		}
		return true
	}
	if !must(p.Fund(p.ProviderWallet("acme").Address(), types.EtherAmount(10_000))) ||
		!must(p.Fund(p.ProviderWallet("globex").Address(), types.EtherAmount(10_000))) ||
		!must(p.Fund(p.DetectorWallet("seclab").Address(), types.EtherAmount(100))) {
		return 1
	}
	if _, err := p.AddProvider("acme"); !must(err) {
		return 1
	}
	if _, err := p.AddProvider("globex"); !must(err) {
		return 1
	}
	if _, err := p.AddDetector("seclab", &detection.CapabilityEngine{
		Name: "seclab", Capability: 1, Speed: 4, Seed: *seed,
	}); !must(err) {
		return 1
	}

	img := detection.GenerateImage("smart-cam-fw", "2.0", detection.UniverseSpec{
		High: *vulns / 2, Medium: *vulns - *vulns/2, Seed: *seed,
	})
	fmt.Printf("release: %s v%s with %d seeded vulnerabilities\n", img.Name, img.Version, len(img.Vulns))

	sra, err := p.Release(0, img, types.EtherAmount(*insurance), types.EtherAmount(*bounty))
	if !must(err) {
		return 1
	}
	fmt.Printf("phase 1: SRA %s announced, %s escrowed\n", sra.ID.Short(), sra.Insurance)

	for i := 0; i < 6; i++ {
		blk, err := p.Mine(i % 2)
		if !must(err) {
			return 1
		}
		fmt.Printf("block %d sealed by %s (%d txs)\n",
			blk.Header.Number, blk.Header.Miner.Short(), len(blk.Txs))
	}

	ref, err := p.Reference(sra.ID)
	if !must(err) {
		return 1
	}
	fmt.Printf("phase 4: consumer reference for %s\n", sra.ID.Short())
	fmt.Printf("  provider:            %s\n", ref.Provider)
	fmt.Printf("  confirmed vulns:     %d\n", ref.ConfirmedVulns)
	fmt.Printf("  reports on chain:    %d\n", ref.Reports)
	fmt.Printf("  insurance remaining: %s\n", ref.InsuranceRemaining)
	fmt.Printf("  safe to deploy:      %v\n", ref.SafeToDeploy)
	fmt.Printf("detector earned:       %s\n", p.Detectors()[0].Earnings())
	return 0
}

func cmdMine(args []string) int {
	fs := flag.NewFlagSet("mine", flag.ExitOnError)
	blocks := fs.Int("blocks", 5, "blocks to seal")
	threads := fs.Int("threads", 0, "sealer threads (0 = all CPUs)")
	target := fs.Duration("target", 2*time.Second, "desired time per block")
	_ = fs.Parse(args)

	rate := pow.HashRate(30_000)
	difficulty := uint64(rate * target.Seconds())
	if difficulty == 0 {
		difficulty = 1
	}
	fmt.Printf("calibration: %.0f header-hashes/s, difficulty %d for ~%s blocks\n",
		rate, difficulty, target)

	sealer := &pow.CPUSealer{Threads: *threads}
	parent := types.Hash{}
	miner := wallet.NewDeterministic("cli-miner").Address()
	for n := 1; n <= *blocks; n++ {
		hdr := types.Header{
			ParentID:   parent,
			Number:     uint64(n),
			Time:       uint64(n),
			Difficulty: difficulty,
			Miner:      miner,
		}
		start := time.Now()
		sealed, err := sealer.Seal(hdr, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "smartcrowd: mine: %v\n", err)
			return 1
		}
		elapsed := time.Since(start)
		parent = sealed.ID()
		fmt.Printf("block %d sealed: nonce %d, id %s, %s\n",
			n, sealed.Nonce, parent.Short(), elapsed.Round(time.Millisecond))
	}
	return 0
}

func cmdSimulate(args []string) int {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	horizon := fs.Duration("horizon", 30*time.Minute, "simulated duration")
	detectors := fs.Int("detectors", 4, "number of detectors (threads 1..n)")
	vulns := fs.Int("vulns", 8, "vulnerabilities in the released system")
	insurance := fs.Uint64("insurance", 1000, "insurance in ether")
	bounty := fs.Uint64("bounty", 5, "bounty per vulnerability in ether")
	seed := fs.Int64("seed", 1, "deterministic run seed")
	_ = fs.Parse(args)

	shares := pow.TopFiveEthereumShares()
	providers := make([]sim.ProviderSpec, len(shares))
	for i, s := range shares {
		providers[i] = sim.ProviderSpec{Name: s.Name, HashShare: s.HashShare}
	}
	specs := make([]sim.DetectorSpec, *detectors)
	for i := range specs {
		specs[i] = sim.DetectorSpec{Name: fmt.Sprintf("detector-%d", i+1), Threads: i + 1}
	}

	res, err := sim.Run(sim.Config{
		Seed:      *seed,
		Providers: providers,
		Detectors: specs,
		Releases: []sim.ReleaseSpec{{
			Provider: 2, At: 30 * time.Second,
			Insurance: types.EtherAmount(*insurance),
			Bounty:    types.EtherAmount(*bounty),
			NumVulns:  *vulns,
		}},
		Horizon: *horizon,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "smartcrowd: simulate: %v\n", err)
		return 1
	}

	fmt.Printf("simulated %s: %d blocks sealed\n", *horizon, len(res.Blocks))
	fmt.Println("\nproviders:")
	for i, spec := range providers {
		bal := res.ProviderBalance(i)
		fmt.Printf("  %-12s HP %5.2f%%  blocks %3d  mining %8s  fees %10s  punish %8s  net %+9.3f ETH\n",
			spec.Name, spec.HashShare*100, bal.Blocks, bal.Mining, bal.Fees, bal.Punishment, bal.Net())
	}
	fmt.Println("\ndetectors:")
	for i, spec := range specs {
		bal := res.DetectorBalance(i)
		fmt.Printf("  %-12s threads %d  claims %2d  bounty %9s  gas %9s  net %+9.3f ETH\n",
			spec.Name, spec.Threads, bal.Accepted, bal.Bounty, bal.Gas, bal.Net())
	}
	for _, sra := range res.SRAs {
		fmt.Printf("\nSRA %s: %d/%d vulnerabilities confirmed, %s forfeited of %s insurance\n",
			sra.ID.Short(), sra.Confirmed, sra.NumVulns, sra.PaidOut, sra.Insurance)
	}
	fmt.Println()
	fmt.Print(res.TelemetrySummary())
	return 0
}

func cmdServe(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8047", "listen address")
	seed := fs.Int64("seed", 1, "deterministic run seed")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (operator use only)")
	rpcTimeout := fs.Duration("rpc-timeout", 0,
		"read/write deadline per RPC request (0 = 30s defaults); header and idle deadlines are always set")
	_ = fs.Parse(args)

	// Build the demo platform so the API has something to serve.
	p := core.NewPlatform(core.Config{Seed: *seed})
	if err := p.Fund(p.ProviderWallet("acme").Address(), types.EtherAmount(10_000)); err != nil {
		fmt.Fprintf(os.Stderr, "smartcrowd: serve: %v\n", err)
		return 1
	}
	if err := p.Fund(p.DetectorWallet("seclab").Address(), types.EtherAmount(100)); err != nil {
		fmt.Fprintf(os.Stderr, "smartcrowd: serve: %v\n", err)
		return 1
	}
	prov, err := p.AddProvider("acme")
	if err != nil {
		fmt.Fprintf(os.Stderr, "smartcrowd: serve: %v\n", err)
		return 1
	}
	if _, err := p.AddDetector("seclab", &detection.CapabilityEngine{
		Name: "seclab", Capability: 1, Speed: 4, Seed: *seed,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "smartcrowd: serve: %v\n", err)
		return 1
	}
	img := detection.GenerateImage("smart-cam-fw", "2.0", detection.UniverseSpec{High: 2, Medium: 2, Seed: *seed})
	sra, err := p.Release(0, img, types.EtherAmount(1000), types.EtherAmount(5))
	if err != nil {
		fmt.Fprintf(os.Stderr, "smartcrowd: serve: %v\n", err)
		return 1
	}
	for i := 0; i < 6; i++ {
		if _, err := p.Mine(0); err != nil {
			fmt.Fprintf(os.Stderr, "smartcrowd: serve: %v\n", err)
			return 1
		}
	}
	fmt.Printf("serving SmartCrowd API on http://%s\n", *addr)
	fmt.Printf("try: curl http://%s/v1/status\n", *addr)
	fmt.Printf("     curl http://%s/v1/reference/%s\n", *addr, sra.ID)
	fmt.Printf("     curl http://%s/metrics\n", *addr)
	if *pprofOn {
		fmt.Printf("     pprof enabled: go tool pprof http://%s/debug/pprof/profile\n", *addr)
	}
	server := rpc.NewServerWith(prov, p.Contract(), rpc.Config{EnablePprof: *pprofOn})
	if err := rpc.NewHTTPServer(*addr, server, *rpcTimeout).ListenAndServe(); err != nil {
		fmt.Fprintf(os.Stderr, "smartcrowd: serve: %v\n", err)
		return 1
	}
	return 0
}
