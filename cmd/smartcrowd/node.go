package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/detection"
	"github.com/smartcrowd/smartcrowd/internal/node"
	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/rpc"
	"github.com/smartcrowd/smartcrowd/internal/store"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
	"github.com/smartcrowd/smartcrowd/internal/wire"
)

// cmdNode runs one full SmartCrowd provider as an OS process on the real
// TCP transport: it mines with the CPU sealer, gossips blocks and
// transactions to its peers, backfills ancestry after partitions, and
// serves the /v1 HTTP API. Several of these processes on one host (or
// many) converge to a single canonical chain.
func cmdNode(args []string) int {
	fs := flag.NewFlagSet("node", flag.ExitOnError)
	id := fs.String("id", "", "node identity (default: node@<listen addr>)")
	listen := fs.String("listen", "127.0.0.1:9470", "TCP listen address for the wire transport")
	peers := fs.String("peers", "", "comma-separated peer addresses to dial and keep dialed")
	rpcAddr := fs.String("rpc", "", "serve the /v1 HTTP API on this address (empty = no RPC)")
	mine := fs.Bool("mine", true, "mine blocks with the CPU sealer")
	threads := fs.Int("threads", 1, "sealer threads (0 = all CPUs)")
	difficulty := fs.Uint64("difficulty", 160_000, "fixed block difficulty (~hashes per block)")
	maxTxs := fs.Int("maxtxs", 0, "max transactions per mined block (0 = no cap)")
	blocks := fs.Int("blocks", 0, "stop after mining this many blocks (0 = run until interrupted)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof on the RPC listener (operator use only)")
	rpcTimeout := fs.Duration("rpc-timeout", 0,
		"read/write deadline per RPC request (0 = 30s defaults); header and idle deadlines are always set")
	datadir := fs.String("datadir", "", "persist the chain under this directory (empty = in-memory only)")
	snapInterval := fs.Uint64("snapshot-interval", 512,
		"blocks between durable state snapshots (only with -datadir)")
	_ = fs.Parse(args)

	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "smartcrowd: node: %v\n", err)
		return 1
	}

	nodeID := p2p.NodeID(*id)
	if nodeID == "" {
		nodeID = p2p.NodeID("node@" + *listen)
	}

	// Every node derives the identical genesis from an empty allocation
	// and default contract parameters, so handshakes across processes
	// agree. Mining rewards, not genesis funding, supply the economy.
	sc := contract.New(contract.DefaultParams(), detection.NewGroundTruthVerifier(false))
	cfg := chain.DefaultConfig(sc)
	if *datadir != "" {
		disk, err := store.Open(*datadir)
		if err != nil {
			return fail(err)
		}
		cfg.Storage = disk
		cfg.SnapshotInterval = *snapInterval
	}
	prov, err := node.NewProvider(nodeID, wallet.NewDeterministic(string(nodeID)), cfg, nil)
	if err != nil {
		return fail(err)
	}
	// Flush the final state snapshot and release the store on every exit
	// path, so the next start restores from the snapshot instead of
	// replaying the whole log.
	defer func() {
		if err := prov.Chain().Close(); err != nil {
			fmt.Fprintf(os.Stderr, "smartcrowd: node: close: %v\n", err)
		}
	}()
	if *datadir != "" {
		st := prov.Chain().StorageStats()
		fmt.Printf("node %s: chain storage in %s (%d blocks", nodeID, st.Dir, st.Blocks)
		if st.Recovered {
			fmt.Printf(", recovered after crash")
		}
		fmt.Printf("), head %d\n", prov.Chain().HeadNumber())
	}

	transport, err := wire.New(wire.Config{
		NodeID:     nodeID,
		ListenAddr: *listen,
		Genesis:    prov.Chain().Genesis().ID(),
		Peers:      splitPeers(*peers),
		Head: func() (types.Hash, uint64) {
			head := prov.Chain().Head()
			return head.ID(), head.Header.Number
		},
	})
	if err != nil {
		return fail(err)
	}
	defer transport.Close()
	prov.AttachTransport(transport)
	transport.Start()
	fmt.Printf("node %s: wire transport on %s", nodeID, transport.Addr())
	if len(splitPeers(*peers)) > 0 {
		fmt.Printf(", dialing %s", *peers)
	}
	fmt.Println()

	if *rpcAddr != "" {
		server := rpc.NewServerWith(prov, sc, rpc.Config{EnablePprof: *pprofOn})
		// Deadlines on every connection phase keep slow-loris clients
		// from pinning handler goroutines on an unattended listener.
		httpSrv := rpc.NewHTTPServer(*rpcAddr, server, *rpcTimeout)
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "smartcrowd: node: rpc: %v\n", err)
			}
		}()
		fmt.Printf("node %s: /v1 API on http://%s\n", nodeID, *rpcAddr)
	}

	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() { <-sig; close(stop) }()

	// Gossip pump: drain the transport whenever messages land, with a
	// timer fallback so re-dial events and stragglers are never stuck.
	go func() {
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-transport.Wake():
			case <-tick.C:
			case <-stop:
				return
			}
			prov.HandleMessages()
		}
	}()

	if !*mine {
		<-stop
		return 0
	}

	sealer := &pow.CPUSealer{Threads: *threads}
	mined := 0
	for {
		select {
		case <-stop:
			return 0
		default:
		}
		blk, err := prov.SealAndPublish(sealer, uint64(time.Now().UnixMilli()), *difficulty, *maxTxs, stop)
		if errors.Is(err, node.ErrStaleSeal) {
			continue // head moved under us: rebuild on the new head
		}
		if err != nil {
			select {
			case <-stop:
				return 0
			default:
			}
			if errors.Is(err, pow.ErrSealAborted) {
				continue
			}
			fmt.Fprintf(os.Stderr, "smartcrowd: node: seal: %v\n", err)
			time.Sleep(250 * time.Millisecond)
			continue
		}
		mined++
		fmt.Printf("node %s: sealed block %d (%s, %d txs)\n",
			nodeID, blk.Header.Number, blk.ID().Short(), len(blk.Txs))
		if *blocks > 0 && mined >= *blocks {
			fmt.Printf("node %s: mined %d blocks, holding at head %d\n", nodeID, mined, prov.Chain().HeadNumber())
			<-stop
			return 0
		}
	}
}

func splitPeers(csv string) []string {
	var out []string
	for _, p := range strings.Split(csv, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
