package benchmark

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// runColdsync exercises the batch side of store and chain, with no HTTP
// and no sealing. Source A holds a chain of transfer blocks in a datadir.
// Each round, on fresh datadirs: (a) an empty node D dials A and
// snap-joins until it serves A's head; (b) D is closed and reopened; (c)
// node E, whose datadir is a copy of a template holding the first half of
// the chain, dials A and replays the second half through range sync.
func runColdsync(ctx context.Context, e *env) (*outcome, error) {
	seed, sz := e.opt.Seed, e.size

	senders := genAccounts(seed, "sender", sz.csSenders)
	genesis := make(map[types.Address]types.Amount, len(senders))
	alloc(genesis, senderFunding, senders...)
	total := sz.csBlocks * sz.csTxsPerBlock
	transfers, err := genTransfers(senders, (total+len(senders)-1)/len(senders))
	if err != nil {
		return nil, err
	}
	var flat []signedTx // round-major keeps every sender's nonces in order
	for _, round := range transfers {
		flat = append(flat, round...)
	}
	builder, err := newChainBuilder(genesis, nil)
	if err != nil {
		return nil, err
	}
	for b := 0; b < sz.csBlocks; b++ {
		txs := make([]*types.Transaction, sz.csTxsPerBlock)
		for i := range txs {
			txs[i] = flat[b*sz.csTxsPerBlock+i].tx
		}
		if err := builder.extend(txs); err != nil {
			return nil, err
		}
	}
	encoded := builder.encoded()
	half := sz.csBlocks / 2

	// Source node and the template datadir for step (c).
	src, err := startNode(e.rec, nodeSpec{name: "A", datadir: filepath.Join(e.root, "A"), alloc: genesis, preload: encoded})
	if err != nil {
		return nil, err
	}
	defer src.close()
	src.startPump()
	template := filepath.Join(e.root, "template")
	tn, err := openNode(nil, nodeSpec{name: "E", datadir: template, alloc: genesis, preload: encoded[:half]})
	if err != nil {
		return nil, err
	}
	if err := tn.close(); err != nil {
		return nil, fmt.Errorf("close template: %w", err)
	}
	srcHead := src.prov.Chain().Head().ID()
	srcRoot := src.prov.Chain().State().Root()
	peers := []string{src.tr.Addr()}

	out := &outcome{
		opUnit: "one joining node at a time against source A",
		extra:  make(map[string]float64),
		layers: newProbe(),

		listeners: src.addrs(),
	}

	// syncTo brings n online against A and waits until it reports A's head
	// and state root. It returns when the dial started and when the node
	// was caught up.
	syncTo := func(n *benchNode) (time.Time, time.Time, error) {
		caughtUp := make(chan struct{}, 1)
		n.afterPump = func() {
			if n.head() == uint64(sz.csBlocks) {
				select {
				case caughtUp <- struct{}{}:
				default:
				}
			}
		}
		t0 := time.Now()
		if err := n.goOnline(peers, false); err != nil {
			return t0, t0, err
		}
		n.startPump()
		out.listeners = append(out.listeners, n.addrs()...)
		select {
		case <-caughtUp:
		case <-ctx.Done():
			return t0, time.Now(), fmt.Errorf("node %s stuck at head %d of %d: %w", n.name, n.head(), sz.csBlocks, ctx.Err())
		}
		t1 := time.Now()
		if id := n.prov.Chain().Head().ID(); id != srcHead {
			return t0, t1, fmt.Errorf("node %s head %s differs from A's %s", n.name, id.Short(), srcHead.Short())
		}
		if root := n.prov.Chain().State().Root(); root != srcRoot {
			return t0, t1, fmt.Errorf("node %s state root %s differs from A's %s", n.name, root.Short(), srcRoot.Short())
		}
		return t0, t1, nil
	}

	// step records one attempted step; a failed one is a violation.
	step := func(measured bool, ref string, t0, t1 time.Time, err error) bool {
		if measured {
			out.attempted++
			if err != nil {
				out.failed++
			}
		}
		if err != nil {
			out.violate("step %s: %v", ref, err)
			return false
		}
		if e.rec.enabled() {
			e.rec.add(span{Name: spanOp, Ref: ref}, t0, t1)
		}
		out.layers.sample()
		return true
	}

	var reopenMs []float64
	runRound := func(r int, measured bool) (joinMs, replayRate float64, ok bool) {
		dir := filepath.Join(e.root, fmt.Sprintf("round-%d", r))
		defer os.RemoveAll(dir)

		// (a) snap-join from empty.
		t0 := time.Now()
		d, err := openNode(e.rec, nodeSpec{name: "D", datadir: filepath.Join(dir, "D"), alloc: genesis})
		var t1 time.Time
		if err == nil {
			_, t1, err = syncTo(d)
		}
		if !step(measured, fmt.Sprintf("a%d", r), t0, t1, err) {
			if d != nil {
				_ = d.close()
			}
			return 0, 0, false
		}
		joinMs = ms(t1.Sub(t0))
		closedHead := d.prov.Chain().Head().ID()
		if err := d.close(); err != nil {
			step(measured, fmt.Sprintf("b%d", r), t1, t1, fmt.Errorf("close D: %w", err))
			return 0, 0, false
		}

		// (b) reopen what D just closed: store.Open + node.NewProvider.
		t0 = time.Now()
		d2, err := openNode(e.rec, nodeSpec{name: "D", datadir: filepath.Join(dir, "D"), alloc: genesis})
		t1 = time.Now()
		if err == nil {
			if id := d2.prov.Chain().Head().ID(); id != closedHead {
				err = fmt.Errorf("reopened head %s differs from the closed one %s", id.Short(), closedHead.Short())
			} else if root := d2.prov.Chain().State().Root(); root != srcRoot {
				err = fmt.Errorf("reopened state root %s differs from A's %s", root.Short(), srcRoot.Short())
			}
			if cerr := d2.close(); err == nil {
				err = cerr
			}
		}
		if !step(measured, fmt.Sprintf("b%d", r), t0, t1, err) {
			return 0, 0, false
		}
		if measured && (e.rec == nil || e.rec.enabled()) {
			reopenMs = append(reopenMs, ms(t1.Sub(t0)))
		}

		// (c) replay the second half through range sync.
		eDir := filepath.Join(dir, "E")
		err = copyDir(template, eDir)
		var en *benchNode
		if err == nil {
			en, err = openNode(e.rec, nodeSpec{name: "E", datadir: eDir, alloc: genesis})
		}
		if err == nil && en.head() != uint64(half) {
			err = fmt.Errorf("template reopened at head %d, want %d", en.head(), half)
		}
		if err == nil {
			t0, t1, err = syncTo(en)
		}
		if en != nil {
			if cerr := en.close(); err == nil {
				err = cerr
			}
		}
		if !step(measured, fmt.Sprintf("c%d", r), t0, t1, err) {
			return 0, 0, false
		}
		return joinMs, float64(sz.csBlocks-half) / t1.Sub(t0).Seconds(), true
	}

	if _, _, ok := runRound(0, false); !ok {
		out.setupDone = time.Now()
		return out, nil
	}
	out.setupDone = e.endSetup()

	e.measure(out, src.pumpCalls.Load, func(r int, _ bool) (roundResult, bool) {
		joinMs, rate, ok := runRound(r, true)
		if ok {
			out.latenciesMs = append(out.latenciesMs, joinMs)
		}
		return roundResult{ops: 3, txs: (sz.csBlocks - half) * sz.csTxsPerBlock, rate: rate}, ok
	})
	out.extra["bench.reopen_p50_ms"] = median(reopenMs)
	return out, nil
}

// copyDir copies a flat datadir.
func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if err := copyFile(filepath.Join(from, ent.Name()), filepath.Join(to, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		_ = out.Close()
		return err
	}
	return out.Close()
}
