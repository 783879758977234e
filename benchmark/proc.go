package benchmark

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/telemetry"
)

// resetPeakRSS restarts the resident-set high-water mark at the current
// resident set (Linux: writing 5 to clear_refs). Where the kernel refuses,
// the mark keeps covering the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return rusageMaxRSSMB()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return rusageMaxRSSMB()
}

func rusageMaxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// probe accumulates, over the traced rounds of a run, everything the
// per-layer table needs that is not a span: telemetry deltas of series
// that already exist, process counters, the sealer loop's statistics and
// the operation count the ratios divide by.
type probe struct {
	tele       map[string]float64
	cpu        time.Duration
	allocBytes uint64
	gcPause    time.Duration
	goroutines atomic.Int64
	ops        int
	txs        int
	seals      sealStats
	pumpCalls  int64

	// open-round state
	t0Tele   telemetry.Snapshot
	t0CPU    time.Duration
	t0Mem    runtime.MemStats
	t0Pumps  int64
	sampling atomic.Bool
}

func newProbe() *probe { return &probe{tele: make(map[string]float64)} }

// begin opens a traced round. pumps is the cluster's pump-call counter.
func (p *probe) begin(pumps int64) {
	p.t0Tele = telemetry.TakeSnapshot()
	p.t0CPU = cpuTime()
	runtime.ReadMemStats(&p.t0Mem)
	p.t0Pumps = pumps
	p.sampling.Store(true)
	p.sample()
}

// end closes a traced round that completed ops operations and committed
// txs transactions.
func (p *probe) end(ops, txs int, pumps int64, seals sealStats) {
	for k, v := range telemetry.Since(p.t0Tele) {
		// Since reports gauges and quantiles at their current value; keep
		// the latest of those and sum the monotone ones.
		if isMonotone(k) {
			p.tele[k] += v
		} else {
			p.tele[k] = v
		}
	}
	p.cpu += cpuTime() - p.t0CPU
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.allocBytes += m.TotalAlloc - p.t0Mem.TotalAlloc
	p.gcPause += time.Duration(m.PauseTotalNs - p.t0Mem.PauseTotalNs)
	p.pumpCalls += pumps - p.t0Pumps
	p.ops += ops
	p.txs += txs
	p.seals.blocks += seals.blocks
	p.seals.txsPerBlock = append(p.seals.txsPerBlock, seals.txsPerBlock...)
	p.seals.sealMs = append(p.seals.sealMs, seals.sealMs...)
	p.seals.lagMs = append(p.seals.lagMs, seals.lagMs...)
	p.seals.pendingMax = max(p.seals.pendingMax, seals.pendingMax)
	p.sample()
	p.sampling.Store(false)
}

// isMonotone recognises counters and histogram counts/sums by the name
// suffixes the metricname lint enforces.
func isMonotone(key string) bool {
	name := key
	if i := strings.IndexByte(key, '{'); i >= 0 {
		name = key[:i]
	}
	return strings.HasSuffix(name, "_total") || strings.HasSuffix(name, "_count") || strings.HasSuffix(name, "_sum")
}

// sample notes the goroutine count; called at round boundaries and when
// operations end, from any goroutine.
func (p *probe) sample() {
	if p == nil || !p.sampling.Load() {
		return
	}
	n := int64(runtime.NumGoroutine())
	for {
		cur := p.goroutines.Load()
		if n <= cur || p.goroutines.CompareAndSwap(cur, n) {
			return
		}
	}
}
