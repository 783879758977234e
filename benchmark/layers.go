package benchmark

import (
	"sort"
	"strings"
)

// layerMetrics turns what a traced run gathered — spans, telemetry
// deltas, process counters, the sealer loop's statistics and the
// workload's own extras — into the per-layer table. Every name in
// perLayer is present; a layer a workload does not touch reports 0.
func layerMetrics(out *outcome, spans []span) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, spec := range perLayer {
		m[spec.Name] = 0
	}
	p := out.layers
	if p == nil {
		p = newProbe()
	}
	by := make(map[string][]span)
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], s)
	}
	msOf := func(ss []span) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = ms(s.dur())
		}
		return out
	}
	ops := float64(p.ops)
	tele := p.tele

	// rpc
	posts := by[spanPostTx]
	m["rpc.post_tx_ms_p50"] = median(msOf(posts))
	m["rpc.post_tx_count"] = float64(len(posts))
	for _, s := range posts {
		if !strings.HasPrefix(s.Ref, "200 ") {
			m["rpc.post_tx_rejected"]++
		}
	}
	reads := by[spanRead]
	readUs := make([]float64, len(reads))
	var readBytes, notModified float64
	for i, s := range reads {
		readUs[i] = us(s.dur())
		readBytes += float64(s.Bytes)
		if strings.HasPrefix(s.Ref, "304 ") {
			notModified++
		}
	}
	m["rpc.read_us_p50"] = median(readUs)
	m["rpc.read_us_p99"] = quantile(readUs, 0.99)
	m["rpc.bytes_per_read"] = ratio(readBytes, float64(len(reads)))
	m["rpc.not_modified_share"] = ratio(notModified, float64(len(reads)))
	hits := tele[`smartcrowd_rpc_cache_hit_total{tier="finalized"}`] + tele[`smartcrowd_rpc_cache_hit_total{tier="head"}`]
	misses := tele[`smartcrowd_rpc_cache_miss_total{tier="finalized"}`] + tele[`smartcrowd_rpc_cache_miss_total{tier="head"}`]
	m["rpc.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["rpc.read_client_p99_ms"] = quantile(msOf(by[spanClientRead]), 0.99)

	// node
	m["node.seal_publish_ms_p50"] = median(msOf(by[spanSealPublish]))
	pumps := by[spanPump]
	m["node.pump_ms_p50"] = median(msOf(pumps))
	m["node.pump_calls"] = float64(p.pumpCalls)
	perPump := make([]float64, len(pumps))
	for i, s := range pumps {
		perPump[i] = float64(s.N)
	}
	m["node.msgs_per_pump_p50"] = median(perPump)
	m["node.follower_lag_ms_p50"] = median(p.seals.lagMs)
	m["node.tx_hop_ms_p50"] = median(msOf(by[spanTxHop]))
	m["node.blocks_per_op"] = ratio(float64(p.seals.blocks), ops)
	m["node.txs_per_block_p50"] = median(p.seals.txsPerBlock)

	// txpool
	m["txpool.admit_ok"] = tele[`smartcrowd_txpool_admit_total{outcome="accepted"}`]
	for _, why := range []string{"underpriced", "full", "nonce_low", "unaffordable", "invalid"} {
		m["txpool.admit_rejected"] += tele[`smartcrowd_txpool_admit_total{outcome="`+why+`"}`]
	}
	m["txpool.pending_max"] = float64(p.seals.pendingMax)

	// types
	senderMiss := tele[`smartcrowd_types_sender_cache_total{outcome="miss"}`]
	senderHit := tele[`smartcrowd_types_sender_cache_total{outcome="hit"}`]
	m["types.sender_recoveries_per_tx"] = ratio(senderMiss, float64(p.txs))
	m["types.sender_cache_hit_ratio"] = ratio(senderHit, senderHit+senderMiss)

	// pow
	seals := by[spanPowSeal]
	sealUs := make([]float64, len(seals))
	for i, s := range seals {
		sealUs[i] = us(s.dur())
	}
	m["pow.seal_us_p50"] = median(sealUs)
	m["pow.seal_attempts_per_block"] = ratio(tele["smartcrowd_pow_seal_attempts_sum"], tele["smartcrowd_pow_seal_attempts_count"])

	// chain: what is left of a seal or of a block-carrying follower pump
	// once the spans of other layers inside it are taken out.
	childMs := make(map[int32]float64)
	for _, name := range []string{spanPowSeal, spanAppend} {
		for _, s := range by[name] {
			if s.Parent != 0 {
				childMs[s.Parent] += ms(s.dur())
			}
		}
	}
	var buildImport, followerImport []float64
	for _, s := range by[spanSealPublish] {
		buildImport = append(buildImport, ms(s.dur())-childMs[s.ID])
	}
	sealerNode := ""
	if ss := by[spanSealPublish]; len(ss) > 0 {
		sealerNode = ss[0].Node
	}
	for _, s := range pumps {
		if s.Blocks > 0 && s.Node != sealerNode {
			followerImport = append(followerImport, ms(s.dur())-childMs[s.ID])
		}
	}
	m["chain.build_import_ms_p50"] = median(buildImport)
	m["chain.follower_import_ms_p50"] = median(followerImport)
	m["chain.stage1_ms_sum"] = tele["smartcrowd_chain_stage1_verify_ns_sum"] / 1e6
	m["chain.stage2_ms_sum"] = tele["smartcrowd_chain_stage2_commit_ns_sum"] / 1e6
	m["chain.exec_conflict_ratio"] = ratio(tele["smartcrowd_chain_exec_parallel_conflicts_total"],
		tele["smartcrowd_chain_exec_parallel_speculative_total"])
	m["chain.views_published"] = tele["smartcrowd_chain_view_published_total"]
	m["chain.reorgs"] = tele["smartcrowd_chain_reorgs_total"]

	// state
	m["state.root_ms_sum"] = tele["smartcrowd_state_root_ns_sum"] / 1e6
	m["state.root_calls"] = tele["smartcrowd_state_root_ns_count"]
	m["state.root_us_per_block"] = ratio(tele["smartcrowd_state_root_ns_sum"]/1e3,
		tele[`smartcrowd_chain_import_total{outcome="inserted"}`])
	m["state.root_dirty_accounts_p50"] = tele["smartcrowd_state_root_dirty_accounts_p50"]

	// contract
	m["contract.findings_rejected"] = tele[`smartcrowd_contract_findings_total{verdict="forged"}`] +
		tele[`smartcrowd_contract_findings_total{verdict="duplicate"}`]

	// store
	appends := by[spanAppend]
	appendMs := msOf(appends)
	var appendSum, appendBlocks, appendBytes float64
	perAppend := make([]float64, len(appends))
	for i, s := range appends {
		appendSum += appendMs[i]
		appendBlocks += float64(s.N)
		appendBytes += float64(s.Bytes)
		perAppend[i] = float64(s.N)
	}
	m["store.append_calls"] = float64(len(appends))
	m["store.append_ms_p50"] = median(appendMs)
	m["store.append_ms_sum"] = appendSum
	m["store.blocks_per_append_p50"] = median(perAppend)
	m["store.bytes_per_block"] = ratio(appendBytes, appendBlocks)
	m["store.snapshot_save_ms_p50"] = median(msOf(by[spanSnapSave]))
	m["store.open_load_ms_p50"] = median(msOf(by[spanLoad]))

	// wire
	m["wire.block_hop_ms_p50"] = median(msOf(by[spanBlockHop]))
	m["wire.frames_out"] = tele[`smartcrowd_wire_frames_total{dir="out"}`]
	m["wire.bytes_per_op"] = ratio(tele[`smartcrowd_wire_bytes_total{dir="out"}`], ops)
	m["wire.queue_shed"] = tele["smartcrowd_wire_queue_shed_total"]
	for _, s := range by[spanRangeSend] {
		m["wire.range_bytes"] += float64(s.Bytes)
	}
	m["wire.snap_chunks"] = tele["smartcrowd_node_sync_chunks_total"]

	// proc
	m["proc.cpu_ms_per_op"] = ratio(ms(p.cpu), ops)
	m["proc.alloc_kb_per_op"] = ratio(float64(p.allocBytes)/1024, ops)
	m["proc.gc_pause_ms_sum"] = ms(p.gcPause)
	m["proc.goroutines_max"] = float64(p.goroutines.Load())

	// bench
	m["bench.unattributed_share"] = unattributedShare(spans)
	if len(by[spanOp]) == 0 && len(reads) > 0 {
		// Plain reads have no blocking path beyond themselves: what the
		// server span does not cover is socket, client and scheduling time.
		m["bench.unattributed_share"] = 1 - ratio(median(msOf(reads)), median(msOf(by[spanClientRead])))
	}
	if u := median(out.rates); u > 0 && len(out.tracedRates) > 0 {
		m["bench.trace_overhead_share"] = 1 - median(out.tracedRates)/u
	}
	m["bench.failed_share"] = ratio(float64(out.failed), float64(out.attempted))
	m["bench.work_per_s"] = median(out.rates)
	m["bench.latency_p50_ms"] = median(out.latenciesMs)

	// What the workload measured itself overrides the zero defaults.
	for name, v := range out.extra {
		if _, ok := m[name]; ok {
			m[name] = v
		}
	}
	return m
}

// blockingPath is, in priority order, the spans that can hold up an
// operation. The first seven are cluster-wide: with one sealer in lockstep
// there is one pipeline, so whichever of them is running is what every
// waiting operation is waiting for. The rest count only when they carry
// the operation's own ref.
var blockingPath = []struct {
	name string
	own  bool
}{
	{spanAppend, false},
	{spanPowSeal, false},
	{spanSealPublish, false},
	{spanBlockHop, false},
	{spanPump, false},
	{spanLoad, false},
	{spanRangeSend, false},
	{spanClientPost, true},
	{spanTxHop, true},
	{spanClientRead, true},
}

// interval is a half-open time range in recorder nanoseconds.
type interval struct{ lo, hi int64 }

// attribution is how one operation's latency splits over the blocking
// path: nanoseconds per span name, first match in blockingPath order
// winning where spans overlap, plus what nothing covered.
type attribution struct {
	total        int64
	byName       map[string]int64
	unattributed int64
}

// attribute sweeps the blocking-path spans that intersect op.
func attribute(op span, byName map[string][]span, maxDur map[string]int64) attribution {
	a := attribution{total: op.End - op.Start, byName: make(map[string]int64)}
	var covered []interval // disjoint, sorted
	for _, layer := range blockingPath {
		ss := byName[layer.name]
		// Spans are sorted by start; none that starts more than the
		// longest duration before the op can reach into it.
		i := sort.Search(len(ss), func(i int) bool { return ss[i].Start >= op.Start-maxDur[layer.name] })
		var mine []interval
		for ; i < len(ss) && ss[i].Start < op.End; i++ {
			s := ss[i]
			if s.End <= op.Start || (layer.own && s.Ref != op.Ref) {
				continue
			}
			mine = append(mine, interval{max(s.Start, op.Start), min(s.End, op.End)})
		}
		if len(mine) == 0 {
			continue
		}
		mine = mergeIntervals(mine)
		fresh := subtractIntervals(mine, covered)
		for _, iv := range fresh {
			a.byName[layer.name] += iv.hi - iv.lo
		}
		covered = mergeIntervals(append(covered, fresh...))
	}
	var sum int64
	for _, iv := range covered {
		sum += iv.hi - iv.lo
	}
	a.unattributed = a.total - sum
	return a
}

// mergeIntervals sorts and coalesces overlapping intervals.
func mergeIntervals(ivs []interval) []interval {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	out := ivs[:0]
	for _, iv := range ivs {
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, iv.hi)
			continue
		}
		out = append(out, iv)
	}
	return out
}

// subtractIntervals returns the parts of a (disjoint, sorted) that b
// (disjoint, sorted) does not cover.
func subtractIntervals(a, b []interval) []interval {
	var out []interval
	j := 0
	for _, iv := range a {
		lo := iv.lo
		for j < len(b) && b[j].hi <= lo {
			j++
		}
		for k := j; k < len(b) && b[k].lo < iv.hi; k++ {
			if b[k].lo > lo {
				out = append(out, interval{lo, b[k].lo})
			}
			lo = max(lo, b[k].hi)
		}
		if lo < iv.hi {
			out = append(out, interval{lo, iv.hi})
		}
	}
	return out
}

// attributeOps attributes every bench.op span and returns the results in
// op order.
func attributeOps(spans []span) []attribution {
	byName := make(map[string][]span)
	maxDur := make(map[string]int64)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		maxDur[s.Name] = max(maxDur[s.Name], s.End-s.Start)
	}
	ops := byName[spanOp]
	out := make([]attribution, len(ops))
	for i, op := range ops {
		out[i] = attribute(op, byName, maxDur)
	}
	return out
}

// unattributedShare is the median, over operations, of the share of the
// operation's latency that no blocking-path span covers.
func unattributedShare(spans []span) float64 {
	attrs := attributeOps(spans)
	shares := make([]float64, 0, len(attrs))
	for _, a := range attrs {
		if a.total > 0 {
			shares = append(shares, float64(a.unattributed)/float64(a.total))
		}
	}
	return median(shares)
}
