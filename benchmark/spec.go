// Package benchmark is scbench, the repository's one benchmark: the
// paper's SRA → R† → R* → verdict → remote-read loop, plus a write flood,
// a read storm and a cold sync, over a real multi-node cluster hosted in
// one OS process and driven through HTTP on real sockets. See README.md.
package benchmark

// metricSpec names one reported metric. The tables below are the single
// source for BENCHMARK.json (a test keeps the two in step), for the
// result line, and for the README's metric definitions.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64
	// Help says what is measured, per workload where it differs.
	Help string
}

// workloadSpec names one workload and why it exists.
type workloadSpec struct {
	Name string
	Why  string
}

var workloads = []workloadSpec{
	{"lifecycle", "the paper's loop on 3 nodes: tiny blocks, so per-block fixed costs (build, root, fsyncs, hops, import, view swap) dominate"},
	{"txflood", "write throughput: large transfer-only blocks, so per-tx costs (ECDSA recovery, admission, execution, trie) dominate; CPU-saturated"},
	{"readstorm", "read path (cache tiers, ETag, encode, ReadView) does the work while a 100 ms writer keeps swapping the view beside it"},
	{"coldsync", "snap-join, reopen and range replay: store/chain used in batch with no HTTP and no sealing, the opposite of lifecycle"},
}

// endToEnd are the gated metrics: what running the cluster costs its
// operator, chosen among the user-visible numbers for being repeatable on
// a small shared box. Every workload reports every one of them. The speed
// numbers (informational below) are measured and printed by every run too,
// but on this box their run-to-run spread is 15-30 %, wider than any bound
// the driver allows, so they are not gated (see NOISE.md).
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Help: "process start → first measured operation: keys, signing, preload import on every node, mesh, warm-up round"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25,
		Help: "peak resident set of the measured phase, whole cluster: VmHWM at exit, the mark having been restarted when set-up ended"},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.10,
		Help: "heap bytes allocated by the whole cluster (and its load generators) during the measured phase ÷ operations attempted"},
}

// informational are the speed numbers every run measures from an untraced
// phase. They are printed by every run, carried in the result line only
// under -all, and summarised by -repeat without a verdict.
var informational = []metricSpec{
	{Name: "work_per_s", Unit: "1/s", Better: "higher",
		Help: "median of per-round throughputs: lifecycles/s; txs K-confirmed on C per s; reads/s (2xx+304); blocks replayed per s in coldsync step (c)"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower",
		Help: "median over measured operations: SRA POST sent → reference correct on C; tx POST sent → K-confirmed on C; read sent → body read; coldsync step (a) open + dial → D serves A's head"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower",
		Help: "rusage user+sys over the measured phase ÷ operations attempted"},
}

// perLayer are single-layer metrics, reported by a traced run. Layer =
// module name. They carry no bound; they say where a change came from.
var perLayer = []metricSpec{
	{Name: "rpc.post_tx_ms_p50", Unit: "ms", Better: "lower", Help: "server-side POST /v1/tx handler time"},
	{Name: "rpc.post_tx_count", Unit: "count", Better: "lower", Help: "POST /v1/tx requests served"},
	{Name: "rpc.post_tx_rejected", Unit: "count", Better: "lower", Help: "POST /v1/tx answered with anything but 200"},
	{Name: "rpc.read_us_p50", Unit: "us", Better: "lower", Help: "server-side GET handler time, median"},
	{Name: "rpc.read_us_p99", Unit: "us", Better: "lower", Help: "server-side GET handler time, p99"},
	{Name: "rpc.bytes_per_read", Unit: "B", Better: "lower", Help: "response body bytes per GET"},
	{Name: "rpc.cache_hit_ratio", Unit: "ratio", Better: "higher", Help: "response-cache hits ÷ (hits + misses), both tiers"},
	{Name: "rpc.not_modified_share", Unit: "ratio", Better: "higher", Help: "GETs answered 304 ÷ GETs"},
	{Name: "rpc.read_client_p99_ms", Unit: "ms", Better: "lower", Help: "client-side GET time (request sent → body read), p99"},

	{Name: "node.seal_publish_ms_p50", Unit: "ms", Better: "lower", Help: "one SealAndPublish call on the sealer"},
	{Name: "node.pump_ms_p50", Unit: "ms", Better: "lower", Help: "one HandleMessages call that drained messages, any node"},
	{Name: "node.pump_calls", Unit: "count", Better: "lower", Help: "HandleMessages calls, all nodes"},
	{Name: "node.msgs_per_pump_p50", Unit: "count", Better: "higher", Help: "messages drained per non-empty pump"},
	{Name: "node.follower_lag_ms_p50", Unit: "ms", Better: "lower", Help: "sealer's wait, after its own import, until every follower reports that head"},
	{Name: "node.tx_hop_ms_p50", Unit: "ms", Better: "lower", Help: "entry node's Broadcast(MsgTx) → sealer's pump returns having received it"},
	{Name: "node.blocks_per_op", Unit: "count", Better: "lower", Help: "sealed blocks ÷ operations (a lifecycle needs 9 blocks; concurrent lifecycles share them)"},
	{Name: "node.txs_per_block_p50", Unit: "count", Better: "higher", Help: "transactions per sealed block"},

	{Name: "txpool.admit_ok", Unit: "count", Better: "lower", Help: "admissions accepted, all pools (each tx is admitted once per node)"},
	{Name: "txpool.admit_rejected", Unit: "count", Better: "lower", Help: "admissions refused for any reason but duplicate"},
	{Name: "txpool.pending_max", Unit: "count", Better: "lower", Help: "largest sealer pool seen when deciding to seal"},

	{Name: "types.sender_recoveries_per_tx", Unit: "count", Better: "lower", Help: "sender-cache misses (ECDSA recoveries) ÷ committed transactions"},
	{Name: "types.sender_cache_hit_ratio", Unit: "ratio", Better: "higher", Help: "sender-cache hits ÷ lookups"},

	{Name: "pow.seal_us_p50", Unit: "us", Better: "lower", Help: "Sealer.Seal at difficulty 1; a rise means PoW cost leaked into the benchmark"},
	{Name: "pow.seal_attempts_per_block", Unit: "count", Better: "lower", Help: "nonces tried per sealed block"},

	{Name: "chain.build_import_ms_p50", Unit: "ms", Better: "lower", Help: "sealer: SealAndPublish − Seal − AppendBlocks"},
	{Name: "chain.follower_import_ms_p50", Unit: "ms", Better: "lower", Help: "follower: pump that carried a block − AppendBlocks"},
	{Name: "chain.stage1_ms_sum", Unit: "ms", Better: "lower", Help: "stateless verification time, all nodes"},
	{Name: "chain.stage2_ms_sum", Unit: "ms", Better: "lower", Help: "execute + commit time under the chain lock, all nodes"},
	{Name: "chain.exec_conflict_ratio", Unit: "ratio", Better: "lower", Help: "parallel-execution conflicts ÷ speculative executions"},
	{Name: "chain.views_published", Unit: "count", Better: "lower", Help: "ReadView swaps, all nodes"},
	{Name: "chain.reorgs", Unit: "count", Better: "lower", Help: "head switches off the parent; must be 0 (single sealer)"},

	{Name: "state.root_ms_sum", Unit: "ms", Better: "lower", Help: "state.Root time, all nodes"},
	{Name: "state.root_calls", Unit: "count", Better: "lower", Help: "state.Root calls, all nodes"},
	{Name: "state.root_us_per_block", Unit: "us", Better: "lower", Help: "state.Root time ÷ blocks committed in the cluster"},
	{Name: "state.root_dirty_accounts_p50", Unit: "count", Better: "lower", Help: "dirty accounts per state.Root (process-lifetime histogram, power-of-two buckets)"},

	{Name: "contract.findings_accepted", Unit: "count", Better: "higher", Help: "acceptedFindings summed over R* receipts read on C; must equal 3 × lifecycles"},
	{Name: "contract.findings_rejected", Unit: "count", Better: "lower", Help: "findings AutoVerif or the claim table refused; must be 0"},
	{Name: "contract.payout_gwei", Unit: "gwei", Better: "higher", Help: "paidGwei summed over R* receipts read on C"},

	{Name: "store.append_calls", Unit: "count", Better: "lower", Help: "AppendBlocks calls, all nodes"},
	{Name: "store.append_ms_p50", Unit: "ms", Better: "lower", Help: "one AppendBlocks call (two fsyncs)"},
	{Name: "store.append_ms_sum", Unit: "ms", Better: "lower", Help: "AppendBlocks time, all nodes"},
	{Name: "store.blocks_per_append_p50", Unit: "count", Better: "higher", Help: "blocks per AppendBlocks call (1 today)"},
	{Name: "store.bytes_per_block", Unit: "B", Better: "lower", Help: "log + index + WAL growth ÷ blocks appended"},
	{Name: "store.snapshot_save_ms_p50", Unit: "ms", Better: "lower", Help: "one SaveSnapshot call"},
	{Name: "store.open_load_ms_p50", Unit: "ms", Better: "lower", Help: "one Storage.Load call (datadir scan inside chain.New)"},

	{Name: "wire.block_hop_ms_p50", Unit: "ms", Better: "lower", Help: "sealer's Broadcast(MsgBlock) → observer's Receive returns it"},
	{Name: "wire.frames_out", Unit: "count", Better: "lower", Help: "frames written, all transports"},
	{Name: "wire.bytes_per_op", Unit: "B", Better: "lower", Help: "bytes written on all transports ÷ operations"},
	{Name: "wire.queue_shed", Unit: "count", Better: "lower", Help: "frames shed from full peer queues; must be 0"},
	{Name: "wire.range_bytes", Unit: "B", Better: "lower", Help: "MsgRangeBlocks payload bytes sent"},
	{Name: "wire.snap_chunks", Unit: "count", Better: "lower", Help: "snapshot chunks accepted by joining nodes"},

	{Name: "proc.cpu_ms_per_op", Unit: "ms", Better: "lower", Help: "rusage user+sys ÷ operations"},
	{Name: "proc.alloc_kb_per_op", Unit: "KB", Better: "lower", Help: "heap bytes allocated ÷ operations"},
	{Name: "proc.gc_pause_ms_sum", Unit: "ms", Better: "lower", Help: "stop-the-world GC pause total"},
	{Name: "proc.goroutines_max", Unit: "count", Better: "lower", Help: "largest goroutine count sampled at round boundaries and operation ends"},

	{Name: "bench.unattributed_share", Unit: "ratio", Better: "lower", Help: "median share of an operation's latency no span on its blocking path covers"},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower", Help: "1 − traced ÷ untraced work_per_s, alternating rounds of one run"},
	{Name: "bench.writer_lag_ms_p50", Unit: "ms", Better: "lower", Help: "how late the readstorm writer's 100 ms ticks ran"},
	{Name: "bench.write_visible_p50_ms", Unit: "ms", Better: "lower", Help: "readstorm: SealAndPublish returns on A → /v1/status on C shows that head"},
	{Name: "bench.reopen_p50_ms", Unit: "ms", Better: "lower", Help: "coldsync step (b): store.Open + node.NewProvider on the datadir D just closed"},
	{Name: "bench.failed_share", Unit: "ratio", Better: "lower", Help: "failed ÷ attempted operations; must be 0"},
	{Name: "bench.work_per_s", Unit: "1/s", Better: "higher", Help: "work_per_s over the untraced rounds of the traced run (see the informational metrics)"},
	{Name: "bench.latency_p50_ms", Unit: "ms", Better: "lower", Help: "latency_p50_ms over all measured rounds of the traced run"},
}
