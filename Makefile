GO ?= go

.PHONY: all build test check fmt vet lint fuzz-smoke race bench pair telemetry-budget trace-budget loc

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-commit gate: formatting, static analysis (generic vet
# plus the project-specific scvet passes), the full suite under the race
# detector, and the telemetry overhead budget.
check: fmt vet lint race telemetry-budget trace-budget

# lint runs scvet, the project-specific analyzer enforcing the invariants
# generic linters cannot see: consensus determinism (detsource),
# errors.Is discipline (senterr), crypto-free mutex critical sections
# (locksafe), acyclic lock ordering (lockorder), terminating goroutines
# (goleak), wire-input taint tracking (wiretaint), structured-logging
# discipline (logdisc), durable commits (fsyncdisc), and no exported
# internal/ symbol that only tests reference (deadexport) — nine passes;
# `scvet -list` prints the catalog. Audited exceptions live in
# .scvet.allow with their justifications (DESIGN.md §9); an entry that
# matches nothing fails the run. The math/big line fails if a non-test package imports
# math/big: it is the secp256k1 tests' oracle, never production
# arithmetic. The last two lines keep one constructor and one detector:
# outside the frozen benchmark/, only internal/node calls chain.New or
# txpool.New, so every chain and pool belongs to a node that
# node.NewProvider built, and only internal/node wraps a report in a
# transaction (types.NewInitialReportTx/NewDetailedReportTx), so every
# R† and R* is sent by a node.DetectorNode; and only internal/chain sums
# a state without freezing it (state.DB.RootUnfrozen), so every root
# copied or shared was taken at a freeze point. Only internal/pow
# (and internal/types, which defines the predicate) calls MeetsPoW or
# pow.NextDifficulty, so every header is judged by one pow.Rule.
lint:
	$(GO) run ./cmd/scvet ./...
	@if $(GO) list -f '{{.ImportPath}}: {{join .Imports " "}}' ./internal/... ./cmd/... | grep -w 'math/big'; then echo 'lint: math/big imported by non-test code (above)'; exit 1; fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' '\b(chain|txpool)\.New\(' . | grep -v '^\./benchmark/\|^\./internal/node/'; then echo 'lint: chain.New/txpool.New called outside internal/node (above): build a node with node.NewProvider'; exit 1; fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' '\btypes\.New(Initial|Detailed)ReportTx\(' . | grep -v '^\./benchmark/\|^\./internal/node/'; then echo 'lint: report transaction built outside internal/node (above): send reports through a node.DetectorNode'; exit 1; fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' '\.RootUnfrozen\(' . | grep -v '^\./internal/chain/\|^\./internal/state/'; then echo 'lint: state.DB.RootUnfrozen called outside the chain'"'"'s import run (above): take Root, the freeze point'; exit 1; fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' '\.MeetsPoW\(|\bpow\.NextDifficulty\(' . | grep -v '^\./internal/pow/\|^\./internal/types/'; then echo 'lint: PoW predicate or retarget called outside internal/pow (above): judge a header with its chain'"'"'s pow.Rule'; exit 1; fi

# fuzz-smoke runs each attacker-facing decoder's native fuzz target
# briefly (frames and handshakes off the TCP wire, the RLP readers and
# the transaction and block decoders gossip feeds, the pooled block
# decoder, differentially against a fresh decode of every transaction, the
# POST /v1/tx body reader, differentially against json.Unmarshal plus
# hex.DecodeString, the record check a
# snap prefix meets, differentially against decode + VerifyShape, the snap-sync,
# range-sync and relay-announcement payload decoders a hostile peer
# controls, and the signature parser and recovery kernel every signed byte
# reaches — the latter differentially against its math/big oracle, with
# the GLV scalar split under it checked the same way), plus
# the hash under all of them, differentially against the loop-form sponge,
# the trie writer's in-place rewrites, differentially against a map
# and fresh path-copied builds, and the state root over account and
# storage tries — snapshots nested, reverted through the undo journal
# around Roots and held copies, each revert checked against the bytes
# its snapshot saw — differentially against a from-scratch model — the
# block log's open scan over arbitrary bytes, streamed through windows
# down to one byte (so records straddle windows and outgrow them),
# differentially against the in-memory scan it replaced, a reference
# reader and its own rescan, and the /v1 block bodies the server appends,
# differentially against json.Marshal of the summary structs. Override
# FUZZTIME for longer local campaigns.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=$(FUZZTIME) -run NONE ./internal/wire/
	$(GO) test -fuzz=FuzzParseHandshake -fuzztime=$(FUZZTIME) -run NONE ./internal/wire/
	$(GO) test -fuzz=FuzzSplit -fuzztime=$(FUZZTIME) -run NONE ./internal/rlp/
	$(GO) test -fuzz='^FuzzDecodeTx$$' -fuzztime=$(FUZZTIME) -run NONE ./internal/types/
	$(GO) test -fuzz='^FuzzDecodeBlock$$' -fuzztime=$(FUZZTIME) -run NONE ./internal/types/
	$(GO) test -fuzz='^FuzzDecodeBlockPooled$$' -fuzztime=$(FUZZTIME) -run NONE ./internal/types/
	$(GO) test -fuzz='^FuzzSubmitBody$$' -fuzztime=$(FUZZTIME) -run NONE ./internal/rpc/
	$(GO) test -fuzz='^FuzzVerifyRecord$$' -fuzztime=$(FUZZTIME) -run NONE ./internal/types/
	$(GO) test -fuzz='^FuzzParseSnapManifest$$' -fuzztime=$(FUZZTIME) -run NONE ./internal/p2p/
	$(GO) test -fuzz='^FuzzParseSnapChunkRequest$$' -fuzztime=$(FUZZTIME) -run NONE ./internal/p2p/
	$(GO) test -fuzz='^FuzzParseSnapChunk$$' -fuzztime=$(FUZZTIME) -run NONE ./internal/p2p/
	$(GO) test -fuzz='^FuzzParseRangeBlocks$$' -fuzztime=$(FUZZTIME) -run NONE ./internal/p2p/
	$(GO) test -fuzz='^FuzzParseAnnounce$$' -fuzztime=$(FUZZTIME) -run NONE ./internal/p2p/
	$(GO) test -fuzz='^FuzzParseTxRequest$$' -fuzztime=$(FUZZTIME) -run NONE ./internal/p2p/
	$(GO) test -fuzz='^FuzzParseSignature$$' -fuzztime=$(FUZZTIME) -run NONE ./internal/crypto/secp256k1/
	$(GO) test -fuzz='^FuzzRecoverDifferential$$' -fuzztime=$(FUZZTIME) -run NONE ./internal/crypto/secp256k1/
	$(GO) test -fuzz='^FuzzSplitLambda$$' -fuzztime=$(FUZZTIME) -run NONE ./internal/crypto/secp256k1/
	$(GO) test -fuzz='^FuzzSum256Differential$$' -fuzztime=$(FUZZTIME) -run NONE ./internal/crypto/keccak/
	$(GO) test -fuzz='^FuzzTrieWriterDifferential$$' -fuzztime=$(FUZZTIME) -run NONE ./internal/critbit/
	$(GO) test -fuzz='^FuzzStateRootDifferential$$' -fuzztime=$(FUZZTIME) -run NONE ./internal/state/
	$(GO) test -fuzz='^FuzzScanLog$$' -fuzztime=$(FUZZTIME) -run NONE ./internal/store/
	$(GO) test -fuzz='^FuzzBlockBodyDifferential$$' -fuzztime=$(FUZZTIME) -run NONE ./internal/rpc/

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# The wire transport is vetted explicitly on top of the repo-wide pass:
# its concurrency-heavy socket code is where vet findings bite hardest.
vet:
	$(GO) vet ./...
	$(GO) vet ./internal/wire

race:
	$(GO) test -race ./...

# bench runs the chain-core microbenchmarks (state root, state fork, block
# insert, reorg, detection query, and failed transactions reverted
# through the state's undo journal: BenchmarkRevertHeavyBlock beside
# BenchmarkFailedTransfer), the trie's (64 writes path-copied
# against one generation), the signature kernel's (field multiplication
# and inversion, sign, recover) and the hash kernel's
# (permutation, a trie branch, 1 KiB).
bench:
	$(GO) test ./internal/state/ ./internal/chain/ -run NONE -bench . -benchtime 20x -benchmem
	$(GO) test ./internal/critbit/ -run NONE -bench . -benchmem
	$(GO) test ./internal/crypto/secp256k1/ -run NONE -bench . -benchmem
	$(GO) test ./internal/crypto/keccak/ -run NONE -bench . -benchmem

# pair compares the working tree with REF on the repository's benchmark in
# N alternated pairs per workload (cmd/scpair): both sides' medians and
# quartiles, the pairs that moved each way, and a lower/higher/unresolved
# verdict per metric. WORKLOADS (comma-separated) narrows the set; RECORD
# names a trajectory file (BENCH_scbench.json) to append the result to;
# PAIRDIR keeps the exported parent and its build cache between runs.
N ?= 10
pair:
	@test -n "$(REF)" || { echo "usage: make pair REF=<git-ref> [N=10] [WORKLOADS=a,b] [RECORD=BENCH_scbench.json] [PAIRDIR=dir]"; exit 2; }
	$(GO) build -o .bench_build/scpair ./cmd/scpair
	.bench_build/scpair -ref $(REF) -n $(N) $(if $(WORKLOADS),-workloads $(WORKLOADS)) $(if $(RECORD),-record $(RECORD)) $(if $(PAIRDIR),-dir $(PAIRDIR))

# telemetry-budget fails if a hot-path counter increment costs more than
# the budget (30 ns/op by default; override with
# SMARTCROWD_COUNTER_BUDGET_NS). Must run without -race: the detector's
# instrumentation would dominate the measurement.
telemetry-budget:
	$(GO) test ./internal/telemetry/ -run TestCounterOverheadBudget -count=1 -v

# trace-budget fails if opening and ending a traced span (id stamping +
# trace-store filing) costs more than the budget (5 µs/op by default;
# override with SMARTCROWD_TRACE_BUDGET_NS). Must run without -race, like
# telemetry-budget.
trace-budget:
	$(GO) test ./internal/telemetry/ -run TestTraceOverheadBudget -count=1 -v

# loc prints tracked line counts in the three buckets a CHANGES.md entry
# reports its net delta in: non-test Go, test Go (with testdata), and
# docs. benchmark/ is excluded (frozen by BENCHMARK.json), and so is the
# task description at the root, which every change rewrites.
loc:
	@printf 'non-test Go %s\n' "$$(git ls-files -- '*.go' ':!*_test.go' ':!*/testdata/*' ':!benchmark' | xargs cat | wc -l)"
	@printf 'test Go     %s\n' "$$(git ls-files -- '*_test.go' '*/testdata/*' ':!benchmark' | xargs cat | wc -l)"
	@printf 'docs        %s\n' "$$(git ls-files -- '*.md' ':!benchmark' ':!ISSUE.md' | xargs cat | wc -l)"
