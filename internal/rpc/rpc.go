// Package rpc exposes a SmartCrowd provider node over HTTP/JSON — the
// counterpart of the Ethereum JSON API the paper's prototype uses for
// "data interaction between detectors and smart contracts" (§VII).
// Consumers query release references and balances; detectors submit
// transactions and fetch light-client proofs.
//
// The whole surface is one route table (routes, below):
//
//	GET  /v1/status                    chain head summary
//	GET  /v1/block/{number}            canonical block by height
//	GET  /v1/blocks?from=&to=          bounded block range (≤ 100 blocks)
//	GET  /v1/balance/{address}         account balance (gwei + ether)
//	GET  /v1/receipt/{txhash}          canonical transaction receipt
//	GET  /v1/sra/{id}                  SRA record + detection summary
//	GET  /v1/sras?cursor=&limit=       paginated SRA listing (limit ≤ 100)
//	GET  /v1/reference/{id}            consumer security reference
//	GET  /v1/proof/{txhash}            Merkle inclusion proof for a tx
//	POST /v1/tx                        submit a hex-encoded transaction
//	GET  /v1/events                    live SSE feed of heads/SRAs/verdicts
//	GET  /v1/health                    readiness probe (peers, sync, head age)
//	GET  /v1/node                      operational report (storage, sync, peers)
//	GET  /metrics                      Prometheus text exposition
//	GET  /debug/traces                 hierarchical traces (?id= for one)
//	GET  /debug/logs                   structured-log ring (?level= filter)
//
// /metrics and /debug/* are operational, not part of the versioned API;
// Config.EnablePprof additionally mounts net/http/pprof under
// /debug/pprof/.
//
// The list endpoints paginate with opaque cursors (cursor.go): every
// page carries a nextCursor token that resumes exactly after the last
// delivered item even if the head moved — or reorged — between requests.
// /v1/blocks serves bounded ?from=&to= ranges (≤ 100 blocks); an
// open-ended request (no `to`) pages toward the head via nextCursor.
//
// Errors are uniform across every route:
//
//	{"error":{"code":"<stable-string>","message":"<human detail>"}}
//
// with codes bad_request, not_found, tx_rejected and internal. Clients
// branch on the code; the message is diagnostic only.
//
// # Read path
//
// Every chain read serves from an immutable chain.ReadView pinned once
// per request by a single atomic load — no handler ever takes the chain
// mutex, so a million polling consumers cannot stall the import pipeline
// (or each other). On top of the view sits a read-through response cache
// (cache.go): finalized objects (blocks and proofs ≥ K confirmations
// deep) cache their encoded bytes content-addressed by block id with
// immutable Cache-Control, while head-dependent answers (/v1/status,
// balances, receipts, SRA pages) live in a generation keyed by the head
// hash and are invalidated wholesale the moment a new snapshot is
// published. Responses carry strong ETags; If-None-Match revalidation
// answers 304 without a body. /v1/status includes the pool's pending-tx
// count, which is not head-pinned — its staleness is bounded by one
// head-generation swap.
package rpc

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/node"
	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// Config tunes the optional parts of the API surface.
type Config struct {
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints expose heap contents and should only
	// face operators.
	EnablePprof bool
}

// nodeAPI is all a handler may ask of the node. Chain reads go through
// CurrentView, one atomic load of the published ReadView: no handler can
// reach the *chain.Chain, so none can take the chain mutex, and one slow
// import cannot stall the readers (or the readers an import).
type nodeAPI interface {
	ID() p2p.NodeID
	PeerCount() int
	OrphanCount() int
	PoolLen() int
	SubmitTx(tx *types.Transaction) error
	SyncStatus() node.SyncStatus
	CurrentView() *chain.ReadView
	StorageStats() chain.StorageStats
}

// Server serves the JSON API for one provider node.
type Server struct {
	node     nodeAPI
	contract *contract.Contract
	cache    *respCache
	// finality is K, the chain's confirmation depth (the paper's 6-block
	// rule): objects at least K blocks below the view head are finalized,
	// so their content-addressed responses advertise themselves as
	// immutable to HTTP caches.
	finality uint64
	mux      *http.ServeMux
}

// NewServer wires the API around a provider node and the SmartCrowd
// contract with the default configuration.
func NewServer(n *node.ProviderNode, c *contract.Contract) *Server {
	return NewServerWith(n, c, Config{})
}

// NewServerWith wires the API with explicit configuration.
func NewServerWith(n *node.ProviderNode, c *contract.Contract, cfg Config) *Server {
	s := &Server{
		node:     n,
		contract: c,
		cache:    newRespCache(),
		finality: n.Chain().Config().Confirmations,
		mux:      http.NewServeMux(),
	}
	for _, rt := range routes {
		s.mux.HandleFunc(rt.method+" "+rt.pattern, s.handler(rt))
	}
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// route is one row of the HTTP surface. A chain read sets read and is
// served through serveRead — view pin, response cache, ETag and latency
// histogram attach there, once, for every row. Everything that answers
// from live process state instead (submission, the event stream, probes,
// telemetry) sets live and is deliberately outside that machinery.
type route struct {
	method, pattern string
	read            readFunc
	live            func(*Server, http.ResponseWriter, *http.Request)
	// timed feeds a live route into the request-latency histogram; reads
	// always are.
	timed bool
}

// readFunc resolves one request against the pinned view: where the
// answer caches and how to build it. An error is the client's — a
// malformed path value, query or cursor — and is answered bad_request,
// uncached.
type readFunc func(s *Server, r *http.Request, v *chain.ReadView) (cacheRef, buildFunc, error)

// buildFunc renders a response from the view its readFunc closed over.
type buildFunc func() (status int, body interface{})

// routes is the whole HTTP surface. The package comment above and
// DESIGN.md §8.5 list exactly these rows (TestRouteTableMatchesDocs).
var routes = []route{
	{method: "GET", pattern: "/v1/status", read: readStatus},
	{method: "GET", pattern: "/v1/block/{number}", read: readBlock},
	{method: "GET", pattern: "/v1/blocks", read: readBlocks},
	{method: "GET", pattern: "/v1/balance/{address}", read: readBalance},
	{method: "GET", pattern: "/v1/receipt/{txhash}", read: readReceipt},
	{method: "GET", pattern: "/v1/sra/{id}", read: readSRA},
	{method: "GET", pattern: "/v1/sras", read: readSRAs},
	{method: "GET", pattern: "/v1/reference/{id}", read: readReference},
	{method: "GET", pattern: "/v1/proof/{txhash}", read: readProof},
	{method: "POST", pattern: "/v1/tx", live: (*Server).handleSubmitTx, timed: true},
	{method: "GET", pattern: "/v1/events", live: (*Server).handleEvents},
	{method: "GET", pattern: "/v1/health", live: (*Server).handleHealth},
	{method: "GET", pattern: "/v1/node", live: (*Server).handleNode},
	// The metrics registry is process-wide, so every server mounted in
	// one process serves the same numbers.
	{method: "GET", pattern: "/metrics", live: func(_ *Server, w http.ResponseWriter, r *http.Request) {
		telemetry.Handler().ServeHTTP(w, r)
	}},
	{method: "GET", pattern: "/debug/traces", live: (*Server).handleTraces},
	{method: "GET", pattern: "/debug/logs", live: (*Server).handleLogs},
}

// handler binds one table row to this server.
func (s *Server) handler(rt route) http.HandlerFunc {
	if rt.read == nil && !rt.timed {
		return func(w http.ResponseWriter, r *http.Request) { rt.live(s, w, r) }
	}
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		if rt.read != nil {
			s.serveRead(w, r, rt.read)
		} else {
			rt.live(s, w, r)
		}
		mReqNs.ObserveDuration(time.Since(t0))
	}
}

// Stable error codes of the /v1 envelope. Clients branch on these; the
// accompanying message is diagnostic and may change freely.
const (
	CodeBadRequest = "bad_request" // malformed path value, query or body
	CodeNotFound   = "not_found"   // the referenced object is not on the canonical chain
	CodeTxRejected = "tx_rejected" // a well-formed transaction failed admission
	CodeInternal   = "internal"    // server-side failure
	// CodeBelowHorizon answers a receipt or proof for a transaction the
	// node does not index: it was installed from a snapshot, and holds
	// receipts only above that height, which the message names.
	CodeBelowHorizon = "below_horizon"
)

// ErrorEnvelope is the uniform error response of every route.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody carries a stable machine-readable code plus a human message.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code string, err error) {
	mReqErrors.Inc()
	writeJSON(w, status, errEnvelope(code, err))
}

func errEnvelope(code string, err error) ErrorEnvelope {
	return ErrorEnvelope{Error: ErrorBody{Code: code, Message: err.Error()}}
}

// notFound builds the 404 envelope for an object the view does not hold.
func notFound(err error) buildFunc {
	return func() (int, interface{}) { return http.StatusNotFound, errEnvelope(CodeNotFound, err) }
}

// txNotFound builds the 404 envelope for a failed transaction lookup:
// below_horizon when the view cannot tell, not_found otherwise.
func txNotFound(err error) buildFunc {
	if errors.Is(err, chain.ErrBelowHorizon) {
		return func() (int, interface{}) { return http.StatusNotFound, errEnvelope(CodeBelowHorizon, err) }
	}
	return notFound(err)
}

// encodeBody renders the exact bytes writeJSON streams for v — Marshal
// plus the Encoder's trailing newline — so cached responses stay
// byte-identical with the uncached fallback.
func encodeBody(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal(errEnvelope(CodeInternal, err))
	}
	return append(b, '\n')
}

// cacheRef names where a response caches: the finalized
// content-addressed tier (perm) or the current head generation.
type cacheRef struct {
	perm bool
	key  string
}

// contentRef is the cacheRef of a response that commits to one block
// alone: keyed by block id it is reorg-safe at any depth, and K blocks
// down it is promoted to the finalized tier.
func (s *Server) contentRef(v *chain.ReadView, key string, number uint64) cacheRef {
	return cacheRef{key: key, perm: v.FinalizedDepth(number) >= s.finality}
}

// serveRead answers one chain read: pin the view, resolve the request
// against it, and serve the response through the cache. Within one head
// generation (and forever in the finalized tier) every answer for a key
// is immutable, so serving cached bytes is exact, not approximate.
func (s *Server) serveRead(w http.ResponseWriter, r *http.Request, read readFunc) {
	view := s.node.CurrentView()
	ref, build, err := read(s, r, view)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	enc := func() (int, []byte) {
		status, v := build()
		return status, encodeBody(v)
	}
	var e *cacheEntry
	if ref.perm {
		e = s.cache.permGetOrBuild(ref.key, enc)
	} else {
		e = s.cache.headGetOrBuild(view.HeadID(), ref.key, enc)
	}
	if e == nil || e.status == 0 {
		// The head generation is full, or the winning builder died
		// before publishing; answer uncached.
		status, v := build()
		if status >= 400 {
			mReqErrors.Inc()
		}
		writeJSON(w, status, v)
		return
	}
	if e.status >= 400 {
		mReqErrors.Inc()
	}
	hdr := w.Header()
	hdr.Set("ETag", e.etag)
	if ref.perm {
		hdr.Set("Cache-Control", "public, max-age=31536000, immutable")
	} else {
		// Clients must revalidate, but the ETag makes revalidation a
		// body-less 304 until the head moves.
		hdr.Set("Cache-Control", "public, no-cache")
	}
	if e.status == http.StatusOK && r.Header.Get("If-None-Match") == e.etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	hdr.Set("Content-Type", "application/json")
	w.WriteHeader(e.status)
	_, _ = w.Write(e.body)
}

// StatusResponse summarizes the chain head.
type StatusResponse struct {
	HeadNumber      uint64 `json:"headNumber"`
	HeadID          string `json:"headId"`
	TotalDifficulty uint64 `json:"totalDifficulty"`
	PendingTxs      int    `json:"pendingTxs"`
}

func readStatus(s *Server, _ *http.Request, v *chain.ReadView) (cacheRef, buildFunc, error) {
	return cacheRef{key: "status"}, func() (int, interface{}) {
		return http.StatusOK, StatusResponse{
			HeadNumber:      v.HeadNumber(),
			HeadID:          v.HeadID().String(),
			TotalDifficulty: v.TotalDifficulty(),
			PendingTxs:      s.node.PoolLen(),
		}
	}, nil
}

// BlockResponse is a canonical block summary.
type BlockResponse struct {
	Number     uint64   `json:"number"`
	ID         string   `json:"id"`
	ParentID   string   `json:"parentId"`
	Time       uint64   `json:"time"`
	Difficulty uint64   `json:"difficulty"`
	Miner      string   `json:"miner"`
	TxHashes   []string `json:"txHashes"`
	Reports    int      `json:"reports"`
}

func readBlock(s *Server, r *http.Request, v *chain.ReadView) (cacheRef, buildFunc, error) {
	n, err := strconv.ParseUint(r.PathValue("number"), 10, 64)
	if err != nil {
		return cacheRef{}, nil, fmt.Errorf("rpc: bad block number: %w", err)
	}
	blk, err := v.BlockByNumber(n)
	if err != nil {
		// Cached per head generation: within one view, "past the head"
		// stays past the head. Keyed by the parsed number, so "7", "07"
		// and "007" share one entry.
		return cacheRef{key: "block!:" + strconv.FormatUint(n, 10)}, notFound(err), nil
	}
	return s.contentRef(v, "block:"+blk.ID().String(), n), func() (int, interface{}) {
		return http.StatusOK, blockResponse(blk)
	}, nil
}

// blockResponse summarizes one block for /v1/block and /v1/blocks.
func blockResponse(blk *types.Block) BlockResponse {
	resp := BlockResponse{
		Number:     blk.Header.Number,
		ID:         blk.ID().String(),
		ParentID:   blk.Header.ParentID.String(),
		Time:       blk.Header.Time,
		Difficulty: blk.Header.Difficulty,
		Miner:      blk.Header.Miner.String(),
		Reports:    blk.CountReports(),
		TxHashes:   make([]string, 0, len(blk.Txs)),
	}
	for _, tx := range blk.Txs {
		resp.TxHashes = append(resp.TxHashes, tx.Hash().String())
	}
	return resp
}

// BalanceResponse reports an account balance.
type BalanceResponse struct {
	Address string  `json:"address"`
	GWei    uint64  `json:"gwei"`
	Ether   float64 `json:"ether"`
	Nonce   uint64  `json:"nonce"`
}

func readBalance(_ *Server, r *http.Request, v *chain.ReadView) (cacheRef, buildFunc, error) {
	addr, err := wallet.ParseAddress(r.PathValue("address"))
	if err != nil {
		return cacheRef{}, nil, err
	}
	return cacheRef{key: "balance:" + addr.String()}, func() (int, interface{}) {
		// The view's state is the frozen head post-state, read in place.
		st := v.State()
		bal := st.Balance(addr)
		return http.StatusOK, BalanceResponse{
			Address: addr.String(),
			GWei:    uint64(bal),
			Ether:   bal.Ether(),
			Nonce:   st.Nonce(addr),
		}
	}, nil
}

// ReceiptResponse reports a transaction outcome.
type ReceiptResponse struct {
	TxHash        string `json:"txHash"`
	Kind          string `json:"kind"`
	Success       bool   `json:"success"`
	Error         string `json:"error,omitempty"`
	GasUsed       uint64 `json:"gasUsed"`
	FeeGwei       uint64 `json:"feeGwei"`
	Confirmations uint64 `json:"confirmations"`
	PaidGwei      uint64 `json:"paidGwei,omitempty"`
	Accepted      int    `json:"acceptedFindings,omitempty"`
}

func parseHash(raw string) (types.Hash, error) {
	raw = strings.TrimPrefix(strings.TrimPrefix(raw, "0x"), "0X")
	b, err := hex.DecodeString(raw)
	if err != nil {
		return types.Hash{}, fmt.Errorf("rpc: bad hash: %w", err)
	}
	if len(b) != types.HashSize {
		return types.Hash{}, fmt.Errorf("rpc: hash must be %d bytes, got %d", types.HashSize, len(b))
	}
	var h types.Hash
	copy(h[:], b)
	return h, nil
}

func readReceipt(_ *Server, r *http.Request, v *chain.ReadView) (cacheRef, buildFunc, error) {
	h, err := parseHash(r.PathValue("txhash"))
	if err != nil {
		return cacheRef{}, nil, err
	}
	// Head-keyed (not finalized) even for deep transactions: the body
	// carries a live confirmation count that grows with every block.
	return cacheRef{key: "receipt:" + h.String()}, func() (int, interface{}) {
		receipt, err := v.ReceiptOf(h)
		if err != nil {
			return txNotFound(err)()
		}
		return http.StatusOK, ReceiptResponse{
			TxHash:        h.String(),
			Kind:          receipt.Kind.String(),
			Success:       receipt.Success,
			Error:         receipt.Err,
			GasUsed:       receipt.GasUsed,
			FeeGwei:       uint64(receipt.Fee),
			Confirmations: v.Confirmations(h),
			PaidGwei:      uint64(receipt.Payout.Paid),
			Accepted:      len(receipt.Payout.Accepted),
		}
	}, nil
}

// SRAResponse is the on-chain record of a release announcement.
type SRAResponse struct {
	ID                 string  `json:"id"`
	Provider           string  `json:"provider"`
	InsuranceRemaining float64 `json:"insuranceRemainingEther"`
	BountyEther        float64 `json:"bountyEther"`
	ReleaseBlock       uint64  `json:"releaseBlock"`
	ConfirmedVulns     uint64  `json:"confirmedVulns"`
	Reports            int     `json:"reports"`
}

// sraResponse renders an SRA's contract record in the view's state.
func (s *Server) sraResponse(v *chain.ReadView, id types.Hash) (SRAResponse, error) {
	info, err := s.contract.GetSRA(v.State(), id)
	if err != nil {
		return SRAResponse{}, err
	}
	return SRAResponse{
		ID:                 id.String(),
		Provider:           info.Provider.String(),
		InsuranceRemaining: info.InsuranceRemaining.Ether(),
		BountyEther:        info.Bounty.Ether(),
		ReleaseBlock:       info.ReleaseBlock,
		ConfirmedVulns:     info.ConfirmedVulns,
		Reports:            int(info.Reports),
	}, nil
}

func readSRA(s *Server, r *http.Request, v *chain.ReadView) (cacheRef, buildFunc, error) {
	id, err := parseHash(r.PathValue("id"))
	if err != nil {
		return cacheRef{}, nil, err
	}
	return cacheRef{key: "sra:" + id.String()}, func() (int, interface{}) {
		resp, err := s.sraResponse(v, id)
		if err != nil {
			return http.StatusNotFound, errEnvelope(CodeNotFound, err)
		}
		return http.StatusOK, resp
	}, nil
}

// ReferenceResponse is the consumer-facing security verdict.
type ReferenceResponse struct {
	ID             string         `json:"id"`
	Provider       string         `json:"provider"`
	ConfirmedVulns uint64         `json:"confirmedVulns"`
	BySeverity     map[string]int `json:"bySeverity"`
	SafeToDeploy   bool           `json:"safeToDeploy"`
}

func readReference(s *Server, r *http.Request, v *chain.ReadView) (cacheRef, buildFunc, error) {
	id, err := parseHash(r.PathValue("id"))
	if err != nil {
		return cacheRef{}, nil, err
	}
	return cacheRef{key: "reference:" + id.String()}, func() (int, interface{}) {
		ref, err := node.NewConsumer(v, s.contract, 0).Lookup(id)
		if err != nil {
			return http.StatusNotFound, errEnvelope(CodeNotFound, err)
		}
		by := make(map[string]int, len(ref.BySeverity))
		for sev, n := range ref.BySeverity {
			by[sev.String()] = n
		}
		return http.StatusOK, ReferenceResponse{
			ID:             id.String(),
			Provider:       ref.Provider.String(),
			ConfirmedVulns: ref.ConfirmedVulns,
			BySeverity:     by,
			SafeToDeploy:   ref.SafeToDeploy,
		}
	}, nil
}

// Pagination caps for the list endpoints. Both are enforced, not merely
// suggested: /v1/sras clamps limit to MaxSRAPageSize, and /v1/blocks
// rejects ranges wider than MaxBlockRangeSize outright.
const (
	DefaultSRAPageSize = 25
	MaxSRAPageSize     = 100
	MaxBlockRangeSize  = 100
)

// SRAListResponse is a page of the contract's SRA listing. NextCursor is
// always present: on the last page it is a poll token that resumes after
// the final entry once new SRAs land.
type SRAListResponse struct {
	Total      int           `json:"total"`
	NextCursor string        `json:"nextCursor"`
	SRAs       []SRAResponse `json:"sras"`
}

// parseQueryInt reads an optional non-negative integer query parameter.
// Malformed or negative values are rejected here, at parse time, so
// every list endpoint answers them with a bad_request envelope instead
// of silently serving an empty page.
func parseQueryInt(r *http.Request, key string, def int) (int, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("rpc: bad %s %q: want a non-negative integer", key, raw)
	}
	return v, nil
}

// parseQueryPositive reads an optional integer query parameter that must
// be at least 1 when present. A limit of 0 is always a client bug —
// answering it with an empty 200 page hides the bug, so it is rejected
// like any other malformed value. Oversized limits are NOT rejected:
// callers clamp them to the documented cap.
func parseQueryPositive(r *http.Request, key string, def int) (int, error) {
	v, err := parseQueryInt(r, key, def)
	if err != nil {
		return 0, err
	}
	if v == 0 {
		return 0, fmt.Errorf("rpc: bad %s: want a positive integer", key)
	}
	return v, nil
}

func readSRAs(s *Server, r *http.Request, v *chain.ReadView) (cacheRef, buildFunc, error) {
	q := r.URL.Query()
	if q.Has("offset") {
		// Rejected, not ignored: a pre-cursor client that kept sending
		// offsets would otherwise loop on the first page forever.
		return cacheRef{}, nil, errors.New("rpc: offset pagination was removed; pass the previous page's nextCursor as cursor")
	}
	limit, err := parseQueryPositive(r, "limit", DefaultSRAPageSize)
	if err != nil {
		return cacheRef{}, nil, err
	}
	if limit > MaxSRAPageSize {
		limit = MaxSRAPageSize
	}
	start := 0
	if q.Has("cursor") {
		cur, err := decodeCursor(q.Get("cursor"), cursorKindSRAs)
		if err != nil {
			return cacheRef{}, nil, err
		}
		start = resolveSRACursor(s.contract, v, cur)
	}
	// Cursors that resolve to the same position share one cache entry:
	// the body depends only on (start, limit, view).
	return cacheRef{key: fmt.Sprintf("sras:%d:%d", start, limit)}, func() (int, interface{}) {
		st := v.State()
		total := s.contract.SRACount(st)
		end := min(start+limit, total)
		resp := SRAListResponse{
			Total:      total,
			NextCursor: nextSRACursor(s.contract, v, end),
			SRAs:       make([]SRAResponse, 0, end-start),
		}
		for i := start; i < end; i++ {
			id, _ := s.contract.SRAAt(st, i)
			sra, err := s.sraResponse(v, id)
			if err != nil {
				// The listing and the records are one state; a miss here
				// is a server-side inconsistency.
				return http.StatusInternalServerError, errEnvelope(CodeInternal, err)
			}
			resp.SRAs = append(resp.SRAs, sra)
		}
		return http.StatusOK, resp
	}, nil
}

// BlockListResponse is a range of canonical blocks. NextCursor is set on
// open-ended requests (no explicit `to`, or a cursor): it resumes after
// the last delivered block, and on a caught-up page it is a poll token
// for blocks mined since.
type BlockListResponse struct {
	From       uint64          `json:"from"`
	To         uint64          `json:"to"`
	Head       uint64          `json:"head"`
	NextCursor string          `json:"nextCursor,omitempty"`
	Blocks     []BlockResponse `json:"blocks"`
}

func readBlocks(_ *Server, r *http.Request, v *chain.ReadView) (cacheRef, buildFunc, error) {
	q := r.URL.Query()
	head := v.HeadNumber()

	if q.Has("cursor") {
		if q.Has("from") || q.Has("to") {
			return cacheRef{}, nil, errors.New("rpc: cursor and from/to are mutually exclusive")
		}
		cur, err := decodeCursor(q.Get("cursor"), cursorKindBlocks)
		if err != nil {
			return cacheRef{}, nil, err
		}
		// Block numbers are fixed at seal time, so the anchor check is
		// exact: either the block just below the resume point is still the
		// one the client saw, or that history was reorged away and every
		// continuation would silently splice two forks — reject instead.
		if cur.pos > 0 {
			parent, err := v.BlockByNumber(cur.pos - 1)
			if err != nil || parent.ID() != cur.lastID {
				return cacheRef{}, nil, errors.New("rpc: cursor invalidated by a reorg; restart pagination from a finalized block")
			}
		}
		to := cur.pos + MaxBlockRangeSize - 1
		if to > head {
			to = head
		}
		return blockPage(v, cur.pos, to, true)
	}

	from, err := parseQueryInt(r, "from", 0)
	if err != nil {
		return cacheRef{}, nil, err
	}
	to, err := parseQueryInt(r, "to", int(head))
	if err != nil {
		return cacheRef{}, nil, err
	}
	if to < from {
		return cacheRef{}, nil, fmt.Errorf("rpc: bad range: from %d after to %d", from, to)
	}
	tail := !q.Has("to")
	if to-from+1 > MaxBlockRangeSize {
		if !tail {
			// Explicitly bounded ranges keep the hard cap: the client
			// named both ends, so a too-wide range is a contract violation.
			return cacheRef{}, nil, fmt.Errorf("rpc: range %d..%d spans %d blocks, cap is %d", from, to, to-from+1, MaxBlockRangeSize)
		}
		// Open-ended (`to` defaulted to the head): page instead of reject —
		// the first MaxBlockRangeSize blocks now, a cursor for the rest.
		to = from + MaxBlockRangeSize - 1
	}
	return blockPage(v, uint64(from), uint64(to), tail)
}

// blockPage renders one canonical block range. tail marks an open-ended
// iteration, which mints a nextCursor resuming after the last delivered
// block (or re-polling the same position when the page is empty because
// the iteration caught up with the head).
func blockPage(v *chain.ReadView, from, to uint64, tail bool) (cacheRef, buildFunc, error) {
	return cacheRef{key: fmt.Sprintf("blocks:%d:%d:%t", from, to, tail)}, func() (int, interface{}) {
		// The whole range resolves from one snapshot, so a reorg
		// mid-request can never mix blocks from two forks into a page.
		resp := BlockListResponse{From: from, To: to, Head: v.HeadNumber()}
		blocks := v.BlocksRange(from, to)
		for _, blk := range blocks {
			resp.Blocks = append(resp.Blocks, blockResponse(blk))
		}
		if len(resp.Blocks) > 0 {
			resp.To = resp.Blocks[len(resp.Blocks)-1].Number
		}
		if tail {
			next := cursor{kind: cursorKindBlocks, headID: v.HeadID(), pos: from}
			if n := len(blocks); n > 0 {
				next.pos = blocks[n-1].Header.Number + 1
				next.lastID = blocks[n-1].ID()
			} else if from > 0 {
				if blk, err := v.BlockByNumber(from - 1); err == nil {
					next.lastID = blk.ID()
				}
			}
			resp.NextCursor = encodeCursor(next)
		}
		return http.StatusOK, resp
	}, nil
}

// SubmitRequest is the POST /v1/tx body.
type SubmitRequest struct {
	TxHex string `json:"txHex"`
}

// SubmitResponse acknowledges a pooled transaction.
type SubmitResponse struct {
	TxHash string `json:"txHash"`
	Pooled bool   `json:"pooled"`
}

func (s *Server) handleSubmitTx(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	var req SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("rpc: bad request body: %w", err))
		return
	}
	raw, err := hex.DecodeString(strings.TrimPrefix(req.TxHex, "0x"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("rpc: bad tx hex: %w", err))
		return
	}
	tx, err := types.DecodeTx(raw)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	if err := s.node.SubmitTx(tx); err != nil {
		writeErr(w, http.StatusUnprocessableEntity, CodeTxRejected, err)
		return
	}
	writeJSON(w, http.StatusOK, SubmitResponse{TxHash: tx.Hash().String(), Pooled: true})
}
