package rpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/node"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
)

// This file is the observability read surface: hierarchical traces,
// the structured-log ring, the live event feed and the readiness probe.
// None of it is part of the versioned consumer API contract except
// /v1/events and /v1/health, which consumers are expected to script
// against.

// sortedLabels renders a label map as a JSON object with keys in sorted
// order. encoding/json happens to sort map keys today, but /debug/traces
// promises deterministic bytes, so the ordering is pinned here rather
// than inherited from an encoder implementation detail.
type sortedLabels map[string]string

func (m sortedLabels) MarshalJSON() ([]byte, error) {
	if len(m) == 0 {
		return []byte("{}"), nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			buf.WriteByte(',')
		}
		kb, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		vb, err := json.Marshal(m[k])
		if err != nil {
			return nil, err
		}
		buf.Write(kb)
		buf.WriteByte(':')
		buf.Write(vb)
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// SpanView is SpanRecord with deterministically encoded labels.
type SpanView struct {
	Name       string       `json:"name"`
	Start      time.Time    `json:"start"`
	DurationNs int64        `json:"durationNs"`
	Labels     sortedLabels `json:"labels,omitempty"`
	TraceID    string       `json:"traceId,omitempty"`
	SpanID     string       `json:"spanId,omitempty"`
	ParentID   string       `json:"parentId,omitempty"`
}

func spanView(sp telemetry.SpanRecord) SpanView {
	return SpanView{
		Name:       sp.Name,
		Start:      sp.Start,
		DurationNs: sp.DurationNs,
		Labels:     sortedLabels(sp.Labels),
		TraceID:    sp.TraceID,
		SpanID:     sp.SpanID,
		ParentID:   sp.ParentID,
	}
}

// TraceNode is one span in a trace's hop tree, children nested under the
// span that caused them — on one node or across the network.
type TraceNode struct {
	Name       string       `json:"name"`
	SpanID     string       `json:"spanId"`
	Start      time.Time    `json:"start"`
	DurationNs int64        `json:"durationNs"`
	Labels     sortedLabels `json:"labels,omitempty"`
	Children   []*TraceNode `json:"children,omitempty"`
}

// TraceResponse is one trace: the flat span list (completion order, as
// recorded) plus the reconstructed hierarchy.
type TraceResponse struct {
	ID           string     `json:"id"`
	StartUnixNs  int64      `json:"startUnixNs"`
	DroppedSpans int        `json:"droppedSpans,omitempty"`
	Spans        []SpanView `json:"spans"`
	// Roots holds the trace's span tree. A span whose parent has not
	// been recorded (still open, evicted from the span budget, or ended
	// on a node whose store we cannot see) surfaces as a root.
	Roots []*TraceNode `json:"roots"`
}

func traceResponse(rec telemetry.TraceRecord) TraceResponse {
	resp := TraceResponse{
		ID:           rec.ID,
		StartUnixNs:  rec.StartUnixNs,
		DroppedSpans: rec.DroppedSpans,
		Spans:        make([]SpanView, 0, len(rec.Spans)),
	}
	nodes := make(map[string]*TraceNode, len(rec.Spans))
	for _, sp := range rec.Spans {
		resp.Spans = append(resp.Spans, spanView(sp))
		nodes[sp.SpanID] = &TraceNode{
			Name:       sp.Name,
			SpanID:     sp.SpanID,
			Start:      sp.Start,
			DurationNs: sp.DurationNs,
			Labels:     sortedLabels(sp.Labels),
		}
	}
	for _, sp := range rec.Spans {
		node := nodes[sp.SpanID]
		if parent, ok := nodes[sp.ParentID]; ok && sp.ParentID != sp.SpanID {
			parent.Children = append(parent.Children, node)
		} else {
			resp.Roots = append(resp.Roots, node)
		}
	}
	// Deterministic sibling order: by start time, span id as tie-break.
	var sortTree func(ns []*TraceNode)
	sortTree = func(ns []*TraceNode) {
		sort.Slice(ns, func(i, j int) bool {
			if !ns[i].Start.Equal(ns[j].Start) {
				return ns[i].Start.Before(ns[j].Start)
			}
			return ns[i].SpanID < ns[j].SpanID
		})
		for _, n := range ns {
			sortTree(n.Children)
		}
	}
	sortTree(resp.Roots)
	return resp
}

// handleTraces serves the trace store: `?id=<hex>` for one trace,
// otherwise the most recent traces (`?limit=`, default 32).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if raw := r.URL.Query().Get("id"); raw != "" {
		id, ok := telemetry.ParseTraceID(raw)
		if !ok {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("rpc: bad trace id %q", raw))
			return
		}
		rec, ok := telemetry.GetTrace(id)
		if !ok {
			writeErr(w, http.StatusNotFound, CodeNotFound, errors.New("rpc: trace not in store (evicted or never recorded)"))
			return
		}
		writeJSON(w, http.StatusOK, traceResponse(rec))
		return
	}
	limit, err := parseQueryPositive(r, "limit", 32)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	recs := telemetry.RecentTraces(limit)
	out := make([]TraceResponse, 0, len(recs))
	for _, rec := range recs {
		out = append(out, traceResponse(rec))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleLogs serves the structured-log ring, oldest first. `?level=`
// filters to entries at or above a severity.
func (s *Server) handleLogs(w http.ResponseWriter, r *http.Request) {
	entries := telemetry.RecentLogs()
	if raw := r.URL.Query().Get("level"); raw != "" {
		min, ok := parseLevel(raw)
		if !ok {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("rpc: bad level %q (want debug|info|warn|error)", raw))
			return
		}
		kept := entries[:0]
		for _, e := range entries {
			if lvl, ok := parseLevel(e.Level); ok && lvl >= min {
				kept = append(kept, e)
			}
		}
		entries = kept
	}
	if entries == nil {
		entries = []telemetry.LogEntry{}
	}
	writeJSON(w, http.StatusOK, entries)
}

func parseLevel(s string) (telemetry.Level, bool) {
	switch s {
	case "debug", "DEBUG":
		return telemetry.LevelDebug, true
	case "info", "INFO":
		return telemetry.LevelInfo, true
	case "warn", "WARN":
		return telemetry.LevelWarn, true
	case "error", "ERROR":
		return telemetry.LevelError, true
	}
	return 0, false
}

// maxSSEStream bounds one /v1/events connection. The HTTP server's write
// timeout covers the whole response, so the stream must end before it
// fires; clients reconnect with Last-Event-ID and miss nothing that is
// still in the replay ring.
const maxSSEStream = 25 * time.Second

// handleEvents streams chain lifecycle events (new heads, SRA
// registrations, detection verdicts) as server-sent events. Replay
// starts after the Last-Event-ID header or `?since=` sequence number, so
// a reconnecting consumer resumes exactly where it dropped.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, CodeInternal, errors.New("rpc: response writer cannot stream"))
		return
	}
	since := uint64(0)
	if raw := r.Header.Get("Last-Event-ID"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("rpc: bad Last-Event-ID %q", raw))
			return
		}
		since = v
	} else if raw := r.URL.Query().Get("since"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("rpc: bad since %q", raw))
			return
		}
		since = v
	}

	// Subscribe before replaying so nothing published between the two
	// calls is lost; duplicates across the seam are filtered by seq.
	ch, cancel := telemetry.SubscribeEvents(64)
	defer cancel()

	hdr := w.Header()
	hdr.Set("Content-Type", "text/event-stream")
	hdr.Set("Cache-Control", "no-cache")
	hdr.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "retry: 2000\n\n")

	last := since
	for _, ev := range telemetry.EventsSince(since) {
		writeSSE(w, ev)
		last = ev.Seq
	}
	flusher.Flush()

	deadline := time.NewTimer(maxSSEStream)
	defer deadline.Stop()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			if ev.Seq <= last {
				continue
			}
			writeSSE(w, ev)
			last = ev.Seq
			flusher.Flush()
		case <-deadline.C:
			// Polite end-of-stream: a comment line, then the client's
			// EventSource reconnects with Last-Event-ID set.
			fmt.Fprintf(w, ": stream rotated after %s\n\n", maxSSEStream)
			flusher.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE renders one event in text/event-stream framing.
func writeSSE(w http.ResponseWriter, ev telemetry.Event) {
	body, err := json.Marshal(ev)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, body)
}

// HealthResponse is the /v1/health readiness report.
type HealthResponse struct {
	Status     string `json:"status"`
	HeadNumber uint64 `json:"headNumber"`
	HeadID     string `json:"headId"`
	// HeadAgeSeconds is wall time minus the head's block timestamp,
	// clamped at zero (block times are miner-declared).
	HeadAgeSeconds int64 `json:"headAgeSeconds"`
	// Peers is the live transport connection count, or -1 when the node
	// runs without a network transport (single-node and sim setups).
	Peers      int    `json:"peers"`
	PendingTxs int    `json:"pendingTxs"`
	Orphans    int    `json:"orphans"`
	EventSeq   uint64 `json:"eventSeq"`
	// SyncMode is the node's current sync mode (live, snap, replay).
	SyncMode string `json:"syncMode"`
}

// handleHealth reports readiness: 200 when the node can serve fresh
// chain state, 503 when it cannot — while a snap-sync session is
// adopting a downloaded snapshot (answers are about to jump wholesale),
// or when it has a transport but no peers (an isolated node serves stale
// answers and should be rotated out of load balancing). snap_syncing
// takes precedence: a syncing node usually also has its serving peer, so
// the peer check alone would report it healthy mid-adoption.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	head := s.node.Chain().CurrentView().Head()
	age := time.Now().Unix() - int64(head.Header.Time)
	if age < 0 {
		age = 0
	}
	peers := s.node.PeerCount()
	sync := s.node.SyncStatus()
	resp := HealthResponse{
		Status:         "ok",
		HeadNumber:     head.Header.Number,
		HeadID:         head.ID().String(),
		HeadAgeSeconds: age,
		Peers:          peers,
		PendingTxs:     s.node.PoolLen(),
		Orphans:        s.node.OrphanCount(),
		EventSeq:       telemetry.EventSeq(),
		SyncMode:       sync.Mode,
	}
	status := http.StatusOK
	switch {
	case sync.ApplyingSnapshot:
		resp.Status = "snap_syncing"
		status = http.StatusServiceUnavailable
	case peers == 0:
		resp.Status = "no_peers"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// NodeResponse is the /v1/node operational report: identity, head,
// storage durability and sync state. Like /v1/health it answers from
// live process state, outside the view/cache machinery — operators poll
// it to watch a restart recover or a snap-sync progress, so serving a
// cached generation would defeat the point.
type NodeResponse struct {
	NodeID     string          `json:"nodeId"`
	HeadNumber uint64          `json:"headNumber"`
	HeadID     string          `json:"headId"`
	Peers      int             `json:"peers"`
	PendingTxs int             `json:"pendingTxs"`
	Storage    StorageResponse `json:"storage"`
	Sync       node.SyncStatus `json:"sync"`
}

// StorageResponse reports the chain's persistence backend.
type StorageResponse struct {
	Backend        string `json:"backend"`
	Dir            string `json:"dir,omitempty"`
	Blocks         uint64 `json:"blocks"`
	LogBytes       int64  `json:"logBytes"`
	WALBytes       int64  `json:"walBytes"`
	SnapshotBytes  int64  `json:"snapshotBytes"`
	SnapshotHeight uint64 `json:"snapshotHeight"`
	// Recovered reports that the last open healed after a crash
	// (truncated a torn or unacknowledged tail).
	Recovered bool `json:"recovered"`
}

func (s *Server) handleNode(w http.ResponseWriter, r *http.Request) {
	head := s.node.Chain().CurrentView().Head()
	st := s.node.Chain().StorageStats()
	writeJSON(w, http.StatusOK, NodeResponse{
		NodeID:     string(s.node.ID()),
		HeadNumber: head.Header.Number,
		HeadID:     head.ID().String(),
		Peers:      s.node.PeerCount(),
		PendingTxs: s.node.PoolLen(),
		Storage: StorageResponse{
			Backend:        st.Backend,
			Dir:            st.Dir,
			Blocks:         st.Blocks,
			LogBytes:       st.LogBytes,
			WALBytes:       st.WALBytes,
			SnapshotBytes:  st.SnapshotBytes,
			SnapshotHeight: st.SnapshotHeight,
			Recovered:      st.Recovered,
		},
		Sync: s.node.SyncStatus(),
	})
}
