package rpc

import (
	"bufio"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/telemetry"
)

func TestHealthEndpoint(t *testing.T) {
	e := newEnv(t)
	var h HealthResponse
	if code := e.get("/v1/health", &h); code != http.StatusOK {
		t.Fatalf("health returned %d", code)
	}
	if h.Status != "ok" {
		t.Errorf("status %q, want ok", h.Status)
	}
	if h.HeadNumber == 0 {
		t.Error("health reports genesis head after mining")
	}
	if h.Peers != -1 {
		t.Errorf("peers %d, want -1 (no transport attached)", h.Peers)
	}
	if h.HeadID == "" {
		t.Error("health has no head id")
	}
}

func TestDebugTracesEndpoint(t *testing.T) {
	e := newEnv(t)
	// The env mined blocks through MineBlock, which mints a block.seal
	// trace per block and remembers it by block id.
	head := e.provider.Chain().Head()
	tc, ok := e.provider.TraceOf(head.ID())
	if !ok {
		t.Fatal("provider kept no trace for its own head")
	}

	var recs []TraceResponse
	if code := e.get("/debug/traces", &recs); code != http.StatusOK {
		t.Fatalf("debug/traces returned %d", code)
	}
	if len(recs) == 0 {
		t.Fatal("trace store is empty after mining")
	}

	var one TraceResponse
	if code := e.get("/debug/traces?id="+tc.TraceID.String(), &one); code != http.StatusOK {
		t.Fatalf("trace lookup returned %d", code)
	}
	if one.ID != tc.TraceID.String() {
		t.Fatalf("lookup returned trace %s, want %s", one.ID, tc.TraceID.String())
	}
	if len(one.Spans) == 0 || len(one.Roots) == 0 {
		t.Fatalf("trace has no spans/roots: %+v", one)
	}
	sawSeal := false
	for _, sp := range one.Spans {
		if sp.Name == "block.seal" {
			sawSeal = true
		}
	}
	if !sawSeal {
		t.Errorf("head trace lacks its block.seal root span: %+v", one.Spans)
	}

	if code := e.get("/debug/traces?id=zzzz", nil); code != http.StatusBadRequest {
		t.Errorf("malformed trace id returned %d, want 400", code)
	}
	if code := e.get("/debug/traces?id="+strings.Repeat("00", 16), nil); code != http.StatusNotFound {
		t.Errorf("unknown trace id returned %d, want 404", code)
	}
}

func TestDebugLogsEndpoint(t *testing.T) {
	e := newEnv(t)
	telemetry.Log("rpctest").Warn("observable entry", "k", "v")

	var entries []telemetry.LogEntry
	if code := e.get("/debug/logs", &entries); code != http.StatusOK {
		t.Fatalf("debug/logs returned %d", code)
	}
	found := false
	for _, en := range entries {
		if en.Subsystem == "rpctest" && en.Msg == "observable entry" {
			found = true
			if en.Fields != "k=v" {
				t.Errorf("fields %q, want k=v", en.Fields)
			}
		}
	}
	if !found {
		t.Fatal("emitted entry not in /debug/logs")
	}

	// Severity filter: a warn-and-up view must keep the entry; an
	// error-only view must drop it.
	var warns []telemetry.LogEntry
	if code := e.get("/debug/logs?level=warn", &warns); code != http.StatusOK {
		t.Fatalf("filtered debug/logs returned %d", code)
	}
	for _, en := range warns {
		if lvl, ok := parseLevel(en.Level); !ok || lvl < telemetry.LevelWarn {
			t.Errorf("level filter leaked %q entry", en.Level)
		}
	}
	if code := e.get("/debug/logs?level=loud", nil); code != http.StatusBadRequest {
		t.Errorf("bad level returned %d, want 400", code)
	}
}

// TestDebugTracesDeterministic asserts identical trace state serves
// byte-identical /debug/traces responses with an explicit JSON content
// type, labels in sorted key order.
func TestDebugTracesDeterministic(t *testing.T) {
	e := newEnv(t)
	sp := telemetry.StartTrace("det.test")
	id := sp.Context().TraceID.String()
	sp.End(
		telemetry.L("zeta", "1"), telemetry.L("alpha", "2"),
		telemetry.L("mid", "3"), telemetry.L("beta", "4"),
	)

	fetch := func() (string, string) {
		resp, body := e.getRaw("/debug/traces?id=" + id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("debug/traces returned %d", resp.StatusCode)
		}
		return string(body), resp.Header.Get("Content-Type")
	}
	b1, ct := fetch()
	b2, _ := fetch()
	if ct != "application/json" {
		t.Errorf("content type %q, want application/json", ct)
	}
	if b1 != b2 {
		t.Fatal("two reads of identical trace state differ")
	}
	// The sorted-label contract, visible in the bytes themselves.
	if !strings.Contains(b1, `{"alpha":"2","beta":"4","mid":"3","zeta":"1"}`) {
		t.Errorf("labels not serialized in sorted key order: %s", b1)
	}
}

// TestEventsSSE drives the /v1/events stream end to end: publish, then
// connect with a replay cursor and assert framing, ordering and the
// trace stamp.
func TestEventsSSE(t *testing.T) {
	e := newEnv(t)
	// Cursor taken before publishing: the subscription must replay
	// exactly what follows it.
	cursor := telemetry.EventSeq()
	tc := telemetry.TraceContext{TraceID: telemetry.NewTraceID(), Span: telemetry.NewSpanID(), Start: 1}
	telemetry.PublishEvent("testevent", tc, map[string]string{"block": "b-1"})

	req, err := http.NewRequest("GET", e.server.URL+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", strconv.FormatUint(cursor, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events stream returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q, want text/event-stream", ct)
	}

	// Read frames until our event shows up (the stream stays open, so a
	// bounded scan, not ReadAll).
	sc := bufio.NewScanner(resp.Body)
	deadline := time.Now().Add(5 * time.Second)
	var sawID, sawType, sawData bool
	for sc.Scan() && time.Now().Before(deadline) {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			sawID = true
		case line == "event: testevent":
			sawType = true
		case strings.HasPrefix(line, "data: ") && strings.Contains(line, `"block":"b-1"`):
			if !strings.Contains(line, tc.TraceID.String()) {
				t.Fatalf("event data lacks its trace id: %s", line)
			}
			sawData = true
		}
		if sawID && sawType && sawData {
			return
		}
	}
	t.Fatalf("published event never arrived (id=%v type=%v data=%v)", sawID, sawType, sawData)
}
