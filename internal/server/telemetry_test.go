package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kgvote/internal/core"
	"kgvote/internal/qa"
	"kgvote/internal/telemetry"
)

// newTelemetryServer is newTestServer with an instrumented registry.
func newTelemetryServer(t *testing.T, batch int) (*Server, *httptest.Server, *telemetry.Registry) {
	t.Helper()
	corpus := &qa.Corpus{Docs: []qa.Document{
		{ID: 0, Title: "Email stuck in outbox", Entities: map[string]int{"email": 2, "outbox": 2, "send": 1}},
		{ID: 1, Title: "Configure Outlook account", Entities: map[string]int{"outlook": 2, "account": 2, "email": 1}},
		{ID: 2, Title: "Message delivery delays", Entities: map[string]int{"message": 2, "send": 2, "delay": 1}},
	}}
	sys, err := qa.Build(corpus, core.Options{K: 3, L: 4})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	srv, err := NewWithOptions(sys, Options{
		BatchSize: batch,
		Solver:    core.StreamMulti,
		Telemetry: reg,
		Pprof:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, reg
}

func scrape(t *testing.T, ts *httptest.Server) *telemetry.Exposition {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("content type = %q", ct)
	}
	exp, err := telemetry.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	return exp
}

// TestMetricsEndpoint drives the API and asserts the scrape carries
// series from every instrumented layer with consistent values.
func TestMetricsEndpoint(t *testing.T) {
	_, ts, _ := newTelemetryServer(t, 1)

	var ask AskResponse
	if code := post(t, ts.URL+"/v1/ask", AskRequest{Text: "my email will not send"}, &ask); code != http.StatusOK {
		t.Fatalf("ask = %d", code)
	}
	ranked := make([]int, len(ask.Results))
	for i, r := range ask.Results {
		ranked[i] = r.Doc
	}
	var vr VoteResponse
	if code := post(t, ts.URL+"/v1/vote", VoteRequest{Query: ask.Query, Ranked: ranked, BestDoc: ranked[1]}, &vr); code != http.StatusOK {
		t.Fatalf("vote = %d", code)
	}
	// A request that errors (bad body) must land in the error counter.
	if code := post(t, ts.URL+"/v1/ask", AskRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty ask = %d, want 400", code)
	}

	exp := scrape(t, ts)
	if err := exp.CheckHistograms(); err != nil {
		t.Fatalf("histogram invariants: %v", err)
	}

	askRoute := map[string]string{"route": "/ask"}
	if v, ok := exp.Value("kgvote_server_requests_total", askRoute); !ok || v != 2 {
		t.Fatalf("ask requests = %g ok=%v, want 2", v, ok)
	}
	if v, ok := exp.Value("kgvote_server_errors_total", askRoute); !ok || v != 1 {
		t.Fatalf("ask errors = %g ok=%v, want 1", v, ok)
	}
	if v, ok := exp.Value("kgvote_server_inflight_requests", askRoute); !ok || v != 0 {
		t.Fatalf("inflight = %g ok=%v, want 0 at rest", v, ok)
	}
	if v, ok := exp.Value("kgvote_server_request_seconds_count", askRoute); !ok || v != 2 {
		t.Fatalf("request latency count = %g ok=%v, want 2", v, ok)
	}
	// qa layer: one successful ranking.
	if v, ok := exp.Value("kgvote_qa_ask_seconds_count", nil); !ok || v != 1 {
		t.Fatalf("qa ask count = %g ok=%v, want 1", v, ok)
	}
	if v, ok := exp.Value("kgvote_qa_rank_cache_misses_total", nil); !ok || v != 1 {
		t.Fatalf("cache misses = %g ok=%v, want 1 (cold cache)", v, ok)
	}
	// core layer: batch=1, so the vote flushed once.
	if v, ok := exp.Value("kgvote_core_flushes_total", nil); !ok || v != 1 {
		t.Fatalf("core flushes = %g ok=%v, want 1", v, ok)
	}
	if v, ok := exp.Value("kgvote_core_flush_seconds_count", nil); !ok || v != 1 {
		t.Fatalf("flush duration count = %g ok=%v, want 1", v, ok)
	}
	if v, ok := exp.Value("kgvote_server_votes_accepted_total", nil); !ok || v != 1 {
		t.Fatalf("votes accepted = %g ok=%v, want 1", v, ok)
	}
	if v, ok := exp.Value("kgvote_core_epoch", nil); !ok || v < 1 {
		t.Fatalf("epoch = %g ok=%v, want ≥ 1 after a flush", v, ok)
	}

	// The acceptance bar: at least 12 distinct families spanning layers.
	fams := exp.Families()
	if len(fams) < 12 {
		t.Fatalf("only %d metric families: %v", len(fams), fams)
	}
	for _, prefix := range []string{"kgvote_server_", "kgvote_qa_", "kgvote_core_"} {
		found := false
		for _, f := range fams {
			if strings.HasPrefix(f, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no %s* family in scrape: %v", prefix, fams)
		}
	}
}

// TestAskTrace asserts /ask?trace=1 returns inline stage timings and
// the request ID round-trips through X-Request-ID.
func TestAskTrace(t *testing.T) {
	_, ts, _ := newTelemetryServer(t, 4)

	body := strings.NewReader(`{"text": "my email will not send"}`)
	req, err := http.NewRequest("POST", ts.URL+"/v1/ask?trace=1", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "trace-test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ask = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "trace-test-1" {
		t.Fatalf("X-Request-ID echo = %q", got)
	}
	var ask AskResponse
	if err := json.NewDecoder(resp.Body).Decode(&ask); err != nil {
		t.Fatal(err)
	}
	if ask.Trace == nil {
		t.Fatal("trace=1 must attach a trace body")
	}
	if ask.Trace.RequestID != "trace-test-1" {
		t.Fatalf("trace request id = %q", ask.Trace.RequestID)
	}
	if ask.Trace.CacheHit {
		t.Fatal("first ask must be a cache miss")
	}
	names := make(map[string]bool)
	for _, s := range ask.Trace.Stages {
		if s.Micros < 0 {
			t.Fatalf("negative stage duration: %+v", s)
		}
		names[s.Name] = true
	}
	for _, want := range []string{"seed", "rank", "resolve"} {
		if !names[want] {
			t.Fatalf("missing stage %q in %v", want, ask.Trace.Stages)
		}
	}

	// Second identical ask: served from the snapshot rank cache.
	var again AskResponse
	if code := post(t, ts.URL+"/v1/ask?trace=1", AskRequest{Text: "my email will not send"}, &again); code != http.StatusOK {
		t.Fatalf("re-ask = %d", code)
	}
	if again.Trace == nil || !again.Trace.CacheHit {
		t.Fatalf("second identical ask should be a cache hit: %+v", again.Trace)
	}
	if again.Trace.RequestID == "" {
		t.Fatal("server must mint a request ID when the client sends none")
	}

	// Without trace=1 the body stays clean.
	var plain AskResponse
	if code := post(t, ts.URL+"/v1/ask", AskRequest{Text: "my email will not send"}, &plain); code != http.StatusOK {
		t.Fatalf("plain ask = %d", code)
	}
	if plain.Trace != nil {
		t.Fatal("trace body attached without trace=1")
	}
}

// TestMetricsMonotonicAcrossScrapes drives traffic between two scrapes
// and asserts counters only move up.
func TestMetricsMonotonicAcrossScrapes(t *testing.T) {
	_, ts, _ := newTelemetryServer(t, 2)

	ask := func() {
		var a AskResponse
		if code := post(t, ts.URL+"/v1/ask", AskRequest{Text: "configure outlook account"}, &a); code != http.StatusOK {
			t.Fatalf("ask = %d", code)
		}
	}
	ask()
	first := scrape(t, ts)
	ask()
	ask()
	second := scrape(t, ts)

	for _, name := range []string{
		"kgvote_server_requests_total",
		"kgvote_server_request_seconds_count",
	} {
		route := map[string]string{"route": "/ask"}
		v1, ok1 := first.Value(name, route)
		v2, ok2 := second.Value(name, route)
		if !ok1 || !ok2 {
			t.Fatalf("%s missing from a scrape", name)
		}
		if v2 < v1 {
			t.Fatalf("%s went backwards: %g -> %g", name, v1, v2)
		}
		if v2 != v1+2 {
			t.Fatalf("%s = %g -> %g, want +2", name, v1, v2)
		}
	}
	// Identical questions hit the rank cache after the first miss.
	h2, _ := second.Value("kgvote_qa_rank_cache_hits_total", nil)
	m2, _ := second.Value("kgvote_qa_rank_cache_misses_total", nil)
	if m2 != 1 || h2 != 2 {
		t.Fatalf("cache hits/misses = %g/%g, want 2/1", h2, m2)
	}
}

// TestPprofMounted checks the profiling index answers when enabled.
func TestPprofMounted(t *testing.T) {
	_, ts, _ := newTelemetryServer(t, 1)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d", resp.StatusCode)
	}
}

// TestNoTelemetryServesNoMetrics: a server without a registry must not
// expose /metrics but must keep serving the API.
func TestNoTelemetryServesNoMetrics(t *testing.T) {
	_, ts := newTestServer(t, 1)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics without telemetry = %d, want 404", resp.StatusCode)
	}
	var ask AskResponse
	if code := post(t, ts.URL+"/v1/ask?trace=1", AskRequest{Text: "message delivery delays"}, &ask); code != http.StatusOK {
		t.Fatalf("ask = %d", code)
	}
	// The trace body still works: traces run on the real clock when no
	// registry is wired.
	if ask.Trace == nil {
		t.Fatal("trace=1 must work without telemetry")
	}
}

// TestSlowRequestCounter exercises the slow-request path with a
// threshold of one nanosecond so every request qualifies.
func TestSlowRequestCounter(t *testing.T) {
	corpus := &qa.Corpus{Docs: []qa.Document{
		{ID: 0, Title: "Email stuck in outbox", Entities: map[string]int{"email": 2, "outbox": 2}},
		{ID: 1, Title: "Configure Outlook account", Entities: map[string]int{"outlook": 2, "email": 1}},
	}}
	sys, err := qa.Build(corpus, core.Options{K: 2, L: 4})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	srv, err := NewWithOptions(sys, Options{
		BatchSize:     1,
		Solver:        core.StreamMulti,
		Telemetry:     reg,
		SlowThreshold: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var ask AskResponse
	if code := post(t, ts.URL+"/v1/ask", AskRequest{Text: "email outbox"}, &ask); code != http.StatusOK {
		t.Fatalf("ask = %d", code)
	}
	exp := scrape(t, ts)
	if v, ok := exp.Value("kgvote_server_slow_requests_total", nil); !ok || v < 1 {
		t.Fatalf("slow requests = %g ok=%v, want ≥ 1", v, ok)
	}
}
