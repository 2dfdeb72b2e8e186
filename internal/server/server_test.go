package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kgvote/internal/core"
	"kgvote/internal/qa"
)

func newTestServer(t *testing.T, batch int) (*Server, *httptest.Server) {
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
	srv, err := New(sys, batch, core.StreamMulti)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func post(t *testing.T, url string, body any, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp.StatusCode
}

func TestHealthAndStats(t *testing.T) {
	_, ts := newTestServer(t, 1)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
	var stats StatsBody
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Serving.Documents != 3 || stats.Serving.Entities == 0 || stats.Serving.Edges == 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestAskVoteLoop(t *testing.T) {
	_, ts := newTestServer(t, 1)
	var ask AskResponse
	if code := post(t, ts.URL+"/v1/ask", AskRequest{Text: "my email will not send"}, &ask); code != http.StatusOK {
		t.Fatalf("ask = %d", code)
	}
	if len(ask.Results) < 2 {
		t.Fatalf("results = %v", ask.Results)
	}
	// Scores must be descending.
	for i := 1; i < len(ask.Results); i++ {
		if ask.Results[i].Score > ask.Results[i-1].Score+1e-12 {
			t.Errorf("results not sorted: %v", ask.Results)
		}
	}
	// Vote for the second-ranked document.
	ranked := make([]int, len(ask.Results))
	for i, r := range ask.Results {
		ranked[i] = r.Doc
	}
	var vr VoteResponse
	code := post(t, ts.URL+"/v1/vote", VoteRequest{Query: ask.Query, Ranked: ranked, BestDoc: ranked[1]}, &vr)
	if code != http.StatusOK {
		t.Fatalf("vote = %d", code)
	}
	if vr.Kind != "negative" || !vr.Flushed || vr.Report == nil {
		t.Errorf("vote response = %+v", vr)
	}
	// Re-ask: the voted document should now rank first.
	var again AskResponse
	if code := post(t, ts.URL+"/v1/ask", AskRequest{Text: "my email will not send"}, &again); code != http.StatusOK {
		t.Fatalf("re-ask = %d", code)
	}
	if again.Results[0].Doc != ranked[1] {
		t.Errorf("vote did not take effect: top doc %d, want %d", again.Results[0].Doc, ranked[1])
	}
}

func TestVoteBatchingAndFlush(t *testing.T) {
	_, ts := newTestServer(t, 5)
	var ask AskResponse
	if code := post(t, ts.URL+"/v1/ask", AskRequest{Text: "send a message"}, &ask); code != http.StatusOK {
		t.Fatalf("ask = %d", code)
	}
	ranked := make([]int, len(ask.Results))
	for i, r := range ask.Results {
		ranked[i] = r.Doc
	}
	var vr VoteResponse
	if code := post(t, ts.URL+"/v1/vote", VoteRequest{Query: ask.Query, Ranked: ranked, BestDoc: ranked[0]}, &vr); code != http.StatusOK {
		t.Fatalf("vote = %d", code)
	}
	if vr.Flushed || vr.Pending != 1 {
		t.Errorf("buffered vote response = %+v", vr)
	}
	var fr VoteResponse
	if code := post(t, ts.URL+"/v1/flush", struct{}{}, &fr); code != http.StatusOK {
		t.Fatalf("flush = %d", code)
	}
	if !fr.Flushed || fr.Pending != 0 || fr.Report == nil {
		t.Errorf("flush response = %+v", fr)
	}
	// Idempotent empty flush.
	if code := post(t, ts.URL+"/v1/flush", struct{}{}, &fr); code != http.StatusOK || fr.Flushed {
		t.Errorf("empty flush: code=%d resp=%+v", code, fr)
	}
}

func TestExplainEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 1)
	var ask AskResponse
	if code := post(t, ts.URL+"/v1/ask", AskRequest{Entities: map[string]int{"email": 1}}, &ask); code != http.StatusOK {
		t.Fatalf("ask = %d", code)
	}
	var ex ExplainResponse
	code := post(t, ts.URL+"/v1/explain", ExplainRequest{Query: ask.Query, Doc: ask.Results[0].Doc, Top: 2}, &ex)
	if code != http.StatusOK {
		t.Fatalf("explain = %d", code)
	}
	if ex.Similarity <= 0 || len(ex.Paths) == 0 {
		t.Fatalf("explanation = %+v", ex)
	}
	if len(ex.Paths) > 2 {
		t.Errorf("top truncation ignored")
	}
	for _, p := range ex.Paths {
		if len(p.Nodes) < 2 {
			t.Errorf("path too short: %+v", p)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, 1)
	// Bad JSON.
	resp, err := http.Post(ts.URL+"/v1/ask", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON ask = %d", resp.StatusCode)
	}
	// No entities.
	if code := post(t, ts.URL+"/v1/ask", AskRequest{Text: "nothing known"}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown entities ask = %d", code)
	}
	// Unknown documents in vote.
	if code := post(t, ts.URL+"/v1/vote", VoteRequest{Query: 0, Ranked: []int{99}, BestDoc: 99}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown doc vote = %d", code)
	}
	// Best not in ranked.
	if code := post(t, ts.URL+"/v1/vote", VoteRequest{Query: 0, Ranked: []int{0}, BestDoc: 1}, nil); code != http.StatusBadRequest {
		t.Errorf("inconsistent vote = %d", code)
	}
	// Negative weight.
	if code := post(t, ts.URL+"/v1/vote", VoteRequest{Query: 0, Ranked: []int{0, 1}, BestDoc: 0, Weight: -1}, nil); code != http.StatusBadRequest {
		t.Errorf("negative weight vote = %d", code)
	}
	// Unknown doc in explain.
	if code := post(t, ts.URL+"/v1/explain", ExplainRequest{Query: 0, Doc: 99}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown doc explain = %d", code)
	}
	// Bad JSON on vote/explain.
	for _, path := range []string{"/v1/vote", "/v1/explain"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{nope"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad JSON %s = %d", path, resp.StatusCode)
		}
	}
	// Wrong method.
	resp, err = http.Get(ts.URL + "/v1/ask")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /ask = %d", resp.StatusCode)
	}
}

// TestStatsFlushSection: after a flush, /stats carries the cumulative
// per-stage timings and enum-cache counters of the optimization pipeline.
func TestStatsFlushSection(t *testing.T) {
	_, ts := newTestServer(t, 1)
	if st := getStats(t, ts.URL); st.Flush != nil {
		t.Fatalf("flush stats before any flush: %+v", st.Flush)
	}
	if vr := askAndVote(t, ts.URL, 1); !vr.Flushed {
		t.Fatalf("vote did not flush: %+v", vr)
	}
	st := getStats(t, ts.URL)
	if st.Flush == nil {
		t.Fatal("no flush stats after a flush")
	}
	if st.Flush.EnumCacheHits+st.Flush.EnumCacheMisses == 0 {
		t.Errorf("enum cache counters both zero: %+v", st.Flush)
	}
	total := st.Flush.EnumSeconds + st.Flush.JudgeSeconds + st.Flush.ClusterSeconds +
		st.Flush.SolveSeconds + st.Flush.MergeSeconds
	if total <= 0 {
		t.Errorf("stage timings sum to %v: %+v", total, st.Flush)
	}
}
