package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kgvote/api"
	"kgvote/internal/admit"
	"kgvote/internal/core"
	"kgvote/internal/qa"
)

// newAdmitServer builds a test server with admission control and a batch
// size large enough that no inline flush drains the queue mid-test.
func newAdmitServer(t *testing.T, o Options) (*Server, *httptest.Server) {
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
	srv, err := NewWithOptions(sys, o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// doJSON posts body to url with optional headers, returning the response
// (caller closes Body).
func doJSON(t *testing.T, method, url string, body any, hdr map[string]string) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeEnvelope(t *testing.T, resp *http.Response) api.Error {
	t.Helper()
	defer resp.Body.Close()
	var eb api.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if eb.Error.Code == "" {
		t.Fatalf("envelope has empty code")
	}
	if eb.Error.Message == "" {
		t.Fatalf("envelope has empty message")
	}
	return eb.Error
}

// askV1 serves one question over /v1/ask and returns the handle plus the
// ranked doc IDs.
func askV1(t *testing.T, url string) (api.QueryHandle, []int) {
	t.Helper()
	resp := doJSON(t, "POST", url+"/v1/ask", AskRequest{Text: "email stuck in outbox"}, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ask status = %d", resp.StatusCode)
	}
	var ask AskResponse
	if err := json.NewDecoder(resp.Body).Decode(&ask); err != nil {
		t.Fatal(err)
	}
	docs := make([]int, len(ask.Results))
	for i, r := range ask.Results {
		docs[i] = r.Doc
	}
	return ask.Query, docs
}

func TestErrorEnvelopeShape(t *testing.T) {
	_, ts := newTestServer(t, 100)
	cases := []struct {
		name       string
		path       string
		body       any
		wantStatus int
		wantCode   string
	}{
		{"ask garbage body", "/v1/ask", "not json", http.StatusBadRequest, api.CodeBadRequest},
		{"ask no entities", "/v1/ask", AskRequest{Text: "zzz qqq"}, http.StatusBadRequest, api.CodeBadRequest},
		{"vote unknown doc", "/v1/vote", VoteRequest{Query: -2, Ranked: []int{77}, BestDoc: 77}, http.StatusBadRequest, api.CodeBadRequest},
		{"vote unknown handle", "/v1/vote", VoteRequest{Query: -9999, Ranked: []int{0, 1}, BestDoc: 1}, http.StatusBadRequest, api.CodeBadRequest},
		{"explain unknown doc", "/v1/explain", ExplainRequest{Query: -2, Doc: 77}, http.StatusBadRequest, api.CodeBadRequest},
		{"checkpoint without durability", "/v1/checkpoint", nil, http.StatusNotImplemented, api.CodeNotImplemented},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := doJSON(t, "POST", ts.URL+tc.path, tc.body, nil)
			if resp.StatusCode != tc.wantStatus {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if e := decodeEnvelope(t, resp); e.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", e.Code, tc.wantCode)
			}
		})
	}
}

func TestVoteShedQueueFull(t *testing.T) {
	srv, ts := newAdmitServer(t, Options{
		BatchSize: 100, Solver: core.StreamMulti,
		Admission: admit.Config{Capacity: 2},
	})
	handle, docs := askV1(t, ts.URL)
	votes := func() VoteRequest { return VoteRequest{Query: handle, Ranked: docs, BestDoc: docs[len(docs)-1]} }
	for i := 0; i < 2; i++ {
		resp := doJSON(t, "POST", ts.URL+"/v1/vote", votes(), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("vote %d status = %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp := doJSON(t, "POST", ts.URL+"/v1/vote", votes(), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow vote status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("shed response missing Retry-After header")
	}
	e := decodeEnvelope(t, resp)
	if e.Code != api.CodeQueueFull {
		t.Errorf("code = %q, want %q", e.Code, api.CodeQueueFull)
	}
	if e.RetryAfterMS <= 0 {
		t.Errorf("retry_after_ms = %d, want > 0", e.RetryAfterMS)
	}
	st := srv.admit.Stats()
	if st.Admitted != 2 || st.ShedQueueFull != 1 {
		t.Errorf("admission stats = %+v, want 2 admitted / 1 shed", st)
	}
}

func TestVoteShedRateLimited(t *testing.T) {
	now := time.Unix(1000, 0)
	_, ts := newAdmitServer(t, Options{
		BatchSize: 100, Solver: core.StreamMulti,
		Admission: admit.Config{
			Capacity:      100,
			PerClientRate: 1, PerClientBurst: 1,
			Now: func() time.Time { return now }, // frozen: no refill
		},
	})
	handle, docs := askV1(t, ts.URL)
	req := VoteRequest{Query: handle, Ranked: docs, BestDoc: docs[len(docs)-1]}
	hdr := map[string]string{"X-Client-ID": "flooder"}
	resp := doJSON(t, "POST", ts.URL+"/v1/vote", req, hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first vote status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = doJSON(t, "POST", ts.URL+"/v1/vote", req, hdr)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second vote status = %d, want 429", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp); e.Code != api.CodeRateLimited {
		t.Errorf("code = %q, want %q", e.Code, api.CodeRateLimited)
	}
	// A different client still has its own full bucket.
	resp = doJSON(t, "POST", ts.URL+"/v1/vote", req, map[string]string{"X-Client-ID": "polite"})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("other client's vote status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestVoteShedFlushBackpressure(t *testing.T) {
	srv, ts := newAdmitServer(t, Options{
		BatchSize: 100, Solver: core.StreamMulti,
		Admission: admit.Config{Capacity: 100, Watermark: 1},
	})
	handle, docs := askV1(t, ts.URL)
	req := VoteRequest{Query: handle, Ranked: docs, BestDoc: docs[len(docs)-1]}
	resp := doJSON(t, "POST", ts.URL+"/v1/vote", req, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("vote status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Without a flush in flight the watermark is inert.
	resp = doJSON(t, "POST", ts.URL+"/v1/vote", req, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("vote below capacity status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	// Simulate an in-flight flush: depth (2) >= watermark (1) now sheds.
	srv.flushing.Store(true)
	defer srv.flushing.Store(false)
	resp = doJSON(t, "POST", ts.URL+"/v1/vote", req, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("vote during flush status = %d, want 429", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp); e.Code != api.CodeFlushBackpressure {
		t.Errorf("code = %q, want %q", e.Code, api.CodeFlushBackpressure)
	}
}

func TestDrainRejectsWritesKeepsReads(t *testing.T) {
	srv, ts := newAdmitServer(t, Options{BatchSize: 100, Solver: core.StreamMulti})
	handle, docs := askV1(t, ts.URL)
	srv.BeginDrain()
	for _, path := range []string{"/v1/vote", "/v1/flush", "/v1/checkpoint"} {
		resp := doJSON(t, "POST", ts.URL+path, VoteRequest{Query: handle, Ranked: docs, BestDoc: docs[0]}, nil)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s status = %d during drain, want 503", path, resp.StatusCode)
		}
		if e := decodeEnvelope(t, resp); e.Code != api.CodeDraining {
			t.Errorf("%s code = %q, want %q", path, e.Code, api.CodeDraining)
		}
	}
	// Reads keep serving.
	if _, docs := askV1(t, ts.URL); len(docs) == 0 {
		t.Error("ask stopped returning results during drain")
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hb api.HealthBody
	if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hb.Status != "draining" {
		t.Errorf("healthz status = %q during drain, want draining", hb.Status)
	}
	var stats StatsBody
	sresp := doJSON(t, "GET", ts.URL+"/v1/stats", nil, nil)
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if !stats.Serving.Draining {
		t.Error("stats.Draining = false during drain")
	}
}

func TestDrainFlushesPendingVotes(t *testing.T) {
	srv, ts := newAdmitServer(t, Options{BatchSize: 100, Solver: core.StreamMulti})
	handle, docs := askV1(t, ts.URL)
	for i := 0; i < 3; i++ {
		resp := doJSON(t, "POST", ts.URL+"/v1/vote",
			VoteRequest{Query: handle, Ranked: docs, BestDoc: docs[len(docs)-1]}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("vote %d status = %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := srv.stream.Pending(); got != 0 {
		t.Errorf("pending = %d after drain, want 0", got)
	}
	if got := srv.stream.Flushes; got != 1 {
		t.Errorf("flushes = %d after drain, want 1", got)
	}
}

func TestVoteTimeoutAtWriterGate(t *testing.T) {
	srv, ts := newAdmitServer(t, Options{BatchSize: 100, Solver: core.StreamMulti})
	handle, docs := askV1(t, ts.URL)
	srv.mu.Lock() // a "flush" holds the gate
	defer srv.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(VoteRequest{Query: handle, Ranked: docs, BestDoc: docs[0]}); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/vote", &buf).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	var eb api.ErrorBody
	if err := json.NewDecoder(rec.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != api.CodeTimeout {
		t.Errorf("code = %q, want %q", eb.Error.Code, api.CodeTimeout)
	}
}

func TestAsyncFlushBackgroundSolve(t *testing.T) {
	srv, ts := newAdmitServer(t, Options{
		BatchSize: 2, Solver: core.StreamMulti,
		AsyncFlush: true,
	})
	defer srv.flusher.stop()
	handle, docs := askV1(t, ts.URL)
	for i := 0; i < 2; i++ {
		resp := doJSON(t, "POST", ts.URL+"/v1/vote",
			VoteRequest{Query: handle, Ranked: docs, BestDoc: docs[len(docs)-1]}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("vote %d status = %d", i, resp.StatusCode)
		}
		var vr VoteResponse
		if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if vr.Flushed {
			t.Error("async vote reported Flushed = true; solves must run off the request path")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.flushes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background flusher never solved the full batch")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.votesPending.Load(); got != 0 {
		t.Errorf("pending = %d after background flush, want 0", got)
	}
}

// TestOverloadFloodExactCapacity is the overload acceptance check at unit
// scale: flooding far past capacity from many goroutines admits exactly
// Capacity votes; everything else is shed with a 429 + Retry-After.
func TestOverloadFloodExactCapacity(t *testing.T) {
	const capacity, workers, per = 8, 16, 12
	const flood = workers * per
	srv, ts := newAdmitServer(t, Options{
		BatchSize: flood + 1, // the queue can never drain mid-flood
		Solver:    core.StreamMulti,
		Admission: admit.Config{Capacity: capacity},
	})
	handle, docs := askV1(t, ts.URL)
	var ok, shed, other atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				resp := doJSON(t, "POST", ts.URL+"/v1/vote",
					VoteRequest{Query: handle, Ranked: docs, BestDoc: docs[len(docs)-1]},
					map[string]string{"X-Client-ID": fmt.Sprintf("c%d", w)})
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						t.Error("429 without Retry-After")
					}
					shed.Add(1)
				default:
					other.Add(1)
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	if got := ok.Load(); got != capacity {
		t.Errorf("admitted = %d, want exactly %d", got, capacity)
	}
	if got := shed.Load(); got != flood-capacity {
		t.Errorf("shed = %d, want %d", got, flood-capacity)
	}
	if got := other.Load(); got != 0 {
		t.Errorf("%d responses were neither 200 nor 429", got)
	}
	if got := srv.stream.Pending(); got != capacity {
		t.Errorf("queue depth = %d, want %d", got, capacity)
	}
	st := srv.admit.Stats()
	if st.Admitted != capacity {
		t.Errorf("controller admitted = %d, want %d", st.Admitted, capacity)
	}
}
