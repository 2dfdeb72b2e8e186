package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kgvote/internal/core"
	"kgvote/internal/durable"
	"kgvote/internal/qa"
	"kgvote/internal/wal"
)

func buildTestSystem(t *testing.T) *qa.System {
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
	return sys
}

// askAndVote drives one full ask→vote round against ts, voting for doc
// best. It returns the vote response.
func askAndVote(t *testing.T, url string, best int) VoteResponse {
	t.Helper()
	var ask AskResponse
	if code := post(t, url+"/v1/ask", AskRequest{Entities: map[string]int{"email": 2, "send": 1}}, &ask); code != http.StatusOK {
		t.Fatalf("ask = %d", code)
	}
	ranked := make([]int, len(ask.Results))
	for i, r := range ask.Results {
		ranked[i] = r.Doc
	}
	var vr VoteResponse
	if code := post(t, url+"/v1/vote", VoteRequest{Query: ask.Query, Ranked: ranked, BestDoc: best}, &vr); code != http.StatusOK {
		t.Fatalf("vote = %d", code)
	}
	return vr
}

// askSignature renders an /ask ranking as a byte-exact string (float bits
// in hex), the recovery test's equality token.
func askSignature(t *testing.T, url string) string {
	t.Helper()
	var ask AskResponse
	if code := post(t, url+"/v1/ask", AskRequest{Entities: map[string]int{"email": 2, "send": 1}}, &ask); code != http.StatusOK {
		t.Fatalf("ask = %d", code)
	}
	var sb strings.Builder
	for _, r := range ask.Results {
		fmt.Fprintf(&sb, "%d:%x ", r.Doc, r.Score)
	}
	return sb.String()
}

func getStats(t *testing.T, url string) StatsBody {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsBody
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestDurableCrashRecovery drives votes through the HTTP API with a
// durability manager attached, abandons the process state without any
// graceful shutdown (no checkpoint, no WAL close — a crash), reopens the
// data directory, and requires byte-identical rankings and counters.
func TestDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	engine := core.Options{K: 3, L: 4}

	mgr, err := durable.Open(durable.Options{Dir: dir, Fsync: wal.SyncAlways, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	sys := buildTestSystem(t)
	if err := mgr.Bootstrap(sys); err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithOptions(sys, Options{BatchSize: 2, Solver: core.StreamMulti, Durable: mgr})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	// 5 votes at batch=2: two flushes land, one vote stays pending.
	for i := 0; i < 5; i++ {
		askAndVote(t, ts.URL, i%3)
	}
	before := getStats(t, ts.URL)
	if before.Serving.VotesAccepted != 5 || before.Serving.Flushes != 2 || before.Serving.VotesPending != 1 {
		t.Fatalf("pre-crash stats = %+v", before)
	}
	if before.Durability == nil || before.Durability.FsyncPolicy != "always" {
		t.Fatalf("pre-crash durability stats = %+v", before.Durability)
	}
	sig := askSignature(t, ts.URL)
	ts.Close()
	// Crash: mgr is abandoned — no Checkpoint, no Close.

	mgr2, err := durable.Open(durable.Options{Dir: dir, Fsync: wal.SyncAlways, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	rec, err := mgr2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		t.Fatal("Recover returned nil for a populated data dir")
	}
	srv2, err := NewWithOptions(rec.Sys, Options{BatchSize: 2, Solver: core.StreamMulti, Durable: mgr2, Recovered: rec})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	after := getStats(t, ts2.URL)
	if after.Serving.VotesAccepted != 5 || after.Serving.Flushes != 2 || after.Serving.VotesPending != 1 {
		t.Fatalf("post-recovery stats = %+v (want 5 votes, 2 flushes, 1 pending)", after)
	}
	if got := askSignature(t, ts2.URL); got != sig {
		t.Fatalf("post-recovery ranking differs:\n pre  %s\n post %s", sig, got)
	}
	// The recovered server keeps serving: one more vote completes the
	// pending batch.
	vr := askAndVote(t, ts2.URL, 2)
	if !vr.Flushed {
		t.Fatalf("6th vote should complete the recovered batch, got %+v", vr)
	}
}

// TestAsyncFlushDrainsRecoveredBacklog boots an AsyncFlush server whose
// recovered pending queue is already at the batch threshold: the flusher
// must solve it without waiting for a new vote to arrive.
func TestAsyncFlushDrainsRecoveredBacklog(t *testing.T) {
	dir := t.TempDir()
	engine := core.Options{K: 3, L: 4}
	mgr, err := durable.Open(durable.Options{Dir: dir, Fsync: wal.SyncAlways, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	sys := buildTestSystem(t)
	if err := mgr.Bootstrap(sys); err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithOptions(sys, Options{BatchSize: 3, Solver: core.StreamMulti, Durable: mgr})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	// Two votes at batch 3: both stay pending. Crash.
	for i := 0; i < 2; i++ {
		askAndVote(t, ts.URL, i%3)
	}
	ts.Close()

	mgr2, err := durable.Open(durable.Options{Dir: dir, Fsync: wal.SyncAlways, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	rec, err := mgr2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	// Reopen at batch 2: the recovered backlog alone crosses the threshold.
	srv2, err := NewWithOptions(rec.Sys, Options{
		BatchSize: 2, Solver: core.StreamMulti,
		Durable: mgr2, Recovered: rec, AsyncFlush: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.flusher.stop()
	deadline := time.Now().Add(5 * time.Second)
	for srv2.flushes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flusher never drained the recovered backlog without a new vote")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv2.votesPending.Load(); got != 0 {
		t.Errorf("pending = %d after boot flush, want 0", got)
	}
}

// TestCheckpointEndpoint exercises POST /checkpoint with and without a
// durability layer.
func TestCheckpointEndpoint(t *testing.T) {
	_, plain := newTestServer(t, 1)
	if code := post(t, plain.URL+"/v1/checkpoint", struct{}{}, nil); code != http.StatusNotImplemented {
		t.Fatalf("checkpoint without data dir = %d, want 501", code)
	}

	dir := t.TempDir()
	engine := core.Options{K: 3, L: 4}
	mgr, err := durable.Open(durable.Options{Dir: dir, Fsync: wal.SyncNever, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	sys := buildTestSystem(t)
	if err := mgr.Bootstrap(sys); err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithOptions(sys, Options{BatchSize: 1, Solver: core.StreamMulti, Durable: mgr})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	askAndVote(t, ts.URL, 0)
	var out map[string]any
	if code := post(t, ts.URL+"/v1/checkpoint", struct{}{}, &out); code != http.StatusOK {
		t.Fatalf("checkpoint = %d", code)
	}
	stats := getStats(t, ts.URL)
	if stats.Durability == nil || stats.Durability.Checkpoints < 2 { // bootstrap + manual
		t.Fatalf("durability stats after checkpoint = %+v", stats.Durability)
	}
}

// TestCheckpointEvery verifies the periodic checkpoint policy fires after
// every N flushes.
func TestCheckpointEvery(t *testing.T) {
	dir := t.TempDir()
	engine := core.Options{K: 3, L: 4}
	mgr, err := durable.Open(durable.Options{Dir: dir, Fsync: wal.SyncNever, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	sys := buildTestSystem(t)
	if err := mgr.Bootstrap(sys); err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithOptions(sys, Options{BatchSize: 1, Solver: core.StreamMulti, Durable: mgr, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := 0; i < 4; i++ { // 4 flushes at batch=1 → 2 periodic checkpoints
		askAndVote(t, ts.URL, i%3)
	}
	stats := getStats(t, ts.URL)
	if stats.Durability == nil || stats.Durability.Checkpoints != 3 { // bootstrap + 2 periodic
		t.Fatalf("checkpoints = %+v, want 3 (bootstrap + 2 periodic)", stats.Durability)
	}
}

// TestPendingEvictionCounter fills a tiny pending-query table past
// capacity and checks the eviction counter surfaces in /stats and that the
// evicted handle is rejected.
func TestPendingEvictionCounter(t *testing.T) {
	sys := buildTestSystem(t)
	srv, err := NewWithOptions(sys, Options{BatchSize: 1, Solver: core.StreamMulti, PendingCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	asks := make([]AskResponse, 3)
	for i := range asks {
		if code := post(t, ts.URL+"/v1/ask", AskRequest{Entities: map[string]int{"email": 1}}, &asks[i]); code != http.StatusOK {
			t.Fatalf("ask %d = %d", i, code)
		}
	}
	stats := getStats(t, ts.URL)
	if stats.Serving.PendingEvicted != 1 {
		t.Fatalf("pending_evicted = %d, want 1 (3 asks into a 2-slot table)", stats.Serving.PendingEvicted)
	}
	// The oldest handle was evicted; voting on it must fail cleanly.
	ranked := make([]int, len(asks[0].Results))
	for i, r := range asks[0].Results {
		ranked[i] = r.Doc
	}
	if code := post(t, ts.URL+"/v1/vote", VoteRequest{Query: asks[0].Query, Ranked: ranked, BestDoc: ranked[0]}, nil); code != http.StatusBadRequest {
		t.Fatalf("vote on evicted handle = %d, want 400", code)
	}
}
