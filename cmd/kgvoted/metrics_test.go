package main

import (
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"kgvote/internal/telemetry"
)

// scrapeMetrics GETs /metrics and runs the scrape through the package's
// own strict checker (parse + histogram invariants), returning the
// parsed exposition. This is also the body of `make metrics-smoke`.
func scrapeMetrics(t *testing.T, base string) *telemetry.Exposition {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("content type = %q, want %q", ct, telemetry.ContentType)
	}
	exp, err := telemetry.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("scrape failed the exposition parser: %v", err)
	}
	if err := exp.CheckHistograms(); err != nil {
		t.Fatalf("scrape failed histogram invariants: %v", err)
	}
	return exp
}

// mustValue reads an exact series from a scrape or fails.
func mustValue(t *testing.T, exp *telemetry.Exposition, name string, labels map[string]string) float64 {
	t.Helper()
	v, ok := exp.Value(name, labels)
	if !ok {
		t.Fatalf("series %s%v missing from scrape", name, labels)
	}
	return v
}

// TestMetricsEndToEnd boots the real binary with durability on, drives
// /ask + /vote + /flush traffic, and scrapes /metrics twice: the first
// scrape must carry valid series from every instrumented subsystem, and
// the second must show every counter monotonically advanced by exactly
// the traffic driven in between.
func TestMetricsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildDaemon(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	addr := freeAddr(t)
	base := "http://" + addr
	startDaemon(t, bin, addr,
		"-data-dir", dataDir, "-docs", "40", "-batch", "2", "-fsync", "always", "-slow-ms", "0")

	for i := 0; i < 3; i++ { // batch=2: one flush lands, one vote pending
		driveVote(t, base+"/v1", i)
	}
	if code := postJSON(t, base+"/v1/flush", map[string]any{}, nil); code != http.StatusOK {
		t.Fatalf("flush = %d", code)
	}

	first := scrapeMetrics(t, base)

	// The acceptance bar: ≥ 12 distinct families spanning all layers.
	fams := first.Families()
	if len(fams) < 12 {
		t.Fatalf("only %d metric families: %v", len(fams), fams)
	}
	for _, prefix := range []string{"kgvote_server_", "kgvote_qa_", "kgvote_core_", "kgvote_wal_", "kgvote_durable_"} {
		found := false
		for _, f := range fams {
			if strings.HasPrefix(f, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no %s* family in scrape; families: %v", prefix, fams)
		}
	}

	askRoute := map[string]string{"route": "/ask"}
	voteRoute := map[string]string{"route": "/vote"}
	if v := mustValue(t, first, "kgvote_server_requests_total", askRoute); v != 3 {
		t.Fatalf("ask requests = %g, want 3", v)
	}
	if v := mustValue(t, first, "kgvote_server_requests_total", voteRoute); v != 3 {
		t.Fatalf("vote requests = %g, want 3", v)
	}
	if v := mustValue(t, first, "kgvote_server_votes_accepted_total", nil); v != 3 {
		t.Fatalf("votes accepted = %g, want 3", v)
	}
	if v := mustValue(t, first, "kgvote_core_flushes_total", nil); v != 2 {
		t.Fatalf("flushes = %g, want 2 (one batch, one manual)", v)
	}
	if v := mustValue(t, first, "kgvote_wal_records_total", nil); v <= 0 {
		t.Fatalf("wal records = %g, want > 0 with durability on", v)
	}
	if v := mustValue(t, first, "kgvote_wal_fsync_seconds_count", nil); v <= 0 {
		t.Fatalf("wal fsyncs = %g, want > 0 under -fsync always", v)
	}
	// Latency histograms must have observed real time: a request takes
	// nonzero wall clock, so sum > 0 whenever count > 0.
	if c := mustValue(t, first, "kgvote_server_request_seconds_count", askRoute); c != 3 {
		t.Fatalf("ask latency count = %g, want 3", c)
	}
	if s := mustValue(t, first, "kgvote_server_request_seconds_sum", askRoute); s <= 0 {
		t.Fatalf("ask latency sum = %g, want > 0", s)
	}

	// More traffic, then the second scrape: counters move up by exactly
	// the delta driven.
	for i := 0; i < 2; i++ {
		driveVote(t, base+"/v1", i)
	}
	second := scrapeMetrics(t, base)

	monotonic := []struct {
		name   string
		labels map[string]string
		delta  float64
	}{
		{"kgvote_server_requests_total", askRoute, 2},
		{"kgvote_server_requests_total", voteRoute, 2},
		{"kgvote_server_votes_accepted_total", nil, 2},
		{"kgvote_server_request_seconds_count", askRoute, 2},
		{"kgvote_qa_ask_seconds_count", nil, 2},
	}
	for _, m := range monotonic {
		v1 := mustValue(t, first, m.name, m.labels)
		v2 := mustValue(t, second, m.name, m.labels)
		if v2 < v1 {
			t.Fatalf("%s%v went backwards: %g -> %g", m.name, m.labels, v1, v2)
		}
		if v2 != v1+m.delta {
			t.Fatalf("%s%v = %g -> %g, want +%g", m.name, m.labels, v1, v2, m.delta)
		}
	}
	w1 := mustValue(t, first, "kgvote_wal_records_total", nil)
	w2 := mustValue(t, second, "kgvote_wal_records_total", nil)
	if w2 <= w1 {
		t.Fatalf("wal records did not advance: %g -> %g", w1, w2)
	}
	s1 := mustValue(t, first, "kgvote_server_request_seconds_sum", askRoute)
	s2 := mustValue(t, second, "kgvote_server_request_seconds_sum", askRoute)
	if s2 <= s1 {
		t.Fatalf("latency sum did not grow with count: %g -> %g", s1, s2)
	}
}

// TestMetricsDisabled: -metrics=false must 404 the scrape endpoint but
// leave the API fully functional.
func TestMetricsDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildDaemon(t)
	addr := freeAddr(t)
	base := "http://" + addr
	startDaemon(t, bin, addr, "-docs", "40", "-metrics=false")

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics with -metrics=false = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ with -metrics=false = %d, want 404", resp.StatusCode)
	}
	driveVote(t, base+"/v1", 0) // API still works
}
