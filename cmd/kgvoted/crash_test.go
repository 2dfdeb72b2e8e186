package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildDaemon compiles the kgvoted binary once into a temp dir.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "kgvoted")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves an ephemeral localhost port and releases it for the
// daemon to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startDaemon launches kgvoted and waits until /v1/healthz answers.
func startDaemon(t *testing.T, bin, addr string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	var logBuf bytes.Buffer
	cmd.Stdout = &logBuf
	cmd.Stderr = &logBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		if cmd.ProcessState != nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("daemon never became healthy; log:\n%s", logBuf.String())
	return nil
}

func postJSON(t *testing.T, url string, body any, out any) int {
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
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// askBody mirrors server.AskResponse closely enough for the test.
type askBody struct {
	Query   int `json:"query"`
	Results []struct {
		Doc   int     `json:"doc"`
		Score float64 `json:"score"`
	} `json:"results"`
}

func driveVote(t *testing.T, base string, best int) {
	t.Helper()
	var ask askBody
	if code := postJSON(t, base+"/ask", map[string]any{"entities": map[string]int{"t00e00": 2, "t00e01": 1}}, &ask); code != http.StatusOK {
		t.Fatalf("ask = %d", code)
	}
	ranked := make([]int, len(ask.Results))
	for i, r := range ask.Results {
		ranked[i] = r.Doc
	}
	if code := postJSON(t, base+"/vote", map[string]any{
		"query": ask.Query, "ranked": ranked, "best_doc": ranked[best%len(ranked)],
	}, nil); code != http.StatusOK {
		t.Fatalf("vote = %d", code)
	}
}

// rankingSignature captures a ranking byte-exactly (float bits in hex).
func rankingSignature(t *testing.T, base string) string {
	t.Helper()
	var ask askBody
	if code := postJSON(t, base+"/ask", map[string]any{"entities": map[string]int{"t00e00": 2, "t00e01": 1}}, &ask); code != http.StatusOK {
		t.Fatalf("ask = %d", code)
	}
	var sb strings.Builder
	for _, r := range ask.Results {
		fmt.Fprintf(&sb, "%d:%x ", r.Doc, r.Score)
	}
	return sb.String()
}

type statsBody struct {
	Serving struct {
		VotesAccepted int `json:"votes_accepted"`
		VotesPending  int `json:"votes_pending"`
		Flushes       int `json:"flushes"`
	} `json:"serving"`
	Durability *struct {
		ReplayedRecords int  `json:"replayed_records"`
		Failed          bool `json:"failed"`
	} `json:"durability"`
}

func getStatsBody(t *testing.T, base string) statsBody {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsBody
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCrashRecoveryEndToEnd drives the real daemon over HTTP, SIGKILLs it
// with votes in flight (no graceful shutdown of any kind), restarts it on
// the same data directory, and requires byte-identical rankings and
// counters — the durability subsystem's headline guarantee.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildDaemon(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	addr := freeAddr(t)
	base := "http://" + addr
	common := []string{"-data-dir", dataDir, "-docs", "40", "-batch", "2", "-fsync", "always", "-checkpoint-every", "0"}

	cmd := startDaemon(t, bin, addr, common...)
	for i := 0; i < 5; i++ { // batch=2: two flushes land, one vote pending
		driveVote(t, base+"/v1", i)
	}
	before := getStatsBody(t, base+"/v1")
	if before.Serving.VotesAccepted != 5 || before.Serving.Flushes != 2 || before.Serving.VotesPending != 1 {
		t.Fatalf("pre-crash stats = %+v", before)
	}
	sig := rankingSignature(t, base+"/v1")

	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no checkpoint, no WAL close
		t.Fatal(err)
	}
	cmd.Wait()

	addr2 := freeAddr(t)
	base2 := "http://" + addr2
	startDaemon(t, bin, addr2, common...)
	after := getStatsBody(t, base2+"/v1")
	if after.Serving.VotesAccepted != 5 || after.Serving.Flushes != 2 || after.Serving.VotesPending != 1 {
		t.Fatalf("post-recovery stats = %+v (want 5 votes, 2 flushes, 1 pending)", after)
	}
	if after.Durability == nil || after.Durability.ReplayedRecords == 0 {
		t.Fatalf("recovery did not replay the WAL tail: %+v", after.Durability)
	}
	if got := rankingSignature(t, base2+"/v1"); got != sig {
		t.Fatalf("post-recovery ranking differs:\n pre  %s\n post %s", sig, got)
	}
	// Telemetry must come back sane: the scrape passes the exposition
	// checker, the recovery gauge reports the replayed WAL tail, and the
	// counter mirrors carry the recovered totals rather than zeros.
	exp := scrapeMetrics(t, base2)
	if v := mustValue(t, exp, "kgvote_durable_replayed_records", nil); v == 0 {
		t.Fatalf("kgvote_durable_replayed_records = %g, want > 0 after crash recovery", v)
	}
	if v := mustValue(t, exp, "kgvote_server_votes_accepted_total", nil); v != 5 {
		t.Fatalf("recovered votes_accepted metric = %g, want 5", v)
	}
	if v := mustValue(t, exp, "kgvote_server_flushes_total", nil); v != 2 {
		t.Fatalf("recovered flushes metric = %g, want 2", v)
	}
	if v := mustValue(t, exp, "kgvote_core_epoch", nil); v == 0 {
		t.Fatalf("kgvote_core_epoch = %g, want > 0 after recovery rebuilt the snapshot", v)
	}
	// The recovered daemon keeps accepting votes, and the metric follows.
	driveVote(t, base2+"/v1", 1)
	final := getStatsBody(t, base2+"/v1")
	if final.Serving.VotesAccepted != 6 {
		t.Fatalf("vote after recovery not counted: %+v", final)
	}
	if v := mustValue(t, scrapeMetrics(t, base2), "kgvote_server_votes_accepted_total", nil); v != 6 {
		t.Fatalf("votes_accepted metric after post-recovery vote = %g, want 6", v)
	}
}

// TestGracefulShutdownCheckpoints verifies SIGTERM takes a shutdown
// checkpoint: the restart must recover without replaying any vote records
// (everything is inside the checkpoint).
func TestGracefulShutdownCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildDaemon(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	addr := freeAddr(t)
	base := "http://" + addr
	common := []string{"-data-dir", dataDir, "-docs", "40", "-batch", "2", "-fsync", "always"}

	cmd := startDaemon(t, bin, addr, common...)
	for i := 0; i < 4; i++ {
		driveVote(t, base+"/v1", i)
	}
	sig := rankingSignature(t, base+"/v1")
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited uncleanly after SIGINT: %v", err)
	}

	addr2 := freeAddr(t)
	base2 := "http://" + addr2
	startDaemon(t, bin, addr2, common...)
	after := getStatsBody(t, base2+"/v1")
	if after.Serving.VotesAccepted != 4 || after.Serving.Flushes != 2 {
		t.Fatalf("post-restart stats = %+v (want 4 votes, 2 flushes)", after)
	}
	if got := rankingSignature(t, base2+"/v1"); got != sig {
		t.Fatalf("post-restart ranking differs:\n pre  %s\n post %s", sig, got)
	}
}
