package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// tryVote drives one ask→vote round without failing the test: during a
// drain the daemon legitimately answers 503 (or drops the connection as
// the listener closes), and the flood test only needs to know whether
// this particular vote was ADMITTED (200) or not.
func tryVote(base string) (int, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	b, _ := json.Marshal(map[string]any{"entities": map[string]int{"t00e00": 2, "t00e01": 1}})
	resp, err := client.Post(base+"/v1/ask", "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	var ask askBody
	derr := json.NewDecoder(resp.Body).Decode(&ask)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("ask = %d", resp.StatusCode)
	}
	if derr != nil || len(ask.Results) == 0 {
		return 0, fmt.Errorf("ask decode: %v", derr)
	}
	ranked := make([]int, len(ask.Results))
	for i, r := range ask.Results {
		ranked[i] = r.Doc
	}
	b, _ = json.Marshal(map[string]any{"query": ask.Query, "ranked": ranked, "best_doc": ranked[0]})
	resp, err = client.Post(base+"/v1/vote", "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// TestDrainFlushesPendingAndCheckpoints: SIGTERM with a partial batch
// queued must flush that remainder and checkpoint before exit, so the
// restarted daemon recovers every vote from the checkpoint alone — no
// WAL tail to replay, nothing pending.
func TestDrainFlushesPendingAndCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildDaemon(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	addr := freeAddr(t)
	base := "http://" + addr
	// batch=100: nothing flushes while serving; the drain owns the solve.
	common := []string{"-data-dir", dataDir, "-docs", "40", "-batch", "100",
		"-fsync", "always", "-checkpoint-every", "0", "-queue-cap", "64"}

	cmd := startDaemon(t, bin, addr, common...)
	for i := 0; i < 5; i++ {
		driveVote(t, base+"/v1", i)
	}
	before := getStatsBody(t, base+"/v1")
	if before.Serving.VotesAccepted != 5 || before.Serving.VotesPending != 5 || before.Serving.Flushes != 0 {
		t.Fatalf("pre-drain stats = %+v", before)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited uncleanly after SIGTERM: %v", err)
	}

	addr2 := freeAddr(t)
	startDaemon(t, bin, addr2, common...)
	after := getStatsBody(t, "http://"+addr2+"/v1")
	if after.Serving.VotesAccepted != 5 || after.Serving.Flushes != 1 || after.Serving.VotesPending != 0 {
		t.Fatalf("post-restart stats = %+v (want 5 votes, 1 flush from the drain, 0 pending)", after)
	}
	// The only record past the drain checkpoint's barrier is its own
	// RecCheckpoint marker; any more means votes leaked past the drain.
	if after.Durability == nil || after.Durability.ReplayedRecords > 1 {
		t.Fatalf("drain checkpoint missing: restart replayed WAL records: %+v", after.Durability)
	}
}

// TestDrainLosesNoAdmittedVotes SIGTERMs the daemon while concurrent
// clients are still voting, then restarts it and requires the recovered
// vote count to equal the number of 200s the clients observed: every
// admitted vote survives the drain, every shed or refused vote was told
// so. This is the overload-safe serving contract end to end.
func TestDrainLosesNoAdmittedVotes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildDaemon(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	addr := freeAddr(t)
	base := "http://" + addr
	common := []string{"-data-dir", dataDir, "-docs", "40", "-batch", "3",
		"-fsync", "always", "-checkpoint-every", "0", "-queue-cap", "32"}

	cmd := startDaemon(t, bin, addr, common...)
	for i := 0; i < 4; i++ { // a few guaranteed-admitted votes before the storm
		driveVote(t, base+"/v1", i)
	}
	var (
		admitted atomic.Int64
		wg       sync.WaitGroup
	)
	admitted.Store(4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				code, err := tryVote(base)
				if err == nil && code == http.StatusOK {
					admitted.Add(1)
				}
				if code == http.StatusServiceUnavailable {
					return // draining: no further vote will be admitted
				}
			}
		}()
	}
	time.Sleep(30 * time.Millisecond) // let some of the storm land mid-flight
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited uncleanly after SIGTERM under load: %v", err)
	}

	addr2 := freeAddr(t)
	startDaemon(t, bin, addr2, common...)
	after := getStatsBody(t, "http://"+addr2+"/v1")
	want := int(admitted.Load())
	if after.Serving.VotesAccepted != want {
		t.Fatalf("recovered votes_accepted = %d, want %d (every 200 must survive the drain)",
			after.Serving.VotesAccepted, want)
	}
	if after.Serving.VotesPending != 0 {
		t.Fatalf("restart found %d pending votes; the drain should have flushed them", after.Serving.VotesPending)
	}
	if after.Durability != nil && after.Durability.Failed {
		t.Fatalf("durability poisoned after drain: %+v", after.Durability)
	}
}
