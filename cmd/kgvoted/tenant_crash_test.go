package main

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"
)

// TestTenantCrashRecoveryEndToEnd SIGKILLs a multi-tenant daemon
// mid-load and requires every tenant to recover independently from its
// own WAL namespace: per-tenant counters and rankings byte-identical,
// no cross-tenant bleed, and the registry summary intact.
func TestTenantCrashRecoveryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildDaemon(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	addr := freeAddr(t)
	base := "http://" + addr
	common := []string{
		"-tenants", "alpha,beta,gamma",
		"-data-dir", dataDir, "-docs", "40", "-batch", "2",
		"-fsync", "always", "-checkpoint-every", "0",
	}
	tenants := []string{"alpha", "beta", "gamma"}

	cmd := startDaemon(t, bin, addr, common...)
	// Distinct per-tenant streams: tenant i casts i+3 votes (batch=2, so
	// alpha lands 1 flush + 1 pending, beta 2 + 0, gamma 2 + 1), while
	// the default tenant sees nothing.
	for i, id := range tenants {
		for k := 0; k < i+3; k++ {
			driveVote(t, base+"/v1/t/"+id, i+k)
		}
	}
	sigs := make(map[string]string)
	for _, id := range tenants {
		sigs[id] = rankingSignature(t, base+"/v1/t/"+id)
	}
	defSig := rankingSignature(t, base+"/v1")

	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no checkpoints, no WAL close
		t.Fatal(err)
	}
	cmd.Wait()

	addr2 := freeAddr(t)
	base2 := "http://" + addr2
	startDaemon(t, bin, addr2, common...)

	for i, id := range tenants {
		st := getStatsBody(t, base2+"/v1/t/"+id)
		wantVotes := i + 3
		wantFlushes := wantVotes / 2
		wantPending := wantVotes % 2
		if st.Serving.VotesAccepted != wantVotes || st.Serving.Flushes != wantFlushes || st.Serving.VotesPending != wantPending {
			t.Fatalf("tenant %s post-recovery stats = %+v (want %d votes, %d flushes, %d pending)",
				id, st, wantVotes, wantFlushes, wantPending)
		}
		if st.Durability == nil || st.Durability.Failed {
			t.Fatalf("tenant %s durability section = %+v", id, st.Durability)
		}
		if got := rankingSignature(t, base2+"/v1/t/"+id); got != sigs[id] {
			t.Fatalf("tenant %s post-recovery ranking differs:\n pre  %s\n post %s", id, sigs[id], got)
		}
	}
	// The default tenant saw no votes and recovers the pristine ranking.
	if st := getStatsBody(t, base2+"/v1"); st.Serving.VotesAccepted != 0 {
		t.Fatalf("default tenant votes_accepted = %d, want 0", st.Serving.VotesAccepted)
	}
	if got := rankingSignature(t, base2+"/v1"); got != defSig {
		t.Fatalf("default tenant ranking changed across crash:\n pre  %s\n post %s", defSig, got)
	}

	// The un-scoped stats carry the registry summary with every tenant
	// serving.
	resp, err := http.Get(base2 + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var full struct {
		Tenants *struct {
			Count   int `json:"count"`
			Failed  int `json:"failed"`
			Tenants []struct {
				ID    string `json:"id"`
				State string `json:"state"`
			} `json:"tenants"`
		} `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&full); err != nil {
		t.Fatal(err)
	}
	if full.Tenants == nil || full.Tenants.Count != 4 || full.Tenants.Failed != 0 {
		t.Fatalf("registry summary after recovery = %+v, want 4 serving / 0 failed", full.Tenants)
	}

	// Recovered tenants keep accepting votes independently.
	driveVote(t, base2+"/v1/t/alpha", 1)
	if st := getStatsBody(t, base2+"/v1/t/alpha"); st.Serving.VotesAccepted != 4 {
		t.Fatalf("alpha votes after recovery = %d, want 4", st.Serving.VotesAccepted)
	}
	if st := getStatsBody(t, base2+"/v1/t/beta"); st.Serving.VotesAccepted != 4 {
		t.Fatalf("beta votes unchanged = %d, want 4", st.Serving.VotesAccepted)
	}

	// Per-tenant metric labels survive recovery.
	exp := scrapeMetrics(t, base2)
	for _, id := range tenants {
		if v := mustValue(t, exp, "kgvote_server_votes_accepted_total", map[string]string{"tenant": id}); v == 0 {
			t.Fatalf("kgvote_server_votes_accepted_total{tenant=%q} = %g, want > 0", id, v)
		}
	}
}
