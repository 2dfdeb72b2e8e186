package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"kgvote/api"
	"kgvote/internal/shard"
)

// buildBinary compiles one command of this module into dir.
func buildBinary(t *testing.T, dir, name, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	out, err := execCommand("go", "build", "-o", bin, pkg)
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

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

// startProc launches a binary and waits for healthPath to answer 200.
func startProc(t *testing.T, bin, addr, healthPath string, args ...string) *managedProc {
	t.Helper()
	p, err := launch(bin, append([]string{"-addr", addr}, args...))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.stop)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + healthPath)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p
			}
		}
		if p.exited() {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s never became healthy; log:\n%s", bin, p.log())
	return nil
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func askRouter(t *testing.T, base string) (api.AskResponse, *http.Response) {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/ask", map[string]any{
		"entities": map[string]int{"t00e00": 2, "t00e01": 1},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ask = %d: %s", resp.StatusCode, body)
	}
	var ask api.AskResponse
	if err := json.Unmarshal(body, &ask); err != nil {
		t.Fatalf("decode ask: %v", err)
	}
	return ask, resp
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestClusterEndToEnd stands up the real binaries — three kgvoted shard
// writers with peer replication, one snapshot replica following shard 0,
// and a kgrouter in front — then drives asks and votes through the
// router, SIGKILLs one shard writer mid-load, and requires the router to
// degrade to partial answers while the survivors keep serving. The
// killed shard is restarted on its data directory and must recover its
// votes from the WAL and rejoin the fan-out (X-KG-Shards-Answered back
// to "3/3").
func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	binDir := t.TempDir()
	voted := buildBinary(t, binDir, "kgvoted", "kgvote/cmd/kgvoted")
	router := buildBinary(t, binDir, "kgrouter", "kgvote/cmd/kgrouter")

	tmp := t.TempDir()
	mapPath := filepath.Join(tmp, "cluster.map")
	const shards = 3

	addrs := make([]string, shards)
	for i := range addrs {
		addrs[i] = freeAddr(t)
	}
	peersOf := func(i int) string {
		var s string
		for j, a := range addrs {
			if j == i {
				continue
			}
			if s != "" {
				s += ","
			}
			s += a
		}
		return s
	}
	shardArgs := func(i int) []string {
		return []string{
			"-docs", "48", "-seed", "7", "-batch", "1", "-k", "48",
			"-fsync", "always",
			"-data-dir", filepath.Join(tmp, fmt.Sprintf("shard%d", i)),
			"-shard-map", mapPath, "-shard-index", fmt.Sprint(i),
			"-shard-init", fmt.Sprint(shards),
			"-peers", peersOf(i),
		}
	}

	procs := make([]*managedProc, shards)
	// Start shard 0 first so the map file exists before the others race
	// to load it.
	procs[0] = startProc(t, voted, addrs[0], "/v1/healthz", shardArgs(0)...)
	for i := 1; i < shards; i++ {
		procs[i] = startProc(t, voted, addrs[i], "/v1/healthz", shardArgs(i)...)
	}

	smap, err := shard.LoadFile(mapPath)
	if err != nil {
		t.Fatalf("load shard map: %v", err)
	}

	replicaAddr := freeAddr(t)
	startProc(t, voted, replicaAddr, "/v1/healthz",
		"-docs", "48", "-seed", "7", "-k", "48",
		"-shard-map", mapPath, "-shard-index", "0",
		"-follow", addrs[0], "-follow-every", "100ms")

	routerAddr := freeAddr(t)
	base := "http://" + routerAddr
	startProc(t, router, routerAddr, "/v1/healthz",
		"-map", mapPath,
		"-shards", addrs[0]+","+addrs[1]+","+addrs[2],
		"-replicas", "0="+replicaAddr,
		"-k", "48", "-probe-every", "200ms", "-hedge-after", "50ms",
		// A batch-1 vote flushes (an SGP solve) inside the routed request;
		// on a loaded two-core box that has outlasted the default 5s
		// fan-out deadline and failed the vote as "writer unreachable".
		"-timeout", "30s")

	// Healthy cluster: asks merge all three shards.
	ask, resp := askRouter(t, base)
	if ask.Partial || ask.ShardsAnswered != shards || ask.ShardsTotal != shards {
		t.Fatalf("healthy ask degraded: partial=%v %d/%d", ask.Partial, ask.ShardsAnswered, ask.ShardsTotal)
	}
	if got := resp.Header.Get("X-KG-Shards-Answered"); got != "3/3" {
		t.Fatalf("X-KG-Shards-Answered = %q, want 3/3", got)
	}
	if len(ask.Results) != 48 {
		t.Fatalf("merged ask returned %d docs, want all 48", len(ask.Results))
	}

	// Vote one owned document per shard through the router, so every
	// writer flushes at least once and replication traffic flows.
	ranked := make([]int, len(ask.Results))
	for i, r := range ask.Results {
		ranked[i] = r.Doc
	}
	votesPerShard := make([]int, shards)
	for target := 0; target < shards; target++ {
		best := -1
		for _, d := range ranked {
			if smap.Owner(d) == target && d != ranked[0] {
				best = d
				break
			}
		}
		if best < 0 {
			t.Fatalf("no ranked doc owned by shard %d", target)
		}
		a, _ := askRouter(t, base)
		r := make([]int, len(a.Results))
		for i, res := range a.Results {
			r[i] = res.Doc
		}
		vresp, vbody := postJSON(t, base+"/v1/vote", map[string]any{
			"query": a.Query, "ranked": r, "best_doc": best,
		})
		if vresp.StatusCode != http.StatusOK {
			t.Fatalf("vote for shard %d's doc %d = %d: %s", target, best, vresp.StatusCode, vbody)
		}
		var vr api.VoteResponse
		if err := json.Unmarshal(vbody, &vr); err != nil {
			t.Fatal(err)
		}
		if !vr.Flushed {
			t.Fatalf("vote for shard %d did not flush (batch=1): %s", target, vbody)
		}
		votesPerShard[target]++
	}

	// The replica follows shard 0's snapshots; wait until it has caught
	// up past the flush the vote produced.
	waitFor(t, "replica sync", 15*time.Second, func() error {
		var st api.StatsBody
		getJSON(t, "http://"+replicaAddr+"/v1/stats", &st)
		if st.Replica == nil || st.Replica.Epoch < 2 {
			return fmt.Errorf("replica stats: %+v", st.Replica)
		}
		return nil
	})

	// SIGKILL shard 1's writer: no replica covers it, so the router must
	// degrade to partial answers from the survivors.
	killedVotes := votesPerShard[1]
	procs[1].kill()
	waitFor(t, "partial degradation", 15*time.Second, func() error {
		a, resp := askRouter(t, base)
		if !a.Partial || a.ShardsAnswered != shards-1 {
			return fmt.Errorf("partial=%v %d/%d", a.Partial, a.ShardsAnswered, a.ShardsTotal)
		}
		if got := resp.Header.Get("X-KG-Shards-Answered"); got != "2/3" {
			return fmt.Errorf("header %q", got)
		}
		if len(a.Results) == 0 {
			return fmt.Errorf("no results while degraded")
		}
		return nil
	})

	// Votes for documents the survivors own still land.
	a, _ := askRouter(t, base)
	r := make([]int, len(a.Results))
	liveBest := -1
	for i, res := range a.Results {
		r[i] = res.Doc
		if liveBest < 0 && smap.Owner(res.Doc) == 2 {
			liveBest = res.Doc
		}
	}
	if liveBest < 0 {
		t.Fatal("no surviving-shard doc in degraded results")
	}
	if vresp, vbody := postJSON(t, base+"/v1/vote", map[string]any{
		"query": a.Query, "ranked": r, "best_doc": liveBest,
	}); vresp.StatusCode != http.StatusOK {
		t.Fatalf("vote while degraded = %d: %s", vresp.StatusCode, vbody)
	}

	// Restart the killed writer on the same data directory and address:
	// it must recover its votes from the WAL and rejoin the fan-out.
	procs[1] = startProc(t, voted, addrs[1], "/v1/healthz", shardArgs(1)...)
	var st api.StatsBody
	getJSON(t, "http://"+addrs[1]+"/v1/stats", &st)
	if st.Serving.VotesAccepted != killedVotes {
		t.Fatalf("recovered shard 1 has %d votes, want %d (WAL replay)", st.Serving.VotesAccepted, killedVotes)
	}
	if st.Shard == nil || st.Shard.Index != 1 {
		t.Fatalf("recovered shard stats missing shard section: %+v", st.Shard)
	}
	waitFor(t, "shard rejoin", 15*time.Second, func() error {
		a, resp := askRouter(t, base)
		if a.Partial || a.ShardsAnswered != shards {
			return fmt.Errorf("partial=%v %d/%d", a.Partial, a.ShardsAnswered, a.ShardsTotal)
		}
		if got := resp.Header.Get("X-KG-Shards-Answered"); got != "3/3" {
			return fmt.Errorf("header %q", got)
		}
		return nil
	})
}

func waitFor(t *testing.T, what string, d time.Duration, f func() error) {
	t.Helper()
	deadline := time.Now().Add(d)
	var last error
	for time.Now().Before(deadline) {
		if last = f(); last == nil {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("%s never happened: %v", what, last)
}
