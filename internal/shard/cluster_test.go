package shard_test

// In-process cluster tests: N shard servers with real HTTP plumbing
// (httptest), flush replication via the real Pusher, a real Router in
// front — compared bit-for-bit against a single-process oracle server
// fed the identical ask/vote sequence. This is the determinism contract
// of DESIGN.md §14: sharding is a latency/throughput decision, never a
// results decision.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"kgvote/api"
	"kgvote/internal/core"
	"kgvote/internal/qa"
	"kgvote/internal/server"
	"kgvote/internal/shard"
	"kgvote/internal/synth"
)

func testOptions() core.Options { return core.Options{K: 10, L: 4} }

func buildSystem(t *testing.T, corpus *qa.Corpus) *qa.System {
	t.Helper()
	sys, err := qa.Build(corpus, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func postJSON(t *testing.T, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getStats(t *testing.T, base string) api.StatsBody {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatalf("GET %s/v1/stats: %v", base, err)
	}
	defer resp.Body.Close()
	var body api.StatsBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body
}

// testCluster is N sharded writers + pushers + a router, all in-process.
type testCluster struct {
	smap    *shard.Map
	servers []*server.Server
	https   []*httptest.Server
	pushers []*shard.Pusher
	router  *shard.Router
	rhttp   *httptest.Server
}

func newTestCluster(t *testing.T, corpus *qa.Corpus, n int) *testCluster {
	t.Helper()
	smap, err := shard.NewMap(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{smap: smap}
	cfgs := make([]*server.ShardConfig, n)
	for i := 0; i < n; i++ {
		cfgs[i] = &server.ShardConfig{Map: smap, Index: i}
		srv, err := server.NewWithOptions(buildSystem(t, corpus), server.Options{
			BatchSize: 1,
			Solver:    core.StreamSingle,
			Shard:     cfgs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.servers = append(tc.servers, srv)
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		tc.https = append(tc.https, hs)
	}
	for i := 0; i < n; i++ {
		var peers []string
		for j := 0; j < n; j++ {
			if j != i {
				peers = append(peers, tc.https[j].URL)
			}
		}
		srv := tc.servers[i]
		pusher, err := shard.NewPusher(shard.PusherOptions{
			Source:       i,
			Peers:        peers,
			Export:       srv.ExportReplicated,
			RetryBackoff: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(pusher.Close)
		tc.pushers = append(tc.pushers, pusher)
		// OnFlush is late-bound: the pusher needs the server's export
		// hook, the server's config needs the pusher's publish hook.
		cfgs[i].OnFlush = pusher.Publish
	}
	eps := make([]shard.ShardEndpoints, n)
	for i := 0; i < n; i++ {
		eps[i] = shard.ShardEndpoints{Writer: tc.https[i].URL}
	}
	rt, err := shard.NewRouter(shard.RouterOptions{
		Map:    smap,
		Shards: eps,
		TopK:   testOptions().K,
		// Routed votes flush inside the request; the default 5s deadline
		// is too tight for a solve on a loaded box.
		Timeout:    30 * time.Second,
		HedgeAfter: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	tc.router = rt
	tc.rhttp = httptest.NewServer(rt.Handler())
	t.Cleanup(tc.rhttp.Close)
	return tc
}

// waitReplicated polls every non-owner shard until it has applied the
// owner's replication stream up to wantSeq.
func (tc *testCluster) waitReplicated(t *testing.T, owner int, wantSeq uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for i := range tc.servers {
		if i == owner {
			continue
		}
		for {
			st := getStats(t, tc.https[i].URL)
			if st.Shard != nil && st.Shard.RemoteSeqs[uint32(owner)] >= wantSeq {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d never applied shard %d's push seq %d (stats: %+v)", i, owner, wantSeq, st.Shard)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func sameResults(a, b []api.AskResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Doc != b[i].Doc || a[i].Title != b[i].Title ||
			math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// TestClusterMatchesOracle is the golden determinism test: for N in
// {1,2,4}, a routed cluster fed an interleaved ask/vote stream returns,
// after every replication convergence, rankings bit-identical to a
// single-process server fed the same stream.
func TestClusterMatchesOracle(t *testing.T) {
	corpus, err := synth.GenerateCorpus(synth.CorpusConfig{Docs: 48, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	questions, err := synth.GenerateQuestions(corpus, synth.QuestionConfig{N: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			oracle, err := server.NewWithOptions(buildSystem(t, corpus), server.Options{
				BatchSize: 1,
				Solver:    core.StreamSingle,
			})
			if err != nil {
				t.Fatal(err)
			}
			oh := httptest.NewServer(oracle.Handler())
			t.Cleanup(oh.Close)
			tc := newTestCluster(t, corpus, n)

			flushSeq := make(map[int]uint64) // shard -> flush count
			votes := 0
			for qi, q := range questions {
				askReq := api.AskRequest{Entities: q.Entities}
				var oresp, rresp api.AskResponse
				if st := postJSON(t, oh.URL+"/v1/ask", askReq, &oresp); st != http.StatusOK {
					t.Fatalf("oracle ask: http %d", st)
				}
				if st := postJSON(t, tc.rhttp.URL+"/v1/ask", askReq, &rresp); st != http.StatusOK {
					t.Fatalf("router ask: http %d", st)
				}
				if rresp.Partial || rresp.ShardsAnswered != n {
					t.Fatalf("router ask degraded with all shards up: %+v", rresp)
				}
				if !sameResults(oresp.Results, rresp.Results) {
					t.Fatalf("question %d: merged ranking diverged from oracle\noracle: %+v\nrouter: %+v",
						qi, oresp.Results, rresp.Results)
				}
				if len(oresp.Results) < 2 {
					continue
				}
				// Vote the second-ranked document to the top: the vote
				// actually moves weights, unlike confirming rank 1.
				ranked := make([]int, len(oresp.Results))
				for i, r := range oresp.Results {
					ranked[i] = r.Doc
				}
				best := ranked[1]
				voteReq := api.VoteRequest{Ranked: ranked, BestDoc: best}
				var ovr, rvr api.VoteResponse
				ov := voteReq
				ov.Query = oresp.Query
				if st := postJSON(t, oh.URL+"/v1/vote", ov, &ovr); st != http.StatusOK {
					t.Fatalf("oracle vote: http %d", st)
				}
				rv := voteReq
				rv.Query = rresp.Query
				if st := postJSON(t, tc.rhttp.URL+"/v1/vote", rv, &rvr); st != http.StatusOK {
					t.Fatalf("router vote: http %d", st)
				}
				if !ovr.Flushed || !rvr.Flushed {
					t.Fatalf("batch=1 vote did not flush (oracle %v, routed %v)", ovr.Flushed, rvr.Flushed)
				}
				votes++
				owner := tc.smap.Owner(best)
				flushSeq[owner]++
				tc.waitReplicated(t, owner, flushSeq[owner])
			}
			if votes == 0 {
				t.Fatal("workload produced no votes")
			}
			// Final sweep: every question must still rank identically.
			for qi, q := range questions {
				var oresp, rresp api.AskResponse
				postJSON(t, oh.URL+"/v1/ask", api.AskRequest{Entities: q.Entities}, &oresp)
				postJSON(t, tc.rhttp.URL+"/v1/ask", api.AskRequest{Entities: q.Entities}, &rresp)
				if !sameResults(oresp.Results, rresp.Results) {
					t.Fatalf("post-vote question %d: merged ranking diverged from oracle\noracle: %+v\nrouter: %+v",
						qi, oresp.Results, rresp.Results)
				}
			}
		})
	}
}

// TestClusterBatchAskMatchesOracle checks the fanned /v1/askbatch merge
// against the oracle's batch surface.
func TestClusterBatchAskMatchesOracle(t *testing.T) {
	corpus, err := synth.GenerateCorpus(synth.CorpusConfig{Docs: 36, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	questions, err := synth.GenerateQuestions(corpus, synth.QuestionConfig{N: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := server.NewWithOptions(buildSystem(t, corpus), server.Options{BatchSize: 1, Solver: core.StreamSingle})
	if err != nil {
		t.Fatal(err)
	}
	oh := httptest.NewServer(oracle.Handler())
	t.Cleanup(oh.Close)
	tc := newTestCluster(t, corpus, 3)
	req := api.AskBatchRequest{}
	for _, q := range questions {
		req.Questions = append(req.Questions, api.AskRequest{Entities: q.Entities})
	}
	var ob, rb api.AskBatchResponse
	if st := postJSON(t, oh.URL+"/v1/askbatch", req, &ob); st != http.StatusOK {
		t.Fatalf("oracle askbatch: http %d", st)
	}
	if st := postJSON(t, tc.rhttp.URL+"/v1/askbatch", req, &rb); st != http.StatusOK {
		t.Fatalf("router askbatch: http %d", st)
	}
	if rb.Partial || rb.ShardsAnswered != 3 {
		t.Fatalf("batch degraded with all shards up: %+v", rb)
	}
	if len(rb.Results) != len(ob.Results) {
		t.Fatalf("batch sizes differ: %d vs %d", len(rb.Results), len(ob.Results))
	}
	for i := range ob.Results {
		if !sameResults(ob.Results[i], rb.Results[i]) {
			t.Fatalf("batch question %d diverged\noracle: %+v\nrouter: %+v", i, ob.Results[i], rb.Results[i])
		}
	}
}

// TestRouterPartialDegradation kills one shard and expects the router to
// keep answering with Partial set and the X-KG-Shards-Answered header.
func TestRouterPartialDegradation(t *testing.T) {
	corpus, err := synth.GenerateCorpus(synth.CorpusConfig{Docs: 36, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tc := newTestCluster(t, corpus, 3)
	// Use a question every shard can answer: entity maps are corpus-wide.
	questions, err := synth.GenerateQuestions(corpus, synth.QuestionConfig{N: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	askReq := api.AskRequest{Entities: questions[0].Entities}
	var full api.AskResponse
	if st := postJSON(t, tc.rhttp.URL+"/v1/ask", askReq, &full); st != http.StatusOK {
		t.Fatalf("ask with all shards up: http %d", st)
	}
	if full.Partial {
		t.Fatalf("healthy cluster answered partial: %+v", full)
	}
	tc.https[1].Close() // SIGKILL stand-in: connections refuse instantly
	body, _ := json.Marshal(askReq)
	resp, err := http.Post(tc.rhttp.URL+"/v1/ask", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded ask: http %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-KG-Shards-Answered"); got != "2/3" {
		t.Fatalf("X-KG-Shards-Answered = %q, want 2/3", got)
	}
	var degraded api.AskResponse
	if err := json.NewDecoder(resp.Body).Decode(&degraded); err != nil {
		t.Fatal(err)
	}
	if !degraded.Partial || degraded.ShardsAnswered != 2 || degraded.ShardsTotal != 3 {
		t.Fatalf("degraded response: %+v", degraded)
	}
	if len(degraded.Results) == 0 {
		t.Fatal("degraded response carried no results from the surviving shards")
	}
	// Votes for documents owned by live shards must still land.
	for _, r := range degraded.Results {
		if tc.smap.Owner(r.Doc) != 1 {
			var vr api.VoteResponse
			ranked := []int{degraded.Results[0].Doc, r.Doc}
			if ranked[0] == r.Doc && len(degraded.Results) > 1 {
				ranked = []int{degraded.Results[1].Doc, r.Doc}
			}
			st := postJSON(t, tc.rhttp.URL+"/v1/vote",
				api.VoteRequest{Query: degraded.Query, Ranked: ranked, BestDoc: r.Doc}, &vr)
			if st != http.StatusOK {
				t.Fatalf("vote to a live shard during degradation: http %d", st)
			}
			break
		}
	}
}

// TestReplicaServesAndRejectsWrites stands up a writer + read replica,
// drives a vote through the writer, and expects the replica to converge
// to the writer's epoch via snapshot polling while rejecting writes.
func TestReplicaServesAndRejectsWrites(t *testing.T) {
	corpus, err := synth.GenerateCorpus(synth.CorpusConfig{Docs: 24, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	smap, _ := shard.NewMap(1, 1)
	writer, err := server.NewWithOptions(buildSystem(t, corpus), server.Options{
		BatchSize: 1,
		Solver:    core.StreamSingle,
		Shard:     &server.ShardConfig{Map: smap, Index: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	wh := httptest.NewServer(writer.Handler())
	t.Cleanup(wh.Close)
	replica, err := server.NewWithOptions(buildSystem(t, corpus), server.Options{
		BatchSize: 1,
		Solver:    core.StreamSingle,
		ReadOnly:  true,
		Shard:     &server.ShardConfig{Map: smap, Index: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	rh := httptest.NewServer(replica.Handler())
	t.Cleanup(rh.Close)
	follower, err := shard.NewFollower(shard.FollowerOptions{
		Writer: wh.URL,
		Every:  25 * time.Millisecond,
		Apply:  replica.ImportSnapshot,
		OnSync: replica.ReportReplica,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(follower.Close)

	questions, err := synth.GenerateQuestions(corpus, synth.QuestionConfig{N: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	askReq := api.AskRequest{Entities: questions[0].Entities}
	var wAsk api.AskResponse
	if st := postJSON(t, wh.URL+"/v1/ask", askReq, &wAsk); st != http.StatusOK {
		t.Fatalf("writer ask: http %d", st)
	}
	if len(wAsk.Results) < 2 {
		t.Fatalf("writer returned %d results", len(wAsk.Results))
	}
	ranked := make([]int, len(wAsk.Results))
	for i, r := range wAsk.Results {
		ranked[i] = r.Doc
	}
	var vr api.VoteResponse
	if st := postJSON(t, wh.URL+"/v1/vote",
		api.VoteRequest{Query: wAsk.Query, Ranked: ranked, BestDoc: ranked[1]}, &vr); st != http.StatusOK {
		t.Fatalf("writer vote: http %d", st)
	}
	writerEpoch := getStats(t, wh.URL).Serving.Epoch

	// The replica must catch up to the writer's epoch and then serve the
	// writer's exact post-vote ranking.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := getStats(t, rh.URL)
		if st.Replica != nil && st.Replica.Epoch >= writerEpoch {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never reached writer epoch %d (stats: %+v)", writerEpoch, st.Replica)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var wAsk2, rAsk api.AskResponse
	postJSON(t, wh.URL+"/v1/ask", askReq, &wAsk2)
	postJSON(t, rh.URL+"/v1/ask", askReq, &rAsk)
	if !sameResults(wAsk2.Results, rAsk.Results) {
		t.Fatalf("replica ranking diverged from writer\nwriter:  %+v\nreplica: %+v", wAsk2.Results, rAsk.Results)
	}

	// Writes bounce with 501/read_only.
	var envelope api.ErrorBody
	st := postJSON(t, rh.URL+"/v1/vote",
		api.VoteRequest{Query: rAsk.Query, Ranked: ranked, BestDoc: ranked[1]}, &envelope)
	if st != http.StatusNotImplemented || envelope.Error.Code != api.CodeReadOnly {
		t.Fatalf("replica vote: http %d code %q, want 501 read_only", st, envelope.Error.Code)
	}
}

// TestShardMisrouteRejected sends a vote for a foreign document straight
// to a non-owner shard and expects the 421 misrouted envelope.
func TestShardMisrouteRejected(t *testing.T) {
	corpus, err := synth.GenerateCorpus(synth.CorpusConfig{Docs: 36, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tc := newTestCluster(t, corpus, 2)
	foreign := -1
	for doc := range corpus.Docs {
		if tc.smap.Owner(doc) != 0 {
			foreign = doc
			break
		}
	}
	if foreign < 0 {
		t.Fatal("no foreign document found")
	}
	var envelope api.ErrorBody
	st := postJSON(t, tc.https[0].URL+"/v1/vote",
		api.VoteRequest{Query: -2, Ranked: []int{0, foreign}, BestDoc: foreign}, &envelope)
	if st != http.StatusMisdirectedRequest || envelope.Error.Code != api.CodeMisrouted {
		t.Fatalf("misrouted vote: http %d code %q, want 421 misrouted", st, envelope.Error.Code)
	}
}
