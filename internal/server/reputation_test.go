package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"kgvote/internal/core"
	"kgvote/internal/qa"
	"kgvote/internal/telemetry"
	"kgvote/internal/vote"
)

// newReputationServer is newTestServer with voter reputation tracking and
// an instrumented registry.
func newReputationServer(t *testing.T, batch int) (*Server, *httptest.Server, *telemetry.Registry) {
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
		BatchSize:  batch,
		Solver:     core.StreamMulti,
		Reputation: &vote.ReputationConfig{},
		Telemetry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, reg
}

// voteAs runs one ask → vote round trip for the voter and returns the
// vote response.
func voteAs(t *testing.T, url, text, voter string) VoteResponse {
	t.Helper()
	var ask AskResponse
	if code := post(t, url+"/v1/ask", AskRequest{Text: text}, &ask); code != http.StatusOK {
		t.Fatalf("ask = %d", code)
	}
	if len(ask.Results) < 2 {
		t.Fatalf("ask results: %v", ask.Results)
	}
	ranked := make([]int, len(ask.Results))
	for i, r := range ask.Results {
		ranked[i] = r.Doc
	}
	var vr VoteResponse
	if code := post(t, url+"/v1/vote", VoteRequest{
		Query: ask.Query, Ranked: ranked, BestDoc: ranked[1], Voter: voter,
	}, &vr); code != http.StatusOK {
		t.Fatalf("vote = %d", code)
	}
	return vr
}

// TestVoteReputationWiring drives the full server-side reputation loop:
// attributed votes are scored per voter, a ballot stuffer is quarantined
// and flagged in its vote response, the quarantine shows up in /stats and
// /metrics, and the flush excludes the quarantined voter's pending votes.
func TestVoteReputationWiring(t *testing.T) {
	_, ts, _ := newReputationServer(t, 100)

	// An honest voter on its own question stays clean.
	if vr := voteAs(t, ts.URL, "configure my outlook account", "alice"); vr.Quarantined {
		t.Fatal("honest first vote flagged quarantined")
	}

	// mallory re-casts the identical vote on the same question. Each
	// /v1/ask mints a fresh handle, but the query key is the entity
	// signature, so the duplicates land on one reputation key: with the
	// default penalties the fifth vote drops the score below threshold.
	for i := 0; i < 4; i++ {
		if vr := voteAs(t, ts.URL, "message delivery delays today", "mallory"); vr.Quarantined {
			t.Fatalf("vote %d already quarantined", i+1)
		}
	}
	if vr := voteAs(t, ts.URL, "message delivery delays today", "mallory"); !vr.Quarantined {
		t.Fatal("fifth duplicate vote not flagged quarantined")
	}

	// Over-long voter IDs are rejected before any state changes.
	var ask AskResponse
	if code := post(t, ts.URL+"/v1/ask", AskRequest{Text: "my email will not send"}, &ask); code != http.StatusOK {
		t.Fatalf("ask = %d", code)
	}
	if code := post(t, ts.URL+"/v1/vote", VoteRequest{
		Query: ask.Query, Ranked: []int{0, 2}, BestDoc: 0,
		Voter: strings.Repeat("x", 65),
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized voter id = %d, want 400", code)
	}

	var stats StatsBody
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Reputation == nil {
		t.Fatal("stats carries no reputation section")
	}
	if stats.Reputation.Voters != 2 {
		t.Errorf("voters = %d, want 2", stats.Reputation.Voters)
	}
	if stats.Reputation.QuarantinedVoters != 1 {
		t.Errorf("quarantined voters = %d, want 1", stats.Reputation.QuarantinedVoters)
	}
	if stats.Reputation.DuplicateVotes < 4 {
		t.Errorf("duplicate penalties = %d, want >= 4", stats.Reputation.DuplicateVotes)
	}

	// The flush must exclude mallory's five pending votes and keep alice's.
	var fr VoteResponse
	if code := post(t, ts.URL+"/v1/flush", struct{}{}, &fr); code != http.StatusOK {
		t.Fatalf("flush = %d", code)
	}
	if fr.Report == nil {
		t.Fatal("flush returned no report")
	}
	if fr.Report.Quarantined != 5 {
		t.Errorf("flush quarantined %d votes, want 5", fr.Report.Quarantined)
	}

	exp := scrape(t, ts)
	if v, ok := exp.Value("kgvote_vote_reputation_quarantined_voters", nil); !ok || v != 1 {
		t.Errorf("quarantined voters gauge = %g ok=%v, want 1", v, ok)
	}
	if v, ok := exp.Value("kgvote_vote_reputation_penalties_total",
		map[string]string{"reason": vote.ReasonDuplicate}); !ok || v < 4 {
		t.Errorf("duplicate penalty counter = %g ok=%v, want >= 4", v, ok)
	}
	if v, ok := exp.Value("kgvote_votes_quarantined_total", nil); !ok || v != 5 {
		t.Errorf("quarantined votes counter = %g ok=%v, want 5", v, ok)
	}
}

// TestConcurrentVotersReputation hammers /v1/vote from many goroutines
// with distinct voter identities while inline flushes run the voter
// policy under the writer gate. Run under -race this checks the
// reputation tracker's locking against the flush path; in any mode it
// asserts the tracker saw every identity.
func TestConcurrentVotersReputation(t *testing.T) {
	srv, ts, _ := newReputationServer(t, 4)

	texts := []string{
		"my email will not send",
		"configure my outlook account",
		"message delivery delays today",
	}
	const voters = 6
	var voterWG, scrapeWG sync.WaitGroup
	for w := 0; w < voters; w++ {
		voterWG.Add(1)
		go func(w int) {
			defer voterWG.Done()
			voter := "voter-" + string(rune('a'+w))
			for i := 0; i < 12; i++ {
				var ask AskResponse
				if code := post(t, ts.URL+"/v1/ask", AskRequest{Text: texts[(w+i)%len(texts)]}, &ask); code != http.StatusOK {
					t.Errorf("concurrent ask = %d", code)
					return
				}
				ranked := make([]int, len(ask.Results))
				for j, r := range ask.Results {
					ranked[j] = r.Doc
				}
				var vr VoteResponse
				if code := post(t, ts.URL+"/v1/vote", VoteRequest{
					Query: ask.Query, Ranked: ranked, BestDoc: ranked[i%len(ranked)], Voter: voter,
				}, &vr); code != http.StatusOK {
					t.Errorf("concurrent vote = %d", code)
					return
				}
			}
		}(w)
	}
	// A concurrent scraper exercises rep.Stats against the vote path.
	stop := make(chan struct{})
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/v1/stats")
			if err != nil {
				return
			}
			resp.Body.Close()
		}
	}()
	voterWG.Wait()
	close(stop)
	scrapeWG.Wait()

	st := srv.rep.Stats()
	if st.Voters != voters {
		t.Errorf("tracker saw %d voters, want %d", st.Voters, voters)
	}
	var fr VoteResponse
	if code := post(t, ts.URL+"/v1/flush", struct{}{}, &fr); code != http.StatusOK {
		t.Fatalf("final flush = %d", code)
	}
}
