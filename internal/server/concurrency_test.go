package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestAskServesDuringWriterStall is the regression test for the
// serve-time stall window: before the snapshot path, /ask serialized
// behind the same mutex as /vote and /flush, so a long SGP solve starved
// every reader. Here the writer lock is held (simulating an in-flight
// flush) while /ask and /stats must still answer from the published
// snapshot.
func TestAskServesDuringWriterStall(t *testing.T) {
	srv, ts := newTestServer(t, 100)

	// Warm ask while unlocked to learn the epoch.
	var warm AskResponse
	if code := post(t, ts.URL+"/v1/ask", AskRequest{Text: "my email will not send"}, &warm); code != http.StatusOK {
		t.Fatalf("warm ask = %d", code)
	}

	srv.mu.Lock() // the "flush" is now in flight
	type result struct {
		code int
		resp AskResponse
	}
	done := make(chan result, 1)
	go func() {
		var r result
		b, _ := json.Marshal(AskRequest{Text: "configure my outlook account"})
		resp, err := http.Post(ts.URL+"/v1/ask", "application/json", bytes.NewReader(b))
		if err != nil {
			done <- result{code: -1}
			return
		}
		defer resp.Body.Close()
		r.code = resp.StatusCode
		_ = json.NewDecoder(resp.Body).Decode(&r.resp)
		done <- r
	}()
	select {
	case r := <-done:
		if r.code != http.StatusOK {
			srv.mu.Unlock()
			t.Fatalf("ask during writer stall = %d", r.code)
		}
		if r.resp.Epoch != warm.Epoch {
			srv.mu.Unlock()
			t.Fatalf("ask during stall served epoch %d, want previous epoch %d", r.resp.Epoch, warm.Epoch)
		}
		if len(r.resp.Results) == 0 {
			srv.mu.Unlock()
			t.Fatal("ask during stall returned no results")
		}
	case <-time.After(5 * time.Second):
		srv.mu.Unlock()
		t.Fatal("/ask blocked behind the writer lock")
	}

	// /stats must be lock-free too.
	statsDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			statsDone <- -1
			return
		}
		resp.Body.Close()
		statsDone <- resp.StatusCode
	}()
	select {
	case code := <-statsDone:
		if code != http.StatusOK {
			srv.mu.Unlock()
			t.Fatalf("stats during writer stall = %d", code)
		}
	case <-time.After(5 * time.Second):
		srv.mu.Unlock()
		t.Fatal("/stats blocked behind the writer lock")
	}
	srv.mu.Unlock()
}

// TestConcurrentAskVoteFlush hammers the read path from several
// goroutines while a single writer votes and flushes. Run under -race
// this is the torn-read check of the snapshot design; in any mode it
// asserts that post-flush epochs advance monotonically.
func TestConcurrentAskVoteFlush(t *testing.T) {
	_, ts := newTestServer(t, 2)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Readers: concurrent askers with a couple of distinct questions (one
	// repeats, exercising the rank cache; epochs observed must never
	// decrease per goroutine).
	texts := []string{
		"my email will not send",
		"configure my outlook account",
		"message delivery delays today",
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lastEpoch uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var ask AskResponse
				code := post(t, ts.URL+"/v1/ask", AskRequest{Text: texts[(w+i)%len(texts)]}, &ask)
				if code != http.StatusOK {
					t.Errorf("concurrent ask = %d", code)
					return
				}
				if ask.Epoch < lastEpoch {
					t.Errorf("epoch went backwards: %d after %d", ask.Epoch, lastEpoch)
					return
				}
				lastEpoch = ask.Epoch
				for j := 1; j < len(ask.Results); j++ {
					if ask.Results[j].Score > ask.Results[j-1].Score+1e-12 {
						t.Errorf("torn ranking: %v", ask.Results)
						return
					}
				}
			}
		}(w)
	}

	// The single writer: ask → vote (batch 2 flushes every other vote),
	// with an explicit /flush at the end. Epochs in /stats must strictly
	// increase across flushes.
	var epochs []uint64
	for i := 0; i < 6; i++ {
		var ask AskResponse
		if code := post(t, ts.URL+"/v1/ask", AskRequest{Text: texts[i%len(texts)]}, &ask); code != http.StatusOK {
			t.Fatalf("writer ask = %d", code)
		}
		if len(ask.Results) < 2 {
			t.Fatalf("writer ask results: %v", ask.Results)
		}
		ranked := make([]int, len(ask.Results))
		for j, r := range ask.Results {
			ranked[j] = r.Doc
		}
		var vr VoteResponse
		if code := post(t, ts.URL+"/v1/vote", VoteRequest{Query: ask.Query, Ranked: ranked, BestDoc: ranked[1]}, &vr); code != http.StatusOK {
			t.Fatalf("writer vote = %d", code)
		}
		if vr.Flushed {
			var stats StatsBody
			resp, err := http.Get(ts.URL + "/v1/stats")
			if err != nil {
				t.Fatal(err)
			}
			if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			epochs = append(epochs, stats.Serving.Epoch)
		}
	}
	var fr VoteResponse
	if code := post(t, ts.URL+"/v1/flush", struct{}{}, &fr); code != http.StatusOK {
		t.Fatalf("final flush = %d", code)
	}
	close(stop)
	wg.Wait()

	if len(epochs) < 2 {
		t.Fatalf("expected at least 2 flushes, saw %d", len(epochs))
	}
	for i := 1; i < len(epochs); i++ {
		if epochs[i] <= epochs[i-1] {
			t.Errorf("post-flush epochs not strictly increasing: %v", epochs)
		}
	}
}
