package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"kgvote/api"
	"kgvote/internal/admit"
	"kgvote/internal/core"
	"kgvote/internal/durable"
	"kgvote/internal/graph"
	"kgvote/internal/lru"
	"kgvote/internal/pathidx"
	"kgvote/internal/ppr"
	"kgvote/internal/qa"
	"kgvote/internal/server"
	"kgvote/internal/sgp"
	"kgvote/internal/shard"
	"kgvote/internal/signomial"
	"kgvote/internal/vote"
	"kgvote/internal/wal"
)

// This file is the replay: the layers whose cost the daemon's own surface
// (/metrics, /v1/stats, ?trace=1, flush reports) does not separate are
// rebuilt in this process from the same generated inputs and timed through
// their public functions. Nothing inside those packages is edited, and
// nothing here feeds an end-to-end metric. Each timed block is one span.

// engineOptions are the daemons' defaults for the options the replay needs.
func engineOptions() core.Options {
	return core.Options{K: maxResults, L: 4, Workers: runtime.NumCPU()}
}

func buildSystem(corpusJSON []byte, opt core.Options) (*qa.System, error) {
	c, err := qa.ReadCorpus(bytes.NewReader(corpusJSON))
	if err != nil {
		return nil, err
	}
	return qa.Build(c, opt)
}

func (q question) qa() qa.Question {
	return qa.Question{ID: -1, Entities: q.Entities, BestDoc: q.BestDoc}
}

// timed runs fn n times inside one span and returns the mean nanoseconds of
// one call.
func timed(tr *tracer, parent int, name string, n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	end := time.Now()
	tr.add(parent, name, "", start, end)
	return float64(end.Sub(start)) / float64(n)
}

// medianOf times fn once per element of a sample and returns the median in
// nanoseconds; for calls whose cost depends on the input.
func medianOf(tr *tracer, parent int, name string, n int, fn func(i int)) float64 {
	start := time.Now()
	each := make([]float64, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		fn(i)
		each[i] = float64(time.Since(t))
	}
	tr.add(parent, name, "", start, time.Now())
	return median(each)
}

// captureSolver is a core.ClusterSolver that measures the first program the
// split-merge pipeline hands it and then declines to solve it: the replay
// wants the program, not another multi-second solve.
type captureSolver struct {
	tr        *tracer
	parent    int
	nsPerTerm float64
}

var errCaptured = errors.New("replay: program captured, solve skipped")

func (c *captureSolver) SolveProgram(_ context.Context, p *sgp.Program, _ sgp.Params) (*sgp.Solution, error) {
	if c.nsPerTerm != 0 {
		return nil, errCaptured
	}
	var sigs []*signomial.Signomial
	sigs = append(sigs, p.Hard...)
	for _, s := range p.Soft {
		sigs = append(sigs, s.Sig)
	}
	terms := 0
	for _, s := range sigs {
		terms += s.NumTerms()
	}
	if terms == 0 {
		return nil, errCaptured
	}
	x := p.InitialPoint()
	grad := make([]float64, len(x))
	at := func(i int) float64 { return x[i] }
	var sink float64
	const rounds = 200
	ns := timed(c.tr, c.parent, "signomial.EvalAt+AddGrad", rounds, func(int) {
		for _, s := range sigs {
			sink += s.EvalAt(at)
			s.AddGrad(x, grad, 1)
		}
	})
	_ = sink
	c.nsPerTerm = ns / float64(terms)
	return nil, errCaptured
}

// replayLayers returns the replay's per-layer metrics for the run's inputs.
func replayLayers(r *runner, env *environment) (map[string]float64, error) {
	tr := r.tr
	root, done := tr.open(0, "replay")
	defer done()
	out := map[string]float64{}
	in := env.in
	opt := engineOptions()
	sys, err := buildSystem(in.corpus, opt)
	if err != nil {
		return nil, err
	}
	asked := in.cold
	if len(asked) == 0 {
		asked = in.train
	}
	snap := sys.Engine.Serving()
	cands := sys.ServingAnswers()

	// pathidx: allocations of one seeded ranking, exact.
	ids, ws, _, err := sys.Seed(asked[0].qa())
	if err != nil {
		return nil, err
	}
	sc := snap.Pool().Get()
	dst := make([]pathidx.Ranked, 0, opt.K)
	out["pathidx.rank_allocs"] = testing.AllocsPerRun(100, func() {
		dst, _ = sc.RankSeededInto(dst[:0], ids, ws, cands, opt.K)
	})
	snap.Pool().Put(sc)

	// graph: one CSR compile of the served graph.
	out["graph.csr_build_ms"] = medianOf(tr, root, "graph.Compile", 5, func(int) { graph.Compile(sys.Engine.Graph()) }) / 1e6

	// lru: a hit in a full cache of the daemon's size.
	cache := lru.New[string, int](core.DefaultRankCacheSize)
	keys := make([]string, core.DefaultRankCacheSize)
	for i := range keys {
		keys[i] = "key-" + strconv.Itoa(i)
		cache.Add(keys[i], i)
	}
	out["lru.get_ns"] = timed(tr, root, "lru.Get", 200000, func(i int) { cache.Get(keys[i%hotQuestions]) })

	// admit: one admission decision at the daemon's default capacity.
	ctl := admit.New(admit.Config{Capacity: 4096})
	out["admit.admit_ns"] = timed(tr, root, "admit.Admit", 200000, func(int) { ctl.Admit("bench", 0, false) })

	// shard: merging two shards' top-k lists.
	lists := make([][]api.AskResult, 2)
	for s := range lists {
		for i := 0; i < opt.K; i++ {
			lists[s] = append(lists[s], api.AskResult{Doc: 2*i + s, Score: 1 / float64(2*i+s+1)})
		}
	}
	out["shard.merge_topk_ns"] = timed(tr, root, "shard.MergeTopK", 100000, func(int) { shard.MergeTopK(lists, opt.K) })

	// server: the handler for a cached question, and its JSON alone.
	srv, err := server.NewWithOptions(sys, server.Options{BatchSize: 1 << 20, Solver: core.StreamSingle, Admission: admit.Config{Capacity: 4096}})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	serve := func(path string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		return w
	}
	hot := in.hot[0]
	first := serve("/v1/ask", hot.body)
	if first.Code != http.StatusOK {
		return nil, fmt.Errorf("replayed ask: status %d: %s", first.Code, first.Body)
	}
	out["server.handler_ask_us"] = timed(tr, root, "server.Handler ask", 5000, func(int) { serve("/v1/ask", hot.body) }) / 1e3
	var decoded api.AskResponse
	if err := json.Unmarshal(first.Body.Bytes(), &decoded); err != nil {
		return nil, err
	}
	out["server.json_ask_us"] = timed(tr, root, "api ask decode+encode", 5000, func(int) {
		var req api.AskRequest
		_ = json.Unmarshal(hot.body, &req)
		_ = json.NewEncoder(io.Discard).Encode(decoded)
	}) / 1e3

	// server: a vote that is admitted, attached and queued but does not
	// flush (the batch is never filled).
	var voteBodies [][]byte
	for _, q := range in.train {
		if len(voteBodies) == 64 {
			break
		}
		var shown api.AskResponse
		if err := json.Unmarshal(serve("/v1/ask", q.body).Body.Bytes(), &shown); err != nil {
			return nil, err
		}
		docs := make([]int, len(shown.Results))
		for i, x := range shown.Results {
			docs[i] = x.Doc
		}
		if !chooseVote(docs, q.BestDoc) {
			continue
		}
		b, err := json.Marshal(voteRequest{Query: int32(shown.Query), Ranked: docs, BestDoc: q.BestDoc})
		if err != nil {
			return nil, err
		}
		voteBodies = append(voteBodies, b)
	}
	if len(voteBodies) == 0 {
		return nil, errors.New("replay: no training question yields a vote")
	}
	out["server.handler_vote_us"] = medianOf(tr, root, "server.Handler vote", len(voteBodies), func(i int) { serve("/v1/vote", voteBodies[i]) }) / 1e3

	if err := replayPush(tr, root, in, opt, out); err != nil {
		return nil, err
	}
	if err := replaySolveProgram(tr, root, in, opt, out); err != nil {
		return nil, err
	}
	return out, replayDurable(tr, root, r, env, opt, out)
}

// collectVotes asks training questions of a fresh system until n of them
// yield a vote, as the simulated user would cast it.
func collectVotes(sys *qa.System, train []question, n int) ([]vote.Vote, error) {
	var votes []vote.Vote
	for _, q := range train {
		if len(votes) == n {
			break
		}
		qn, ranked, err := sys.Ask(q.qa())
		if err != nil {
			return nil, err
		}
		docs := make([]int, len(ranked))
		for i, a := range ranked {
			docs[i] = sys.DocOf(a)
		}
		if !chooseVote(docs, q.BestDoc) {
			continue
		}
		v, err := sys.VoteBest(qn, ranked, q.BestDoc)
		if err != nil {
			return nil, err
		}
		votes = append(votes, v)
	}
	if len(votes) < n {
		return nil, fmt.Errorf("replay: only %d of %d votes could be collected", len(votes), n)
	}
	return votes, nil
}

// replayPush times the local-push scorer on the same seeds the enumerator
// serves, and its per-flush repair on a real flush's changed edges.
func replayPush(tr *tracer, root int, in *inputs, opt core.Options, out map[string]float64) error {
	sys, err := buildSystem(in.corpus, opt)
	if err != nil {
		return err
	}
	// Attach every query node first: a flush that also grows the graph
	// has no usable edge delta, and the repair would not run at all.
	votes, err := collectVotes(sys, in.train, 8)
	if err != nil {
		return err
	}
	if _, err := sys.Engine.SolveSingle(votes[:4]); err != nil {
		return err
	}
	prev := sys.Engine.Serving().CSR()
	inc, err := ppr.NewIncremental(ppr.PushOptions{L: opt.L}, 0)
	if err != nil {
		return err
	}
	inc.Update(prev, prev.Epoch(), nil)
	asked := in.cold
	if len(asked) == 0 {
		asked = in.heldout
	}
	n := 200
	if n > len(asked) {
		n = len(asked)
	}
	cands := sys.ServingAnswers()
	out["ppr.push_rank_cold_us"] = medianOf(tr, root, "ppr.Incremental.RankSeeded", n, func(i int) {
		ids, ws, key, err := sys.Seed(asked[i].qa())
		if err == nil {
			_, _, _ = inc.RankSeeded(key, prev, prev.Epoch(), ids, ws, cands, opt.K)
		}
	}) / 1e3
	rep, err := sys.Engine.SolveSingle(votes[4:])
	if err != nil {
		return err
	}
	next := sys.Engine.Serving().CSR()
	var deltas []ppr.EdgeDelta
	seen := map[graph.EdgeKey]bool{}
	for i := len(rep.Applied) - 1; i >= 0; i-- { // later entries supersede earlier ones
		wc := rep.Applied[i]
		k := graph.EdgeKey{From: wc.From, To: wc.To}
		if old := prev.Weight(wc.From, wc.To); !seen[k] && old != wc.Weight {
			deltas = append(deltas, ppr.EdgeDelta{From: wc.From, To: wc.To, Old: old, New: wc.Weight})
		}
		seen[k] = true
	}
	ppr.SortEdgeDeltas(deltas)
	out["ppr.update_us"] = timed(tr, root, "ppr.Incremental.Update", 1, func(int) { inc.Update(next, next.Epoch(), deltas) }) / 1e3
	return nil
}

// replaySolveProgram builds the program of the workload's first split-merge
// batch and times the signomial kernels the solver's inner loop spends its
// time in.
func replaySolveProgram(tr *tracer, root int, in *inputs, opt core.Options, out map[string]float64) error {
	sys, err := buildSystem(in.corpus, opt)
	if err != nil {
		return err
	}
	votes, err := collectVotes(sys, in.train, 8)
	if err != nil {
		return err
	}
	capture := &captureSolver{tr: tr, parent: root}
	sys.Engine.SetClusterSolver(capture)
	if _, err := sys.Engine.SolveSplitMergeCtx(context.Background(), votes); err != nil && capture.nsPerTerm == 0 {
		return fmt.Errorf("replay: split-merge produced no program: %w", err)
	}
	out["signomial.evalgrad_ns_per_term"] = capture.nsPerTerm
	return nil
}

// replayDurable times the WAL-first vote path of the durability layer and a
// recovery. A durable workload recovers a copy of the directory its daemon
// was running on; the others recover the directory the replay just wrote.
func replayDurable(tr *tracer, root int, r *runner, env *environment, opt core.Options, out map[string]float64) error {
	sys, err := buildSystem(env.in.corpus, opt)
	if err != nil {
		return err
	}
	dir := filepath.Join(r.tmp, "replay-data")
	mgr, err := durable.Open(durable.Options{Dir: dir, Fsync: wal.SyncAlways, Engine: opt})
	if err != nil {
		return err
	}
	if err := mgr.Bootstrap(sys); err != nil {
		mgr.Close()
		return err
	}
	// Every asked question attaches a query node, voted on or not, and
	// recovery replays attachments by node id: each one is logged, and
	// the ones that carry a vote are timed.
	start := time.Now()
	var each []float64
	var logErr error
	for _, q := range env.in.train {
		if len(each) == 32 || logErr != nil {
			break
		}
		qn, ranked, err := sys.Ask(q.qa())
		if err != nil {
			logErr = err
			break
		}
		docs := make([]int, len(ranked))
		for i, a := range ranked {
			docs[i] = sys.DocOf(a)
		}
		t := time.Now()
		logErr = mgr.LogAttach(durable.Attach{Node: qn, Question: q.qa()})
		if logErr != nil || !chooseVote(docs, q.BestDoc) {
			continue
		}
		v, err := sys.VoteBest(qn, ranked, q.BestDoc)
		if err != nil {
			logErr = err
			break
		}
		if logErr = mgr.LogVote(v); logErr == nil {
			logErr = mgr.Commit()
		}
		each = append(each, float64(time.Since(t)))
	}
	tr.add(root, "durable.LogAttach+LogVote+Commit", "", start, time.Now())
	out["durable.log_vote_us"] = median(each) / 1e3
	if err := mgr.Close(); err != nil {
		return err
	}
	if logErr != nil {
		return logErr
	}
	if env.dataDir != "" {
		dir = filepath.Join(r.tmp, "replay-recover")
		if err := copyDir(env.dataDir, dir); err != nil {
			return err
		}
	}
	var recErr error
	out["durable.recover_ms"] = timed(tr, root, "durable.Open+Recover", 1, func(int) {
		m, err := durable.Open(durable.Options{Dir: dir, Fsync: wal.SyncAlways, Engine: opt})
		if err != nil {
			recErr = err
			return
		}
		_, recErr = m.Recover()
		m.Close()
	}) / 1e6
	return recErr
}

// copyDir copies the regular files under src to the same paths under dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}
