package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"kgvote/internal/graph"
	"kgvote/internal/pathidx"
	"kgvote/internal/telemetry"
	"kgvote/internal/vote"
)

func TestRunIndexed(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var sum atomic.Int64
		if err := runIndexed(workers, 100, func(i int) error {
			sum.Add(int64(i))
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sum.Load() != 4950 {
			t.Errorf("workers=%d: sum = %d, want 4950", workers, sum.Load())
		}
	}
	if err := runIndexed(4, 0, func(int) error { return errors.New("boom") }); err != nil {
		t.Errorf("n=0 should be a no-op: %v", err)
	}
	// The lowest-index error wins regardless of scheduling.
	wantErr := errors.New("err-3")
	err := runIndexed(4, 10, func(i int) error {
		if i >= 3 {
			return fmt.Errorf("err-%d", i)
		}
		return nil
	})
	if err == nil || err.Error() != wantErr.Error() {
		t.Errorf("err = %v, want %v", err, wantErr)
	}
}

// regionGraph builds n disjoint query regions, each shaped like
// twoAnswer, and returns one negative vote per region.
func regionGraph(t *testing.T, n int) (*graph.Graph, []vote.Vote) {
	t.Helper()
	g := graph.New(0)
	votes := make([]vote.Vote, 0, n)
	for i := 0; i < n; i++ {
		q := g.AddNodes(5)
		a, b, x, y := q+1, q+2, q+3, q+4
		g.MustSetEdge(q, a, 0.6)
		g.MustSetEdge(q, b, 0.4)
		g.MustSetEdge(a, x, 1)
		g.MustSetEdge(b, y, 1)
		votes = append(votes, vote.Vote{
			Kind: vote.Negative, Query: q,
			Ranked: []graph.NodeID{x, y}, Best: y,
		})
	}
	return g, votes
}

// The tentpole contract: one flush runs Enumerate exactly once per
// distinct query node, no matter how many votes share a query or how
// many stages (judge, edge set, encode) need the walks.
func TestFlushEnumeratesOncePerQuery(t *testing.T) {
	for _, solver := range []string{"multi", "sm"} {
		for _, workers := range []int{1, 4} {
			g, votes := regionGraph(t, 3)
			// A second vote on region 0's query: same query node must not
			// enumerate twice.
			dup := votes[0]
			votes = append(votes, dup)
			e, err := New(g, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			before := pathidx.EnumerateCalls()
			switch solver {
			case "multi":
				_, err = e.SolveMulti(votes)
			case "sm":
				_, err = e.SolveSplitMerge(votes)
			}
			if err != nil {
				t.Fatalf("%s workers=%d: %v", solver, workers, err)
			}
			distinctQueries := uint64(3)
			if got := pathidx.EnumerateCalls() - before; got != distinctQueries {
				t.Errorf("%s workers=%d: Enumerate ran %d times, want %d",
					solver, workers, got, distinctQueries)
			}
		}
	}
}

// Golden determinism: the parallel pipeline must leave the graph
// byte-identical to the sequential solve — same weights bitwise.
func TestFlushParallelMatchesSequentialBitwise(t *testing.T) {
	type variant struct {
		name string
		opt  Options
	}
	variants := []variant{
		{"sequential", Options{Workers: 1}},
		{"parallel", Options{Workers: 4}},
	}
	for _, solver := range []string{"multi", "sm"} {
		weights := make([]map[graph.EdgeKey]float64, len(variants))
		for vi, va := range variants {
			g, votes := regionGraph(t, 4)
			e, err := New(g, va.opt)
			if err != nil {
				t.Fatal(err)
			}
			var rep *Report
			switch solver {
			case "multi":
				rep, err = e.SolveMulti(votes)
			case "sm":
				rep, err = e.SolveSplitMerge(votes)
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", solver, va.name, err)
			}
			if rep.Encoded != 4 {
				t.Fatalf("%s/%s: encoded = %d, want 4", solver, va.name, rep.Encoded)
			}
			w := make(map[graph.EdgeKey]float64)
			g.Edges(func(from, to graph.NodeID, wt float64) {
				w[graph.EdgeKey{From: from, To: to}] = wt
			})
			weights[vi] = w
		}
		for vi := 1; vi < len(variants); vi++ {
			if len(weights[vi]) != len(weights[0]) {
				t.Fatalf("%s/%s: edge count %d != sequential %d",
					solver, variants[vi].name, len(weights[vi]), len(weights[0]))
			}
			for k, w0 := range weights[0] {
				if w, ok := weights[vi][k]; !ok || w != w0 {
					t.Errorf("%s/%s: edge %v weight %v != sequential %v (bitwise)",
						solver, variants[vi].name, k, w, w0)
				}
			}
		}
	}
}

// Report carries the stage timings and cache counters, and the engine's
// metrics publish them to the registry.
func TestFlushStageTelemetry(t *testing.T) {
	g, votes := regionGraph(t, 3)
	e, err := New(g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	e.SetMetrics(m)
	rep, err := e.SolveSplitMerge(votes)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EnumCacheMisses != 3 {
		t.Errorf("misses = %d, want 3 (one per query)", rep.EnumCacheMisses)
	}
	// Judge (3) + edge sets (3) + encodes (3) all served from the cache.
	if rep.EnumCacheHits < 6 {
		t.Errorf("hits = %d, want ≥ 6", rep.EnumCacheHits)
	}
	for name, v := range map[string]float64{
		"enum":    rep.EnumSeconds,
		"judge":   rep.JudgeSeconds,
		"cluster": rep.ClusterSeconds,
		"solve":   rep.SolveSeconds,
		"merge":   rep.MergeSeconds,
	} {
		if v < 0 {
			t.Errorf("stage %s seconds = %v, want ≥ 0", name, v)
		}
	}
	if rep.SolveSeconds == 0 {
		t.Errorf("solve stage not timed")
	}
	if got := m.EnumCacheHits.Value(); uint64(got) != rep.EnumCacheHits {
		t.Errorf("metrics hits = %d, report %d", got, rep.EnumCacheHits)
	}
	if got := m.EnumCacheMisses.Value(); uint64(got) != rep.EnumCacheMisses {
		t.Errorf("metrics misses = %d, report %d", got, rep.EnumCacheMisses)
	}
	for stage, h := range map[string]*telemetry.Histogram{
		"enumerate": m.StageEnum,
		"judge":     m.StageJudge,
		"cluster":   m.StageCluster,
		"solve":     m.StageSolve,
		"merge":     m.StageMerge,
	} {
		if h.Count() != 1 {
			t.Errorf("stage %s histogram count = %d, want 1", stage, h.Count())
		}
	}
	// Report.merge folds the new fields.
	a := Report{EnumSeconds: 1, SolveSeconds: 2, EnumCacheHits: 3, EnumCacheMisses: 1}
	b := &Report{EnumSeconds: 0.5, SolveSeconds: 1, EnumCacheHits: 2, EnumCacheMisses: 1}
	a.merge(*b)
	if a.EnumSeconds != 1.5 || a.SolveSeconds != 3 || a.EnumCacheHits != 5 || a.EnumCacheMisses != 2 {
		t.Errorf("merge dropped flush fields: %+v", a)
	}
}
