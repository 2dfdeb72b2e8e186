package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"kgvote/internal/graph"
	"kgvote/internal/pathidx"
	"kgvote/internal/vote"
)

// servingFixture builds an engine over the twoAnswer graph. The "query"
// node q is part of the host graph here, which lets tests compare the
// attached-query path with the virtual-seed path: seeds mirror q's
// out-edges.
func servingFixture(t testing.TB) (*Engine, graph.NodeID, []graph.NodeID, []graph.NodeID, []float64) {
	t.Helper()
	g, q, answers := twoAnswer(t)
	e, err := New(g, Options{K: 5, L: 4})
	if err != nil {
		t.Fatal(err)
	}
	var ids []graph.NodeID
	var ws []float64
	for _, out := range g.Out(q) {
		ids = append(ids, out.To)
		ws = append(ws, out.Weight)
	}
	return e, q, answers, ids, ws
}

func TestServingPublishedAtConstruction(t *testing.T) {
	e, _, _, _, _ := servingFixture(t)
	snap := e.Serving()
	if snap == nil {
		t.Fatal("no snapshot published at construction")
	}
	if snap.Epoch() != 1 {
		t.Errorf("initial epoch = %d, want 1", snap.Epoch())
	}
	if snap.NumNodes() != e.Graph().NumNodes() || snap.NumEdges() != e.Graph().NumEdges() {
		t.Errorf("snapshot shape %d/%d vs graph %d/%d",
			snap.NumNodes(), snap.NumEdges(), e.Graph().NumNodes(), e.Graph().NumEdges())
	}
}

func TestRankSeededMatchesEngineRank(t *testing.T) {
	e, q, answers, ids, ws := servingFixture(t)
	want, err := e.RankAll(q, answers)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Serving().RankSeeded("", ids, ws, answers, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d ranked, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Node != want[i].Node {
			t.Errorf("rank %d: snapshot %d, engine %d", i, got[i].Node, want[i].Node)
		}
		if d := got[i].Score - want[i].Score; d > 1e-12 || d < -1e-12 {
			t.Errorf("rank %d: score %.15f vs %.15f", i, got[i].Score, want[i].Score)
		}
	}
}

// TestEngineRankMatchesFreshCompile: the engine ranks on its published
// snapshot, seeded from the source's out-edges, and that must be bitwise
// a sweep from the source over a fresh compile of the live graph — for
// entity sources with in-edges, before and after a solve, for query
// nodes attached after the last publish, and for a node with no live
// out-edge.
func TestEngineRankMatchesFreshCompile(t *testing.T) {
	for l := 2; l <= 5; l++ {
		g, err := synthRandom(40, 160, int64(l))
		if err != nil {
			t.Fatal(err)
		}
		aug := graph.Augment(g)
		rng := newRand(int64(100 + l))
		attach := func(name string, query bool) graph.NodeID {
			ents := []graph.NodeID{graph.NodeID(rng.Intn(40)), graph.NodeID(rng.Intn(40))}
			counts := []float64{1 + rng.Float64(), 1 + rng.Float64()}
			if ents[0] == ents[1] {
				ents, counts = ents[:1], counts[:1]
			}
			var id graph.NodeID
			if query {
				id, err = aug.AttachQuery(name, ents, counts)
			} else {
				id, err = aug.AttachAnswer(name, ents, counts)
			}
			if err != nil {
				t.Fatal(err)
			}
			return id
		}
		var answers, sources []graph.NodeID
		for i := 0; i < 12; i++ {
			answers = append(answers, attach(fmt.Sprintf("a%d", i), false))
		}
		// Entity sources with in-edges: walks may come back to them.
		g.Edges(func(_, to graph.NodeID, _ float64) {
			if int(to) < 40 && len(sources) < 4 && !slices.Contains(sources, to) {
				sources = append(sources, to)
			}
		})
		for i := 0; i < 4; i++ {
			sources = append(sources, attach(fmt.Sprintf("q%d", i), true))
		}
		e, err := New(g, Options{K: 5, L: l})
		if err != nil {
			t.Fatal(err)
		}
		check := func(stage string) {
			t.Helper()
			opt := pathidx.Options{L: l, C: e.Options().C}
			ref, err := pathidx.NewCSRScorer(graph.Compile(e.Graph()), opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range sources {
				for _, k := range []int{e.Options().K, 0} {
					want, err := ref.Rank(q, answers, k)
					if err != nil {
						t.Fatal(err)
					}
					got, err := e.RankAll(q, answers)
					if k != 0 {
						got, err = e.Rank(q, answers)
					}
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("L=%d %s q=%d k=%d: %d ranked, want %d", l, stage, q, k, len(got), len(want))
					}
					for i := range want {
						if got[i].Node != want[i].Node || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
							t.Fatalf("L=%d %s q=%d k=%d rank %d: %v, want %v", l, stage, q, k, i, got[i], want[i])
						}
					}
				}
				scores, err := ref.Scores(q)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range answers {
					s, err := e.Similarity(q, a)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(s) != math.Float64bits(scores[a]) {
						t.Fatalf("L=%d %s S(%d,%d) = %v, want %v", l, stage, q, a, s, scores[a])
					}
				}
			}
		}
		check("before solve")

		var votes []vote.Vote
		for _, q := range sources[4:6] {
			ranked, err := e.Rank(q, answers)
			if err != nil {
				t.Fatal(err)
			}
			list := make([]graph.NodeID, len(ranked))
			for i, r := range ranked {
				list[i] = r.Node
			}
			best := 1 // the lowest-ranked answer q reaches: an optimizable vote
			for i, r := range ranked {
				if i > 0 && r.Score > 0 {
					best = i
				}
			}
			v, err := vote.FromRanking(q, list, list[best])
			if err != nil {
				t.Fatal(err)
			}
			votes = append(votes, v)
		}
		rep, err := e.SolveSingle(votes)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Applied) == 0 {
			t.Fatalf("L=%d: the solve moved no weight", l)
		}
		check("after solve")

		// Attached after the last publish: absent from the snapshot.
		for i := 0; i < 3; i++ {
			sources = append(sources, attach(fmt.Sprintf("late%d", i), true))
		}
		sources = append(sources, g.AddNode("no out-edge"))
		if n := e.Serving().NumNodes(); n >= g.NumNodes() {
			t.Fatalf("late nodes are in the snapshot (%d ≥ %d)", n, g.NumNodes())
		}
		check("late attach")
	}
}

func TestRankSeededCache(t *testing.T) {
	e, _, answers, ids, ws := servingFixture(t)
	snap := e.Serving()
	first, err := snap.RankSeeded("key", ids, ws, answers, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := snap.RankSeeded("key", ids, ws, answers, 0)
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] != &second[0] {
		t.Error("cache miss on identical key: sweeps were repeated")
	}
	// Distinct key recomputes.
	third, err := snap.RankSeeded("other", ids, ws, answers, 0)
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] == &third[0] {
		t.Error("different keys shared a cache entry")
	}
}

func TestRankSeededCacheDisabled(t *testing.T) {
	g, q, _ := twoAnswer(t)
	_ = q
	e, err := New(g, Options{K: 5, L: 4, RankCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Serving()
	ids := []graph.NodeID{1}
	ws := []float64{1}
	answers := []graph.NodeID{3, 4}
	first, err := snap.RankSeeded("key", ids, ws, answers, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := snap.RankSeeded("key", ids, ws, answers, 0)
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] == &second[0] {
		t.Error("disabled cache returned a shared slice")
	}
}

// TestEpochAdvancesOnSolve verifies that every optimization batch
// republishes the snapshot at the next epoch and that the new snapshot
// reflects the new weights while the old one keeps the old weights.
func TestEpochAdvancesOnSolve(t *testing.T) {
	e, q, answers, ids, ws := servingFixture(t)
	old := e.Serving()
	v, err := vote.FromRanking(q, answers, answers[1]) // prefer the loser
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SolveSingle([]vote.Vote{v}); err != nil {
		t.Fatal(err)
	}
	cur := e.Serving()
	if cur.Epoch() <= old.Epoch() {
		t.Fatalf("epoch did not advance: %d -> %d", old.Epoch(), cur.Epoch())
	}
	oldRank, err := old.RankSeeded("", ids, ws, answers, 0)
	if err != nil {
		t.Fatal(err)
	}
	newRank, err := cur.RankSeeded("", ids, ws, answers, 0)
	if err != nil {
		t.Fatal(err)
	}
	if oldRank[0].Node != answers[0] {
		t.Errorf("old snapshot mutated: top answer %d", oldRank[0].Node)
	}
	if newRank[0].Node != answers[1] {
		t.Errorf("vote did not take effect in new snapshot: top answer %d", newRank[0].Node)
	}

	// Restore also republishes.
	before := e.epoch
	if err := e.Restore(e.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if e.Serving().Epoch() != before+1 {
		t.Errorf("restore did not republish: epoch %d, want %d", e.Serving().Epoch(), before+1)
	}
}

func TestExplainSeededMatchesExplain(t *testing.T) {
	e, q, answers, ids, ws := servingFixture(t)
	want, err := e.Explain(q, answers[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Serving().ExplainSeeded(ids, ws, answers[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalPaths != want.TotalPaths {
		t.Errorf("total paths %d vs %d", got.TotalPaths, want.TotalPaths)
	}
	if d := got.Similarity - want.Similarity; d > 1e-12 || d < -1e-12 {
		t.Errorf("similarity %.15f vs %.15f", got.Similarity, want.Similarity)
	}
	if len(got.Paths) != len(want.Paths) {
		t.Fatalf("path count %d vs %d", len(got.Paths), len(want.Paths))
	}
	for i := range got.Paths {
		if d := got.Paths[i].Score - want.Paths[i].Score; d > 1e-12 || d < -1e-12 {
			t.Errorf("path %d score %.15f vs %.15f", i, got.Paths[i].Score, want.Paths[i].Score)
		}
		gp, wp := got.Paths[i].Path.Nodes, want.Paths[i].Path.Nodes
		if len(gp) != len(wp) {
			t.Fatalf("path %d length %d vs %d", i, len(gp), len(wp))
		}
		if gp[0] != graph.None {
			t.Errorf("seeded path %d does not start with the virtual query: %v", i, gp)
		}
		for j := 1; j < len(gp); j++ {
			if gp[j] != wp[j] {
				t.Errorf("path %d node %d: %d vs %d", i, j, gp[j], wp[j])
			}
		}
	}

	if _, err := e.Serving().ExplainSeeded(ids, ws, graph.NodeID(99), 0); err == nil {
		t.Error("out-of-range target accepted")
	}
}

// retentionHost builds a host graph with two structurally disjoint
// regions so retention tests can change one side without touching the
// other:
//
//	a→x→u (left), b→y→v (right), all unit-ish weights.
func retentionHost(t testing.TB) (g *graph.Graph, a, b, x, y graph.NodeID) {
	t.Helper()
	g = graph.New(0)
	a = g.AddNode("a")
	x = g.AddNode("x")
	u := g.AddNode("u")
	b = g.AddNode("b")
	y = g.AddNode("y")
	v := g.AddNode("v")
	g.MustSetEdge(a, x, 0.9)
	g.MustSetEdge(x, u, 0.5)
	g.MustSetEdge(b, y, 0.8)
	g.MustSetEdge(y, v, 0.5)
	return g, a, b, x, y
}

// TestRankCacheDeltaRetention: a republish with a known delta must retain
// cached rankings whose seeds cannot reach any changed edge and drop the
// rest.
func TestRankCacheDeltaRetention(t *testing.T) {
	// "enum" names the exact enumeration kernel, the only one left.
	t.Run("enum", func(t *testing.T) {
		g, a, b, _, y := retentionHost(t)
		e, err := New(g, Options{Normalize: NoNormalize})
		if err != nil {
			t.Fatal(err)
		}
		cands := []graph.NodeID{g.Lookup("u"), g.Lookup("v")}
		rank := func(key string, seed graph.NodeID) bool {
			_, hit, err := e.Serving().RankSeededCached(key, []graph.NodeID{seed}, []float64{1}, cands, 0)
			if err != nil {
				t.Fatal(err)
			}
			return hit
		}
		rank("left", a)
		rank("right", b)

		// Change an edge only the right component can reach.
		if err := e.ApplyWeightSet([]WeightChange{{From: y, To: g.Lookup("v"), Weight: 0.3}}); err != nil {
			t.Fatal(err)
		}
		if !rank("left", a) {
			t.Fatal("left entry dropped despite provably-untouched seeds")
		}
		if rank("right", b) {
			t.Fatal("right entry survived a reachable weight change")
		}

		// A no-op flush (same weights) retains everything.
		if err := e.ApplyWeightSet([]WeightChange{{From: y, To: g.Lookup("v"), Weight: 0.3}}); err != nil {
			t.Fatal(err)
		}
		if !rank("left", a) || !rank("right", b) {
			t.Fatal("no-op flush dropped cache entries")
		}

		// An unknown delta (publish(nil): restore/import semantics)
		// drops the cache wholesale.
		if err := e.publish(nil); err != nil {
			t.Fatal(err)
		}
		if rank("left", a) || rank("right", b) {
			t.Fatal("unknown delta retained cache entries")
		}
	})
}

// TestEdgeDeltas: dedup is last-write-wins, unchanged weights are
// filtered, the changed sources come out sorted and once each, and the
// result is non-nil even when empty.
func TestEdgeDeltas(t *testing.T) {
	g, a, b, x, y := retentionHost(t)
	csr := graph.Compile(g)
	ds := changedSources(csr, []WeightChange{
		{From: a, To: x, Weight: 0.7},
		{From: a, To: x, Weight: 0.9}, // last write wins; equals old 0.9 → filtered
	})
	if ds == nil || len(ds) != 0 {
		t.Fatalf("changedSources = %#v, want empty non-nil", ds)
	}
	ds = changedSources(csr, []WeightChange{
		{From: b, To: y, Weight: 0.1},
		{From: a, To: x, Weight: 0.25},
		{From: b, To: y, Weight: 0.2},
	})
	if len(ds) != 2 || ds[0] != a || ds[1] != b {
		t.Fatalf("changedSources = %v, want [%d %d]", ds, a, b)
	}
}
