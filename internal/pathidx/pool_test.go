package pathidx

import (
	"sync"
	"testing"

	"kgvote/internal/graph"
)

// seedGraph builds a small host graph with a few entities and an answer
// layer, plus a query node attached at the end so tests can compare
// attached-query scoring with virtual-seed scoring.
func seedGraph(t *testing.T) (*graph.Graph, graph.NodeID, []graph.NodeID, []graph.NodeID, []float64) {
	t.Helper()
	g := graph.New(8)
	e1 := g.AddNode("e1")
	e2 := g.AddNode("e2")
	e3 := g.AddNode("e3")
	a1 := g.AddNode("a1")
	a2 := g.AddNode("a2")
	edges := []struct {
		from, to graph.NodeID
		w        float64
	}{
		{e1, e2, 0.5}, {e1, e3, 0.3}, {e2, e3, 0.6}, {e3, e1, 0.2},
		{e1, a1, 0.2}, {e2, a1, 0.4}, {e3, a2, 0.7}, {e2, a2, 0.1},
	}
	for _, e := range edges {
		if err := g.SetEdge(e.from, e.to, e.w); err != nil {
			t.Fatal(err)
		}
	}
	// The query node: out-edges to e1 (2/3) and e2 (1/3).
	q := g.AddNode("q")
	if err := g.SetEdge(q, e1, 2.0/3); err != nil {
		t.Fatal(err)
	}
	if err := g.SetEdge(q, e2, 1.0/3); err != nil {
		t.Fatal(err)
	}
	return g, q, []graph.NodeID{a1, a2}, []graph.NodeID{e1, e2}, []float64{2.0 / 3, 1.0 / 3}
}

// TestScoresSeededMatchesAttachedQuery verifies the serving-path
// equivalence the snapshot design relies on: scoring a virtual query by
// seed vector over a CSR that excludes the query node gives exactly the
// scores of the attached query node, because query nodes have no
// in-edges.
func TestScoresSeededMatchesAttachedQuery(t *testing.T) {
	g, q, answers, seedIDs, seedWs := seedGraph(t)
	opt := Options{L: 4}

	full, err := NewCSRScorer(graph.Compile(g), opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Scores(q)
	if err != nil {
		t.Fatal(err)
	}

	// Snapshot without the query node: rebuild the graph minus q.
	sub := graph.New(8)
	for i := 0; i < g.NumNodes()-1; i++ {
		sub.AddNode(g.Name(graph.NodeID(i)))
	}
	for i := 0; i < sub.NumNodes(); i++ {
		for _, e := range g.Out(graph.NodeID(i)) {
			if err := sub.SetEdge(graph.NodeID(i), e.To, e.Weight); err != nil {
				t.Fatal(err)
			}
		}
	}
	cs, err := NewCSRScorer(graph.Compile(sub), opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cs.ScoresSeeded(seedIDs, seedWs)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range append(append([]graph.NodeID{}, answers...), seedIDs...) {
		if d := got[a] - want[a]; d > 1e-12 || d < -1e-12 {
			t.Errorf("node %d: seeded %.15f, attached %.15f", a, got[a], want[a])
		}
	}

	// Ranking agrees too.
	wantRank, err := full.Rank(q, answers, 0)
	if err != nil {
		t.Fatal(err)
	}
	gotRank, err := cs.RankSeeded(seedIDs, seedWs, answers, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantRank {
		if wantRank[i].Node != gotRank[i].Node {
			t.Fatalf("rank %d: seeded %d, attached %d", i, gotRank[i].Node, wantRank[i].Node)
		}
	}
}

func TestScoresSeededErrors(t *testing.T) {
	g, _, _, _, _ := seedGraph(t)
	cs, err := NewCSRScorer(graph.Compile(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.ScoresSeeded(nil, nil); err == nil {
		t.Error("empty seed accepted")
	}
	if _, err := cs.ScoresSeeded([]graph.NodeID{0}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := cs.ScoresSeeded([]graph.NodeID{99}, []float64{1}); err == nil {
		t.Error("out-of-range seed accepted")
	}
	if _, err := cs.ScoresSeeded([]graph.NodeID{0}, []float64{0}); err == nil {
		t.Error("all-zero seed accepted")
	}
}

// TestScorerPoolConcurrent hammers one pool from many goroutines; run
// with -race this is the pool's torn-read check.
func TestScorerPoolConcurrent(t *testing.T) {
	g, _, answers, seedIDs, seedWs := seedGraph(t)
	pool, err := NewPool(graph.Compile(g), Options{L: 4})
	if err != nil {
		t.Fatal(err)
	}
	var want []Ranked
	{
		sc := pool.Get()
		want, err = sc.RankSeeded(seedIDs, seedWs, answers, 0)
		if err != nil {
			t.Fatal(err)
		}
		pool.Put(sc)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sc := pool.Get()
				got, err := sc.RankSeeded(seedIDs, seedWs, answers, 0)
				if err != nil {
					t.Error(err)
					return
				}
				for j := range want {
					if got[j] != want[j] {
						t.Errorf("rank diverged: %v vs %v", got, want)
						return
					}
				}
				pool.Put(sc)
			}
		}()
	}
	wg.Wait()
}
