package pathidx

import (
	"math"
	"math/rand"
	"testing"

	"kgvote/internal/graph"
)

func TestWalkStatsChain(t *testing.T) {
	// 0 →(0.5) 1 →(0.5) 2: mass halves per step, frontier stays 1.
	g := graph.New(0)
	g.AddNodes(3)
	g.MustSetEdge(0, 1, 0.5)
	g.MustSetEdge(1, 2, 0.5)
	stats, err := WalkStats(g, 0, Options{L: 4, C: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	// Length 3 has an empty frontier, so the scan stops there.
	if len(stats) != 3 {
		t.Fatalf("lengths = %d, want 3", len(stats))
	}
	if stats[0].Frontier != 1 || math.Abs(stats[0].Mass-0.5) > 1e-15 {
		t.Errorf("L=1 stats = %+v", stats[0])
	}
	if stats[1].Frontier != 1 || math.Abs(stats[1].Mass-0.25) > 1e-15 {
		t.Errorf("L=2 stats = %+v", stats[1])
	}
	if stats[2].Frontier != 0 || stats[2].Mass != 0 {
		t.Errorf("L=3 stats = %+v", stats[2])
	}
	// Contribution matches c(1−c)^L · mass.
	want := 0.15 * 0.85 * 0.5
	if math.Abs(stats[0].Contribution-want) > 1e-15 {
		t.Errorf("L=1 contribution = %v, want %v", stats[0].Contribution, want)
	}
}

// The per-length contributions must sum to the total similarity mass over
// all nodes (cross-check against the CSRScorer).
func TestWalkStatsMatchesScorerTotal(t *testing.T) {
	g := randomGraph(30, 3, rand.New(rand.NewSource(8)))
	opt := Options{L: 4}
	stats, err := WalkStats(g, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range stats {
		total += s.Contribution
	}
	sc, err := NewCSRScorer(graph.Compile(g), opt)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := sc.Scores(0)
	if err != nil {
		t.Fatal(err)
	}
	var scoreSum float64
	for _, v := range scores {
		scoreSum += v
	}
	if math.Abs(total-scoreSum) > 1e-12 {
		t.Errorf("stats total %v vs scorer total %v", total, scoreSum)
	}
}

func TestSuggestL(t *testing.T) {
	// Normalized random graph: mass stays ≈ (1−c)-powered, contributions
	// decay geometrically, so a loose threshold picks a small L.
	g := randomGraph(40, 4, rand.New(rand.NewSource(4)))
	l, err := SuggestL(g, 0, 8, 0.5, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if l < 1 || l > 8 {
		t.Errorf("SuggestL = %d", l)
	}
	// A minuscule threshold is never satisfied: falls back to maxL.
	l, err = SuggestL(g, 0, 6, 1e-9, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if l != 6 {
		t.Errorf("SuggestL strict = %d, want maxL 6", l)
	}
	if _, err := SuggestL(g, 0, 6, 0, 0.15); err == nil {
		t.Errorf("frac = 0 should fail")
	}
	if _, err := SuggestL(g, 99, 6, 0.1, 0.15); err == nil {
		t.Errorf("bad source should fail")
	}
}

func TestWalkStatsValidation(t *testing.T) {
	g := randomGraph(5, 2, rand.New(rand.NewSource(1)))
	if _, err := WalkStats(g, 99, Options{}); err == nil {
		t.Errorf("bad source should fail")
	}
	if _, err := WalkStats(g, 0, Options{C: 7}); err == nil {
		t.Errorf("bad options should fail")
	}
}
