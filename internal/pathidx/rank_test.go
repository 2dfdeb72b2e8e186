package pathidx

import (
	"math"
	"math/rand"
	"testing"

	"kgvote/internal/graph"
	"kgvote/internal/topk"
)

func sameRanking(t *testing.T, what string, got, want []Ranked) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Node != want[i].Node || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: entry %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestRankMatchesFullSweepBitwise: ending the last sweep at the
// candidates changes no candidate's score by a bit. The reference is the
// ranking read off an unrestricted Scores/ScoresSeeded vector from a
// second scorer; the scorer under test is reused across every case, so
// each call also runs on the previous call's marks.
func TestRankMatchesFullSweepBitwise(t *testing.T) {
	const n = 80
	rng := rand.New(rand.NewSource(44))
	csr := graph.Compile(randomGraph(n, 4, rng))
	for L := 1; L <= 4; L++ {
		ref, err := NewCSRScorer(csr, Options{L: L})
		if err != nil {
			t.Fatal(err)
		}
		cs, err := NewCSRScorer(csr, Options{L: L})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			ids := []graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
			ws := []float64{0.5, 0.3, 0.2}
			// A different candidate set every trial; the seeds are in it
			// on even trials, and so are two nodes outside the graph.
			candidates := []graph.NodeID{-1, n + 7}
			for v := 0; v < n; v++ {
				if rng.Intn(3) == 0 {
					candidates = append(candidates, graph.NodeID(v))
				}
			}
			if trial%2 == 0 {
				candidates = append(candidates, ids...)
			}
			for _, k := range []int{0, 5} {
				full, err := ref.ScoresSeeded(ids, ws)
				if err != nil {
					t.Fatal(err)
				}
				want := topk.FromScores(nil, full, candidates, k)
				got, err := cs.RankSeeded(ids, ws, candidates, k)
				if err != nil {
					t.Fatal(err)
				}
				sameRanking(t, "RankSeeded", got, want)

				full, err = ref.Scores(ids[0])
				if err != nil {
					t.Fatal(err)
				}
				want = topk.FromScores(nil, full, candidates, k)
				got, err = cs.Rank(ids[0], candidates, k)
				if err != nil {
					t.Fatal(err)
				}
				sameRanking(t, "Rank", got, want)
			}
		}
	}
}

// TestRankSkipsNonCandidatesAtLastLevel pins what the restriction does,
// so the bitwise test above cannot pass with it switched off: after a
// ranking, a candidate's entry is its L-level score and every other
// node's entry is its (L−1)-level score, the last level never having
// landed there.
func TestRankSkipsNonCandidatesAtLastLevel(t *testing.T) {
	const n, L = 60, 4
	rng := rand.New(rand.NewSource(12))
	csr := graph.Compile(randomGraph(n, 4, rng))
	scorer := func(l int) *CSRScorer {
		cs, err := NewCSRScorer(csr, Options{L: l})
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	ids, ws := []graph.NodeID{3, 17}, []float64{0.6, 0.4}
	full, err := scorer(L).ScoresSeeded(ids, ws)
	if err != nil {
		t.Fatal(err)
	}
	shallow, err := scorer(L-1).ScoresSeeded(ids, ws)
	if err != nil {
		t.Fatal(err)
	}
	cs := scorer(L)
	candidates := []graph.NodeID{5, 6, 7, 8, 9, 10, 11, 12}
	if _, err := cs.RankSeeded(ids, ws, candidates, 3); err != nil {
		t.Fatal(err)
	}
	isCand := make(map[graph.NodeID]bool)
	for _, c := range candidates {
		isCand[c] = true
	}
	var skipped int
	for v := 0; v < n; v++ {
		want := shallow[v]
		if isCand[graph.NodeID(v)] {
			want = full[v]
		}
		if math.Float64bits(cs.scores[v]) != math.Float64bits(want) {
			t.Errorf("node %d (candidate %v): entry %v, want %v", v, isCand[graph.NodeID(v)], cs.scores[v], want)
		}
		if full[v] != shallow[v] && !isCand[graph.NodeID(v)] {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("fixture has no non-candidate reached at level L: the test checks nothing")
	}
}

// TestRankEmptyFrontierBeforeLastLevel: the walk dies at level 2 of 4 (a
// seed whose only out-edge leads to a sink), so the restricted level is
// never reached.
func TestRankEmptyFrontierBeforeLastLevel(t *testing.T) {
	g := graph.New(4)
	g.AddNodes(4)
	g.MustSetEdge(0, 1, 1)
	csr := graph.Compile(g)
	cs, err := NewCSRScorer(csr, Options{L: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewCSRScorer(csr, Options{L: 4})
	if err != nil {
		t.Fatal(err)
	}
	ids, ws := []graph.NodeID{0}, []float64{1}
	candidates := []graph.NodeID{0, 1, 2, 3}
	full, err := ref.ScoresSeeded(ids, ws)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // twice: the early exit must leave clean scratch
		got, err := cs.RankSeeded(ids, ws, candidates, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameRanking(t, "RankSeeded", got, topk.FromScores(nil, full, candidates, 0))
		if got[0].Node != 0 || got[1].Node != 1 || got[1].Score == 0 || got[2].Score != 0 {
			t.Fatalf("ranking %v: want seed 0, then its neighbor 1, then unreached nodes", got)
		}
	}
}

// TestCandidateMarksDoNotLeak: a ranking's marks are gone when the next
// one starts, including across the wrap of the generation counter.
func TestCandidateMarksDoNotLeak(t *testing.T) {
	const n = 30
	csr := graph.Compile(randomGraph(n, 3, rand.New(rand.NewSource(3))))
	cs, err := NewCSRScorer(csr, Options{L: 3})
	if err != nil {
		t.Fatal(err)
	}
	marked := func() []graph.NodeID {
		var out []graph.NodeID
		for v, g := range cs.isCand {
			if g == cs.candGen {
				out = append(out, graph.NodeID(v))
			}
		}
		return out
	}
	check := func(what string, want ...graph.NodeID) {
		t.Helper()
		got := marked()
		if len(got) != len(want) {
			t.Fatalf("%s: marked %v, want %v", what, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: marked %v, want %v", what, got, want)
			}
		}
	}
	if _, err := cs.Rank(0, []graph.NodeID{1, 2, 3, 4, 99}, 2); err != nil {
		t.Fatal(err)
	}
	check("first ranking", 1, 2, 3, 4)
	if _, err := cs.Rank(0, []graph.NodeID{4, 5}, 2); err != nil {
		t.Fatal(err)
	}
	check("second ranking", 4, 5)

	// One call before the counter wraps to 0: every stamp a scorer could
	// still carry must be invalidated, not read as generation 1 again.
	for v := range cs.isCand {
		cs.isCand[v] = 1
	}
	cs.candGen = math.MaxUint32
	if _, err := cs.Rank(0, []graph.NodeID{7}, 1); err != nil {
		t.Fatal(err)
	}
	check("after wrap", 7)
}

// TestRankResultHoldsOnlyWhatItReturns: an uncached ranking is what the
// serving rank cache keeps, so it must not pin a candidate-sized array.
func TestRankResultHoldsOnlyWhatItReturns(t *testing.T) {
	g, q, _, seedIDs, seedWs := seedGraph(t)
	candidates := make([]graph.NodeID, g.NumNodes())
	for v := range candidates {
		candidates[v] = graph.NodeID(v)
	}
	cs, err := NewCSRScorer(graph.Compile(g), Options{L: 4})
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	seeded, err := cs.RankSeeded(seedIDs, seedWs, candidates, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeded) != k || cap(seeded) > k {
		t.Errorf("RankSeeded k=%d of %d: len %d cap %d, want cap ≤ k", k, len(candidates), len(seeded), cap(seeded))
	}
	ranked, err := cs.Rank(q, candidates, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != k || cap(ranked) > k {
		t.Errorf("Rank k=%d of %d: len %d cap %d, want cap ≤ k", k, len(candidates), len(ranked), cap(ranked))
	}
}
