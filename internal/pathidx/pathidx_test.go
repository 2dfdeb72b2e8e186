package pathidx

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"kgvote/internal/graph"
	"kgvote/internal/ppr"
)

// fig1 builds the Section IV-A running example: the Fig. 1(a) knowledge
// graph with a query node q and answer node a3.
func fig1(t testing.TB) (*graph.Graph, graph.NodeID, graph.NodeID) {
	t.Helper()
	g := graph.New(0)
	q := g.AddNode("q")
	outbox := g.AddNode("Outbox")
	email := g.AddNode("Email")
	send := g.AddNode("SendMessage")
	outlook := g.AddNode("Outlook")
	a3 := g.AddNode("a3")
	g.MustSetEdge(q, outbox, 0.33)
	g.MustSetEdge(q, email, 0.33)
	g.MustSetEdge(outbox, email, 0.3)
	g.MustSetEdge(outbox, send, 0.5)
	g.MustSetEdge(email, outbox, 0.4)
	g.MustSetEdge(email, send, 0.6)
	g.MustSetEdge(send, outlook, 0.3)
	g.MustSetEdge(outlook, a3, 1)
	return g, q, a3
}

func TestEnumerateFig1(t *testing.T) {
	g, q, a3 := fig1(t)
	paths, err := Enumerate(g, q, []graph.NodeID{a3}, Options{L: 5})
	if err != nil {
		t.Fatal(err)
	}
	got := paths[a3]
	if len(got) != 4 {
		t.Fatalf("got %d paths at L=5, want 4 (the paper's example)", len(got))
	}
	// At L=4 only the two short paths remain.
	paths4, err := Enumerate(g, q, []graph.NodeID{a3}, Options{L: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths4[a3]) != 2 {
		t.Fatalf("got %d paths at L=4, want 2", len(paths4[a3]))
	}
	// At L=3 there is no path to a3.
	paths3, err := Enumerate(g, q, []graph.NodeID{a3}, Options{L: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths3[a3]) != 0 {
		t.Fatalf("got %d paths at L=3, want 0", len(paths3[a3]))
	}
}

func TestEIPDFig1HandComputed(t *testing.T) {
	g, q, a3 := fig1(t)
	c := 0.15
	d := 1 - c
	want := c * (math.Pow(d, 5)*(0.33*0.3*0.6*0.3) +
		math.Pow(d, 4)*(0.33*0.5*0.3) +
		math.Pow(d, 5)*(0.33*0.4*0.5*0.3) +
		math.Pow(d, 4)*(0.33*0.6*0.3))
	got, err := EIPD(g, q, a3, Options{L: 5, C: c})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("EIPD = %v, want %v", got, want)
	}
}

func TestEIPDNoPath(t *testing.T) {
	g := graph.New(0)
	g.AddNodes(2)
	got, err := EIPD(g, 0, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("EIPD with no path = %v, want 0", got)
	}
}

func TestEnumerateRevisitsNodes(t *testing.T) {
	// Cycle 0→1→0 plus 1→2. Walks to 2 of length ≤ 4: 0-1-2 and 0-1-0-1-2.
	g := graph.New(0)
	g.AddNodes(3)
	g.MustSetEdge(0, 1, 0.5)
	g.MustSetEdge(1, 0, 0.5)
	g.MustSetEdge(1, 2, 0.5)
	paths, err := Enumerate(g, 0, []graph.NodeID{2}, Options{L: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths[2]) != 2 {
		t.Fatalf("got %d walks, want 2 (revisiting allowed)", len(paths[2]))
	}
	lens := map[int]bool{}
	for _, p := range paths[2] {
		lens[p.Len()] = true
	}
	if !lens[2] || !lens[4] {
		t.Errorf("walk lengths = %v, want {2,4}", lens)
	}
}

func TestEnumerateIntermediateTarget(t *testing.T) {
	// 0→1→2, target 1 AND 2: the walk through 1 must be recorded and the
	// search must continue past it.
	g := graph.New(0)
	g.AddNodes(3)
	g.MustSetEdge(0, 1, 0.5)
	g.MustSetEdge(1, 2, 0.5)
	paths, err := Enumerate(g, 0, []graph.NodeID{1, 2}, Options{L: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths[1]) != 1 || len(paths[2]) != 1 {
		t.Fatalf("paths to 1: %d, to 2: %d; want 1 and 1", len(paths[1]), len(paths[2]))
	}
}

func TestEnumerateMaxPaths(t *testing.T) {
	// Complete-ish digraph: blowup guaranteed.
	g := graph.New(0)
	g.AddNodes(6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i != j {
				g.MustSetEdge(graph.NodeID(i), graph.NodeID(j), 0.2)
			}
		}
	}
	_, err := Enumerate(g, 0, []graph.NodeID{1}, Options{L: 6, MaxPaths: 10})
	if !errors.Is(err, ErrTooManyPaths) {
		t.Fatalf("err = %v, want ErrTooManyPaths", err)
	}
}

func TestOptionsValidate(t *testing.T) {
	g, q, a3 := fig1(t)
	bad := []Options{{L: -1}, {C: 1.5}, {C: -0.2}, {MaxPaths: -3}}
	for _, o := range bad {
		if _, err := Enumerate(g, q, []graph.NodeID{a3}, o); err == nil {
			t.Errorf("Options %+v should be rejected", o)
		}
	}
	if _, err := Enumerate(g, 999, []graph.NodeID{a3}, Options{}); err == nil {
		t.Errorf("out-of-range source should fail")
	}
	if _, err := Enumerate(g, q, []graph.NodeID{999}, Options{}); err == nil {
		t.Errorf("out-of-range target should fail")
	}
	if _, err := NewCSRScorer(graph.Compile(g), Options{L: -2}); err == nil {
		t.Errorf("bad scorer options should fail")
	}
}

func TestPathHelpers(t *testing.T) {
	g := graph.New(0)
	g.AddNodes(2)
	g.MustSetEdge(0, 1, 0.5)
	g.MustSetEdge(1, 0, 0.25)
	p := Path{Nodes: []graph.NodeID{0, 1, 0, 1}}
	if p.Len() != 3 {
		t.Errorf("Len = %d, want 3", p.Len())
	}
	edges := p.Edges()
	if len(edges) != 3 {
		t.Fatalf("Edges len = %d", len(edges))
	}
	if edges[0] != (graph.EdgeKey{From: 0, To: 1}) || edges[2] != (graph.EdgeKey{From: 0, To: 1}) {
		t.Errorf("edge multiplicity lost: %v", edges)
	}
	if got, want := p.Prob(g), 0.5*0.25*0.5; math.Abs(got-want) > 1e-15 {
		t.Errorf("Prob = %v, want %v", got, want)
	}
	empty := Path{Nodes: []graph.NodeID{0}}
	if empty.Len() != 0 || empty.Edges() != nil || empty.Prob(g) != 1 {
		t.Errorf("trivial path helpers wrong")
	}
}

func TestEdgeSet(t *testing.T) {
	p1 := Path{Nodes: []graph.NodeID{0, 1, 2}}
	p2 := Path{Nodes: []graph.NodeID{0, 1, 3}}
	set := EdgeSet([]Path{p1, p2})
	if len(set) != 3 {
		t.Fatalf("set size = %d, want 3", len(set))
	}
	for _, k := range []graph.EdgeKey{{From: 0, To: 1}, {From: 1, To: 2}, {From: 1, To: 3}} {
		if _, ok := set[k]; !ok {
			t.Errorf("missing edge %v", k)
		}
	}
}

func randomGraph(n, deg int, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	g.AddNodes(n)
	for i := 0; i < n; i++ {
		for d := 0; d < deg; d++ {
			j := graph.NodeID(rng.Intn(n))
			if j == graph.NodeID(i) {
				continue
			}
			g.MustSetEdge(graph.NodeID(i), j, rng.Float64()+0.01)
		}
		g.NormalizeOut(graph.NodeID(i))
	}
	return g
}

// Property: the sweep scorer agrees with explicit enumeration on random
// graphs — the two EIPD evaluation strategies are interchangeable.
func TestQuickScorerMatchesEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(15, 2, rng)
		opt := Options{L: 4}
		sc, err := NewCSRScorer(graph.Compile(g), opt)
		if err != nil {
			return false
		}
		src := graph.NodeID(rng.Intn(15))
		scores, err := sc.Scores(src)
		if err != nil {
			return false
		}
		for target := 0; target < 15; target++ {
			if target == int(src) {
				continue
			}
			want, err := EIPD(g, src, graph.NodeID(target), opt)
			if err != nil {
				return false
			}
			if math.Abs(scores[target]-want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// With a large L the truncated score converges to the true PPR score: the
// truncation error is bounded by (1−c)^{L+1}.
func TestScorerConvergesToPPR(t *testing.T) {
	g := randomGraph(30, 3, rand.New(rand.NewSource(5)))
	sc, err := NewCSRScorer(graph.Compile(g), Options{L: 120})
	if err != nil {
		t.Fatal(err)
	}
	scores, err := sc.Scores(0)
	if err != nil {
		t.Fatal(err)
	}
	pi, _, err := ppr.PowerIteration(g, 0, ppr.Options{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 30; i++ {
		if math.Abs(scores[i]-pi[i]) > 1e-8 {
			t.Errorf("node %d: truncated %v vs PPR %v", i, scores[i], pi[i])
		}
	}
}

// The scorer must be reusable: consecutive queries from different sources
// must not leak state.
func TestScorerReuse(t *testing.T) {
	g := randomGraph(25, 3, rand.New(rand.NewSource(9)))
	sc, err := NewCSRScorer(graph.Compile(g), Options{L: 4})
	if err != nil {
		t.Fatal(err)
	}
	first, err := sc.Scores(0)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]float64(nil), first...)
	if _, err := sc.Scores(7); err != nil {
		t.Fatal(err)
	}
	again, err := sc.Scores(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range snapshot {
		if math.Abs(again[i]-snapshot[i]) > 1e-15 {
			t.Fatalf("scorer state leaked: node %d %v vs %v", i, again[i], snapshot[i])
		}
	}
}

func TestScorerRankAndSum(t *testing.T) {
	g, q, a3 := fig1(t)
	sc, err := NewCSRScorer(graph.Compile(g), Options{L: 5})
	if err != nil {
		t.Fatal(err)
	}
	outlook := g.Lookup("Outlook")
	ranked, err := sc.Rank(q, []graph.NodeID{a3, outlook}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 2 {
		t.Fatalf("rank len = %d", len(ranked))
	}
	if ranked[0].Node != outlook {
		t.Errorf("Outlook (closer) should outrank a3: %v", ranked)
	}
	if _, err := sc.Scores(999); err == nil {
		t.Errorf("out-of-range source should fail")
	}
}

func TestRankOutOfRangeCandidate(t *testing.T) {
	g, q, _ := fig1(t)
	sc, err := NewCSRScorer(graph.Compile(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := sc.Rank(q, []graph.NodeID{999}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Score != 0 {
		t.Errorf("out-of-range candidate should score 0")
	}
}
