// Package pathidx implements path enumeration with length pruning and the
// extended inverse P-distance (EIPD) of Section IV-A:
//
//	Φ(vq, va) = Σ_{z: vq ⇝ va, |z| ≤ L} P[z] · c · (1 − c)^{|z|}
//
// where the sum ranges over all walks (nodes may repeat) of at most L
// edges and P[z] is the product of the edge weights along z. By Theorem 1
// of the paper the untruncated sum equals the Personalized PageRank score;
// truncation at L (default 5) is the paper's pruning strategy.
//
// Two evaluation strategies are provided:
//
//   - Enumerate/EIPD list the walks explicitly. This is what the SGP
//     encoding needs, because each walk becomes a monomial over edge-weight
//     variables.
//   - CSRScorer computes Σ_{l≤L} c(1−c)^l (Wˡ)_{q,·} with L sparse
//     vector–matrix sweeps over a compiled graph.CSR, scoring every node
//     at once. It is the one scorer used for ranking and is provably
//     equal to the enumerated sum.
package pathidx

import (
	"fmt"

	"kgvote/internal/graph"
)

// DefaultL is the paper's default path-length pruning threshold.
const DefaultL = 5

// DefaultMaxPaths bounds explicit enumeration to guard against
// combinatorial blowup on dense graphs.
const DefaultMaxPaths = 1 << 21

// Path is one walk through the graph, endpoints included. Its length |z|
// is the number of edges, len(Nodes)−1.
type Path struct {
	Nodes []graph.NodeID
}

// Len returns the number of edges of the walk.
func (p Path) Len() int { return len(p.Nodes) - 1 }

// Edges returns the directed edges along the walk, in order and with
// multiplicity (a walk may use an edge more than once).
func (p Path) Edges() []graph.EdgeKey {
	if len(p.Nodes) < 2 {
		return nil
	}
	return p.AppendEdges(make([]graph.EdgeKey, 0, len(p.Nodes)-1))
}

// Edge returns the i-th directed edge of the walk without allocating.
// Valid for 0 ≤ i < Len().
func (p Path) Edge(i int) graph.EdgeKey {
	return graph.EdgeKey{From: p.Nodes[i], To: p.Nodes[i+1]}
}

// AppendEdges appends the walk's edges to dst and returns the extended
// slice — the allocation-free variant of Edges for hot loops that reuse a
// caller-owned buffer.
func (p Path) AppendEdges(dst []graph.EdgeKey) []graph.EdgeKey {
	for i := 0; i+1 < len(p.Nodes); i++ {
		dst = append(dst, graph.EdgeKey{From: p.Nodes[i], To: p.Nodes[i+1]})
	}
	return dst
}

// Prob returns P[z]: the product of the edge weights along the walk in g.
func (p Path) Prob(g *graph.Graph) float64 {
	prob := 1.0
	for i := 0; i+1 < len(p.Nodes); i++ {
		prob *= g.Weight(p.Nodes[i], p.Nodes[i+1])
	}
	return prob
}

// ErrTooManyPaths is returned when enumeration exceeds the configured
// bound.
var ErrTooManyPaths = fmt.Errorf("pathidx: path enumeration exceeded limit")

// Options configures enumeration and scoring.
type Options struct {
	// L is the maximum walk length in edges; DefaultL if zero.
	L int
	// C is the restart probability; ppr.DefaultC (0.15) if zero.
	C float64
	// MaxPaths bounds enumeration; DefaultMaxPaths if zero.
	MaxPaths int
}

func (o Options) withDefaults() Options {
	if o.L == 0 {
		o.L = DefaultL
	}
	if o.C == 0 {
		o.C = 0.15
	}
	if o.MaxPaths == 0 {
		o.MaxPaths = DefaultMaxPaths
	}
	return o
}

// Validate reports configuration errors.
func (o Options) Validate() error {
	o = o.withDefaults()
	if o.L < 1 {
		return fmt.Errorf("pathidx: L=%d must be >= 1", o.L)
	}
	if o.C <= 0 || o.C >= 1 {
		return fmt.Errorf("pathidx: c=%v outside (0,1)", o.C)
	}
	if o.MaxPaths < 1 {
		return fmt.Errorf("pathidx: MaxPaths=%d must be >= 1", o.MaxPaths)
	}
	return nil
}

// Enumerate returns, for every target, all walks from source to that
// target of at most opt.L edges. Walks may revisit nodes (and targets):
// an intermediate visit to a target both records a walk and continues.
func Enumerate(g *graph.Graph, source graph.NodeID, targets []graph.NodeID, opt Options) (map[graph.NodeID][]Path, error) {
	enumerateCalls.Add(1)
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	if int(source) < 0 || int(source) >= g.NumNodes() {
		return nil, fmt.Errorf("pathidx: source %d out of range", source)
	}
	isTarget := make(map[graph.NodeID]bool, len(targets))
	for _, t := range targets {
		if int(t) < 0 || int(t) >= g.NumNodes() {
			return nil, fmt.Errorf("pathidx: target %d out of range", t)
		}
		isTarget[t] = true
	}
	out := make(map[graph.NodeID][]Path, len(targets))
	stack := make([]graph.NodeID, 1, opt.L+1)
	stack[0] = source
	total := 0
	var dfs func(at graph.NodeID, depth int) error
	dfs = func(at graph.NodeID, depth int) error {
		if depth > 0 && isTarget[at] {
			total++
			if total > opt.MaxPaths {
				return fmt.Errorf("%w (%d)", ErrTooManyPaths, opt.MaxPaths)
			}
			out[at] = append(out[at], Path{Nodes: append([]graph.NodeID(nil), stack...)})
		}
		if depth == opt.L {
			return nil
		}
		for _, e := range g.Out(at) {
			if e.Weight == 0 {
				continue
			}
			stack = append(stack, e.To)
			if err := dfs(e.To, depth+1); err != nil {
				return err
			}
			stack = stack[:len(stack)-1]
		}
		return nil
	}
	if err := dfs(source, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// EIPD computes the extended inverse P-distance Φ(source, target) by
// explicit enumeration. It returns 0 when no walk of length ≤ L exists.
func EIPD(g *graph.Graph, source, target graph.NodeID, opt Options) (float64, error) {
	paths, err := Enumerate(g, source, []graph.NodeID{target}, opt)
	if err != nil {
		return 0, err
	}
	opt = opt.withDefaults()
	return SumPaths(g, paths[target], opt.C), nil
}

// SumPaths evaluates Σ P[z]·c·(1−c)^{|z|} over the given walks.
func SumPaths(g *graph.Graph, paths []Path, c float64) float64 {
	var s float64
	for _, p := range paths {
		damp := c
		for i := 0; i < p.Len(); i++ {
			damp *= 1 - c
		}
		s += p.Prob(g) * damp
	}
	return s
}

// EdgeSet returns the set of distinct edges used by any of the walks.
// This is Set(v) of Section V (judgment algorithm) and E(t) of Section
// VI-A (vote similarity).
func EdgeSet(paths []Path) map[graph.EdgeKey]struct{} {
	set := make(map[graph.EdgeKey]struct{})
	AddEdgeSet(set, paths)
	return set
}

// AddEdgeSet inserts the distinct edges of the walks into set — the
// allocation-free variant of EdgeSet for callers that accumulate over
// many walk lists (no per-walk edge slice is materialized).
func AddEdgeSet(set map[graph.EdgeKey]struct{}, paths []Path) {
	for _, p := range paths {
		for i := 0; i+1 < len(p.Nodes); i++ {
			set[p.Edge(i)] = struct{}{}
		}
	}
}
