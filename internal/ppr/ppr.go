// Package ppr implements Personalized PageRank over the weighted graph
// substrate, following Equation (1) of the paper:
//
//	π_vq = (1 − c)·M·π_vq + c·u_vq
//
// where M_ij = w(vj, vi) and u_vq is the one-hot preference vector of the
// query node. Two solvers are provided: power iteration and Gauss–Seidel.
// The per-answer "random walk" evaluation of the paper's baseline [5] is
// in this package as well (see Walker).
package ppr

import (
	"fmt"
	"math"

	"kgvote/internal/graph"
	"kgvote/internal/topk"
)

// DefaultC is the restart probability used throughout the paper (c ≈ 0.15).
const DefaultC = 0.15

// Options configures a PPR solve.
type Options struct {
	// C is the restart probability; DefaultC if zero.
	C float64
	// Tol is the L1 convergence tolerance; 1e-10 if zero.
	Tol float64
	// MaxIter bounds the number of iterations; 1000 if zero.
	MaxIter int
}

func (o Options) withDefaults() Options {
	if o.C == 0 {
		o.C = DefaultC
	}
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter == 0 {
		o.MaxIter = 1000
	}
	return o
}

// Validate reports configuration errors.
func (o Options) Validate() error {
	o = o.withDefaults()
	if o.C <= 0 || o.C >= 1 {
		return fmt.Errorf("ppr: restart probability c=%v outside (0,1)", o.C)
	}
	if o.Tol <= 0 {
		return fmt.Errorf("ppr: tolerance %v must be positive", o.Tol)
	}
	return nil
}

// PowerIteration computes the PPR vector of source by fixed-point
// iteration. The returned vector has one entry per node; entry i is
// π_{source, i}. The iteration count actually used is also returned.
//
// Nodes without outgoing edges lose their walk mass (the walk stops), so
// the vector sums to at most 1; this matches the extended inverse
// P-distance semantics of Section IV-A.
func PowerIteration(g *graph.Graph, source graph.NodeID, opt Options) ([]float64, int, error) {
	if err := opt.Validate(); err != nil {
		return nil, 0, err
	}
	opt = opt.withDefaults()
	n := g.NumNodes()
	if int(source) < 0 || int(source) >= n {
		return nil, 0, fmt.Errorf("ppr: source %d out of range [0, %d)", source, n)
	}
	pi := make([]float64, n)
	next := make([]float64, n)
	pi[source] = 1
	var iter int
	for iter = 1; iter <= opt.MaxIter; iter++ {
		for i := range next {
			next[i] = 0
		}
		next[source] = opt.C
		damp := 1 - opt.C
		for from := 0; from < n; from++ {
			p := pi[from]
			if p == 0 {
				continue
			}
			for _, e := range g.Out(graph.NodeID(from)) {
				next[e.To] += damp * p * e.Weight
			}
		}
		var diff float64
		for i := range pi {
			diff += math.Abs(next[i] - pi[i])
		}
		pi, next = next, pi
		if diff < opt.Tol {
			break
		}
	}
	return pi, iter, nil
}

// GaussSeidel solves the PPR linear system
//
//	(I − (1−c)·Mᵀ restricted appropriately) π = c·u
//
// in-place with Gauss–Seidel sweeps over the reverse adjacency. It
// converges faster than power iteration on most graphs and serves as an
// independent oracle for tests.
func GaussSeidel(g *graph.Graph, source graph.NodeID, opt Options) ([]float64, int, error) {
	if err := opt.Validate(); err != nil {
		return nil, 0, err
	}
	opt = opt.withDefaults()
	n := g.NumNodes()
	if int(source) < 0 || int(source) >= n {
		return nil, 0, fmt.Errorf("ppr: source %d out of range [0, %d)", source, n)
	}
	// π_i = c·u_i + (1−c)·Σ_j w(j,i)·π_j needs in-edges of i.
	rev := g.Reverse()
	pi := make([]float64, n)
	pi[source] = opt.C
	damp := 1 - opt.C
	var iter int
	for iter = 1; iter <= opt.MaxIter; iter++ {
		var diff float64
		for i := 0; i < n; i++ {
			var acc float64
			for _, e := range rev.Out(graph.NodeID(i)) {
				// e.To is an in-neighbor j of i with weight w(j, i).
				acc += e.Weight * pi[e.To]
			}
			v := damp * acc
			if graph.NodeID(i) == source {
				v += opt.C
			}
			diff += math.Abs(v - pi[i])
			pi[i] = v
		}
		if diff < opt.Tol {
			break
		}
	}
	return pi, iter, nil
}

// Ranked is one entry of a ranked answer list (pathidx.Ranked is the
// same type).
type Ranked = topk.Ranked

// TopK ranks the candidate nodes by their entries in the score vector,
// descending, breaking ties by node ID for determinism, and returns at
// most k entries. k ≤ 0 means all candidates.
func TopK(scores []float64, candidates []graph.NodeID, k int) []Ranked {
	return topk.FromScores(nil, scores, candidates, k)
}

// Walker evaluates query→answer similarity the way the paper's baseline
// [5] does: one linear-system solve per answer evaluation, so the cost of
// ranking |A| answers is linear in |A|. It exists to reproduce Table VI's
// comparison against the extended inverse P-distance.
type Walker struct {
	g   *graph.Graph
	opt Options
}

// NewWalker returns a Walker over g.
func NewWalker(g *graph.Graph, opt Options) (*Walker, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return &Walker{g: g, opt: opt.withDefaults()}, nil
}

// Similarity returns π_{query, answer}, recomputing the solve for every
// call (deliberately, to model the baseline's per-answer cost).
func (w *Walker) Similarity(query, answer graph.NodeID) (float64, error) {
	pi, _, err := GaussSeidel(w.g, query, w.opt)
	if err != nil {
		return 0, err
	}
	if int(answer) < 0 || int(answer) >= len(pi) {
		return 0, fmt.Errorf("ppr: answer %d out of range", answer)
	}
	return pi[answer], nil
}

// Rank ranks the answers for a query with one solve per answer, returning
// the top-k list.
func (w *Walker) Rank(query graph.NodeID, answers []graph.NodeID, k int) ([]Ranked, error) {
	scores := make([]float64, w.g.NumNodes())
	for _, a := range answers {
		s, err := w.Similarity(query, a)
		if err != nil {
			return nil, err
		}
		scores[a] = s
	}
	return TopK(scores, answers, k), nil
}
