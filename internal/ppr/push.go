package ppr

import (
	"fmt"
	"math"

	"kgvote/internal/graph"
	"kgvote/internal/topk"
)

// This file implements the forward local-push solver for the truncated
// EIPD (DESIGN.md §16). Instead of sweeping a dense frontier level by
// level like pathidx.CSRScorer, LocalPush maintains the classic
// push invariant
//
//	truth(v) = π̂(v) + Σ_{u,l} r_l(u) · contribution of a walk resuming
//	           at u on step l
//
// where π̂ is the running estimate and r is residual walk mass that has
// not been settled yet. A residual below the RMax threshold is dropped
// instead of pushed; every drop's worst-case score contribution is
// accumulated into an exact, per-solve additive error bound, so the
// estimate carries its own certificate: |π̂(v) − truth(v)| ≤ Bound() for
// every v. RMax = 0 settles everything and reproduces the enumerator
// bit-for-bit up to float association order.
//
// The residuals are level-indexed (one sparse vector per walk length
// 1..L) because the paper's score is the *truncated* inverse P-distance:
// a unit of walk mass at node v on step l contributes c(1−c)^l to
// score(v) and at most tails[l] = Σ_{j=l..L} c(1−c)^j in total, and mass
// at level L propagates no further. The settled occupancies are retained
// per level so Incremental can later repair the invariant from a set of
// changed edges alone (push_test.go proves the bound; incremental.go
// uses the occupancies).

const (
	// DefaultPushL is the default truncation depth (matches
	// pathidx.DefaultL; the serving path typically runs L=4).
	DefaultPushL = 5
	// DefaultRMax is the default residual-drop threshold. Smaller
	// thresholds tighten the certified bound and cost more pushes.
	DefaultRMax = 1e-6
	// DefaultRebuildBound is the accumulated-bound ceiling above which
	// Incremental re-solves a tracked seed from scratch rather than
	// repairing it further (repairs only ever grow the bound).
	DefaultRebuildBound = 1e-3
	// DefaultMaxTracked bounds Incremental's tracked seed sets. Each
	// tracked seed holds sparse per-level occupancies, so memory is
	// O(L · reachable nodes) per seed.
	DefaultMaxTracked = 256
)

// Adjacency is the read-only out-edge view the push solver walks.
// *graph.CSR satisfies it directly; tests compile a mutable graph with
// graph.Compile. Row may return zero-weight (pruned) edges; the solver
// skips them, matching the enumerator.
type Adjacency interface {
	NumNodes() int
	Row(graph.NodeID) ([]graph.NodeID, []float64)
}

// PushOptions configures a local-push solve.
type PushOptions struct {
	// C is the restart probability; DefaultC if zero.
	C float64
	// L is the walk-length truncation in edges; DefaultPushL if zero.
	L int
	// RMax is the residual-drop threshold; DefaultRMax if zero,
	// negative means exact (never drop).
	RMax float64
	// RebuildBound is Incremental's from-scratch re-solve trigger;
	// DefaultRebuildBound if zero, negative disables rebuilds.
	RebuildBound float64
}

func (o PushOptions) withDefaults() PushOptions {
	if o.C == 0 {
		o.C = DefaultC
	}
	if o.L == 0 {
		o.L = DefaultPushL
	}
	if o.RMax == 0 {
		o.RMax = DefaultRMax
	}
	if o.RMax < 0 {
		o.RMax = 0
	}
	if o.RebuildBound == 0 {
		o.RebuildBound = DefaultRebuildBound
	}
	return o
}

// Validate reports configuration errors.
func (o PushOptions) Validate() error {
	o = o.withDefaults()
	if o.C <= 0 || o.C >= 1 {
		return fmt.Errorf("ppr: restart probability c=%v outside (0,1)", o.C)
	}
	if o.L < 1 {
		return fmt.Errorf("ppr: push L = %d must be >= 1", o.L)
	}
	return nil
}

// PushState is the result of one local-push solve: the score estimates,
// the settled per-level occupancies (the repair substrate), and the
// certified additive error bound. A PushState is not safe for concurrent
// mutation; Incremental serializes repairs behind its own lock.
type PushState struct {
	opt PushOptions
	// damps[l] = c(1−c)^l, the score weight of settled mass at level l.
	// tails[l] = Σ_{j=l..L} damps[j], the worst-case total contribution
	// of one unit of dropped mass at level l (the drop certificate).
	damps, tails []float64
	// occ[l], 0 ≤ l < L, is the settled walk-mass occupancy x_l(v).
	// Level L is settled into scores only — it propagates no further and
	// no repair ever reads it, so storing it would only cost memory.
	// occ[0] is used by source-mode solves; seeded solves start at 1.
	occ []map[graph.NodeID]float64
	// scores is the running estimate π̂(v) = Σ_l damps[l]·x_l(v).
	scores map[graph.NodeID]float64
	// bound is the accumulated certificate: Σ over dropped residual mass
	// m at level l of |m|·tails[l].
	bound  float64
	pushes int64
}

// frontier is one level's pending residual mass: a map for accumulation
// plus the insertion order, so settling is deterministic (map iteration
// order never leaks into float accumulation or push order).
type frontier struct {
	mass  map[graph.NodeID]float64
	order []graph.NodeID
}

func (f *frontier) add(v graph.NodeID, m float64) {
	if _, ok := f.mass[v]; !ok {
		f.order = append(f.order, v)
	}
	f.mass[v] += m
}

func newPushState(opt PushOptions) *PushState {
	opt = opt.withDefaults()
	st := &PushState{
		opt:    opt,
		damps:  make([]float64, opt.L+1),
		tails:  make([]float64, opt.L+1),
		occ:    make([]map[graph.NodeID]float64, opt.L),
		scores: make(map[graph.NodeID]float64),
	}
	damp := opt.C
	for l := 0; l <= opt.L; l++ {
		st.damps[l] = damp
		damp *= 1 - opt.C
	}
	tail := 0.0
	for l := opt.L; l >= 0; l-- {
		tail += st.damps[l]
		st.tails[l] = tail
	}
	for l := range st.occ {
		st.occ[l] = make(map[graph.NodeID]float64)
	}
	return st
}

func (st *PushState) newFrontiers() []*frontier {
	fr := make([]*frontier, st.opt.L+1)
	for l := range fr {
		fr[l] = &frontier{mass: make(map[graph.NodeID]float64)}
	}
	return fr
}

// settleLevel drains one level's frontier: each entry is either dropped
// into the bound (|mass| ≤ RMax) or pushed — settled into the occupancy
// and score at its level and propagated one step forward. Entries are
// processed in insertion order; out-edges in Row order.
func (st *PushState) settleLevel(adj Adjacency, fr []*frontier, l int) {
	f := fr[l]
	for _, v := range f.order {
		m := f.mass[v]
		if m == 0 {
			continue
		}
		if math.Abs(m) <= st.opt.RMax {
			st.bound += math.Abs(m) * st.tails[l]
			continue
		}
		st.pushes++
		if l >= 1 {
			st.scores[v] += st.damps[l] * m
		}
		if l < st.opt.L {
			st.occ[l][v] += m
			cols, wts := adj.Row(v)
			next := fr[l+1]
			for i, u := range cols {
				w := wts[i]
				if w == 0 {
					continue
				}
				next.add(u, m*w)
			}
		}
	}
	f.mass = nil
	f.order = nil
}

// LocalPush computes the truncated EIPD from source to every reachable
// node by forward local push, returning the state with its certified
// additive bound: |Score(v) − Φ_L(source, v)| ≤ Bound() for all v.
// Walks of length zero are excluded, matching the enumerator.
func LocalPush(adj Adjacency, source graph.NodeID, opt PushOptions) (*PushState, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if int(source) < 0 || int(source) >= adj.NumNodes() {
		return nil, fmt.Errorf("ppr: source %d out of range [0, %d)", source, adj.NumNodes())
	}
	st := newPushState(opt)
	fr := st.newFrontiers()
	fr[0].add(source, 1)
	for l := 0; l <= st.opt.L; l++ {
		st.settleLevel(adj, fr, l)
	}
	return st, nil
}

// LocalPushSeeded computes the truncated EIPD from a virtual source node
// whose out-edges are (ids[i], weights[i]) — the push twin of
// pathidx.CSRScorer.ScoresSeeded: the virtual hop lands the seed weights
// at level 1 (collecting c(1−c)·w) before pushing outward.
func LocalPushSeeded(adj Adjacency, ids []graph.NodeID, weights []float64, opt PushOptions) (*PushState, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if len(ids) != len(weights) {
		return nil, fmt.Errorf("ppr: %d seed ids but %d weights", len(ids), len(weights))
	}
	n := adj.NumNodes()
	var live int
	for i, v := range ids {
		if weights[i] == 0 {
			continue
		}
		if int(v) < 0 || int(v) >= n {
			return nil, fmt.Errorf("ppr: seed %d out of range [0, %d)", v, n)
		}
		live++
	}
	if live == 0 {
		return nil, fmt.Errorf("ppr: empty seed")
	}
	st := newPushState(opt)
	fr := st.newFrontiers()
	for i, v := range ids {
		if weights[i] == 0 {
			continue
		}
		fr[1].add(v, weights[i])
	}
	for l := 1; l <= st.opt.L; l++ {
		st.settleLevel(adj, fr, l)
	}
	return st, nil
}

// Repair restores the push invariant after the graph's edge weights
// changed, pushing residuals only from the endpoints of changed edges:
// per level, the occupancy delta is Δx_{l+1} = Δx_l·W' + x_l·ΔW, seeded
// solely by the x_l(from)·(new−old) injections at changed-edge heads, so
// the work is proportional to the flush's delta (and the mass it
// actually moves), not to |E|. adj must be the post-change graph; deltas
// must be sorted by (From, To) with no duplicates (see SortEdgeDeltas).
// Dropped repair mass accrues into the same certified bound, which
// therefore only grows — callers re-solve from scratch once it crosses
// RebuildBound.
func (st *PushState) Repair(adj Adjacency, deltas []EdgeDelta) {
	fr := st.newFrontiers()
	for l := 0; l <= st.opt.L; l++ {
		// Inject x_l·ΔW before settling this level's Δx_l: the injection
		// must read the pre-repair occupancy.
		if l < st.opt.L {
			occ := st.occ[l]
			for _, d := range deltas {
				if m := occ[d.From]; m != 0 && d.New != d.Old {
					fr[l+1].add(d.To, m*(d.New-d.Old))
				}
			}
		}
		st.settleLevel(adj, fr, l)
	}
}

// Score returns the estimate for one node.
func (st *PushState) Score(v graph.NodeID) float64 { return st.scores[v] }

// ScoreMap returns the estimate map itself; callers must treat it as
// read-only.
func (st *PushState) ScoreMap() map[graph.NodeID]float64 { return st.scores }

// Bound returns the certified additive error: every estimate is within
// Bound() of the exact truncated EIPD on the graph the state was last
// solved or repaired against.
func (st *PushState) Bound() float64 { return st.bound }

// Pushes returns the number of push operations performed so far.
func (st *PushState) Pushes() int64 { return st.pushes }

// Rank returns the top-k candidates by estimated score (descending,
// ties by node ID — the same order as pathidx and TopK). k ≤ 0 keeps all.
func (st *PushState) Rank(candidates []graph.NodeID, k int) []Ranked {
	return topk.Select(nil, candidates, k, st.Score)
}
