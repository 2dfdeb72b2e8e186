package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"kgvote/internal/graph"
	"kgvote/internal/pathidx"
	"kgvote/internal/topk"
	"kgvote/internal/vote"
)

// Engine optimizes a knowledge graph from user votes. It owns the graph it
// was created with and mutates it in place as votes are applied; use
// graph.Clone before constructing the engine to preserve the original.
//
// An Engine is not safe for concurrent use by multiple writers, but it
// publishes an immutable, epoch-stamped GraphSnapshot (see Serving) that
// any number of goroutines may read concurrently while the single writer
// keeps optimizing: the snapshot is republished after every batch of
// weight changes.
//
// After New, weights change only through the engine: every write it makes
// (solve, ApplyWeightSet, Restore, ImportWeightSet) republishes the
// snapshot, and callers must not set weights on the graph behind its
// back. Nodes attached since the last publish are query nodes, which have
// no in-edges. Together these make the published snapshot exact for the
// engine's own ranking (see rank).
type Engine struct {
	g   *graph.Graph
	opt Options

	// epoch counts snapshot publications; it is written only by the
	// engine's single writer and read through the published snapshot.
	epoch   uint64
	serving atomic.Pointer[GraphSnapshot]

	// metrics, when non-nil, receives solve instrumentation (nil-safe;
	// see SetMetrics).
	metrics *Metrics

	// clusterSolver, when non-nil, replaces the in-process solve of each
	// finished program (see SetClusterSolver).
	clusterSolver ClusterSolver

	// progPool recycles sgp.Program workspaces across solves (the
	// split-and-merge path builds one program per cluster per flush).
	progPool sync.Pool
}

// New returns an engine over g. Zero-valued option fields take the
// paper's defaults.
func New(g *graph.Graph, opt Options) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{g: g, opt: opt.withDefaults()}
	if err := e.publish(nil); err != nil {
		return nil, err
	}
	return e, nil
}

// Graph returns the engine's (mutable) graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Options returns the engine's effective options.
func (e *Engine) Options() Options { return e.opt }

// Similarity evaluates S(vq, va) with the truncated extended inverse
// P-distance.
func (e *Engine) Similarity(q, a graph.NodeID) (float64, error) {
	if int(a) < 0 || int(a) >= e.g.NumNodes() {
		return 0, fmt.Errorf("core: target %d out of range [0, %d)", a, e.g.NumNodes())
	}
	ranked, err := e.rank(q, []graph.NodeID{a}, 1)
	if err != nil {
		return 0, err
	}
	return ranked[0].Score, nil
}

// Rank returns the top-K ranked answer list for a query.
func (e *Engine) Rank(q graph.NodeID, answers []graph.NodeID) ([]pathidx.Ranked, error) {
	return e.rank(q, answers, e.opt.K)
}

// RankAll ranks every answer (not just the top K); used by evaluation.
func (e *Engine) RankAll(q graph.NodeID, answers []graph.NodeID) ([]pathidx.Ranked, error) {
	return e.rank(q, answers, 0)
}

// rank scores answers from q on the published snapshot, with q's live
// out-edges as the seed vector: the call the serving path makes for a
// question. The snapshot carries the graph's current weights (the
// Engine invariant), and a node attached since it was compiled has no
// in-edges, so no walk from the seeds can reach one and the ranking is
// bitwise the one a sweep from q over the live graph would give. A q
// without a live out-edge reaches nothing and scores 0 everywhere.
func (e *Engine) rank(q graph.NodeID, answers []graph.NodeID, k int) ([]pathidx.Ranked, error) {
	if int(q) < 0 || int(q) >= e.g.NumNodes() {
		return nil, fmt.Errorf("core: source %d out of range [0, %d)", q, e.g.NumNodes())
	}
	var ids []graph.NodeID
	var ws []float64
	for _, out := range e.g.Out(q) {
		if out.Weight != 0 {
			ids = append(ids, out.To)
			ws = append(ws, out.Weight)
		}
	}
	if len(ids) == 0 {
		return topk.FromScores(nil, nil, answers, k), nil
	}
	return e.Serving().RankSeeded("", ids, ws, answers, k)
}

// RankOf returns the 1-based position of answer among answers for query,
// under the current graph.
func (e *Engine) RankOf(q, answer graph.NodeID, answers []graph.NodeID) (int, error) {
	ranked, err := e.RankAll(q, answers)
	if err != nil {
		return 0, err
	}
	for i, r := range ranked {
		if r.Node == answer {
			return i + 1, nil
		}
	}
	return 0, fmt.Errorf("core: answer %d not among candidates", answer)
}

// CollectVote runs a query, ranks the answers, and forms the vote implied
// by the user's best choice. It is a convenience wrapper used by examples
// and the CLI.
func (e *Engine) CollectVote(q graph.NodeID, answers []graph.NodeID, best graph.NodeID) (vote.Vote, error) {
	ranked, err := e.Rank(q, answers)
	if err != nil {
		return vote.Vote{}, err
	}
	list := make([]graph.NodeID, len(ranked))
	for i, r := range ranked {
		list[i] = r.Node
	}
	return vote.FromRanking(q, list, best)
}

// applyWeights writes solved variable values back into the graph,
// normalizes the touched source nodes per the configured mode, and
// republishes the serving snapshot — every optimization batch ends here,
// so the published epoch advances monotonically with each solve. It
// returns the final post-normalization weight of every touched edge (see
// Report.Applied) so callers can persist the solve's effect.
func (e *Engine) applyWeights(changes map[graph.EdgeKey]float64) ([]WeightChange, error) {
	if len(changes) == 0 {
		// Nothing changed, but the epoch still advances: an empty
		// non-nil delta tells publish it may retain everything.
		return nil, e.publish([]WeightChange{})
	}
	preSums := make(map[graph.NodeID]float64)
	for k := range changes {
		if _, ok := preSums[k.From]; !ok {
			preSums[k.From] = e.g.OutWeightSum(k.From)
		}
	}
	for k, w := range changes {
		if err := e.g.SetWeight(k.From, k.To, w); err != nil {
			return nil, fmt.Errorf("core: apply weights: %w", err)
		}
	}
	switch e.opt.Normalize {
	case NoNormalize:
	case UnitSum:
		for n := range preSums {
			e.g.NormalizeOut(n)
		}
	case CapSum:
		for n, pre := range preSums {
			// The solve must not grow a node's out-mass beyond what the
			// graph already granted it: cap at max(1, pre-solve sum).
			// Graphs built with super-stochastic nodes (e.g. weight-1
			// answer attachment) keep their shape; reductions always stand.
			target := pre
			if target < 1 {
				target = 1
			}
			cur := e.g.OutWeightSum(n)
			if cur <= target {
				continue
			}
			scale := target / cur
			for _, edge := range e.g.Out(n) {
				if err := e.g.SetWeight(n, edge.To, edge.Weight*scale); err != nil {
					return nil, fmt.Errorf("core: normalize: %w", err)
				}
			}
		}
	}
	applied := e.appliedWeights(changes, preSums)
	return applied, e.publish(applied)
}

// appliedWeights collects the final weights of every edge a solve could
// have modified: under NoNormalize exactly the solved edges, otherwise
// every out-edge of each normalized source node (normalization rescales
// siblings of solved edges too). Order is deterministic.
func (e *Engine) appliedWeights(changes map[graph.EdgeKey]float64, preSums map[graph.NodeID]float64) []WeightChange {
	if e.opt.Normalize == NoNormalize {
		out := make([]WeightChange, 0, len(changes))
		for k := range changes {
			out = append(out, WeightChange{From: k.From, To: k.To, Weight: e.g.Weight(k.From, k.To)})
		}
		sortWeightChanges(out)
		return out
	}
	nodes := make([]graph.NodeID, 0, len(preSums))
	for n := range preSums {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	var out []WeightChange
	for _, n := range nodes {
		for _, edge := range e.g.Out(n) {
			out = append(out, WeightChange{From: n, To: edge.To, Weight: edge.Weight})
		}
	}
	return out
}

func sortWeightChanges(ws []WeightChange) {
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].From != ws[j].From {
			return ws[i].From < ws[j].From
		}
		return ws[i].To < ws[j].To
	})
}

// ApplyWeightSet writes a list of absolute edge weights into the graph —
// no solving, no normalization — and republishes the serving snapshot.
// It is the crash-recovery fast path: replaying the WeightChange lists a
// stream logged per flush reproduces the post-flush graph exactly,
// because each list already carries final post-normalization values.
func (e *Engine) ApplyWeightSet(ws []WeightChange) error {
	for _, wc := range ws {
		if err := e.g.SetWeight(wc.From, wc.To, wc.Weight); err != nil {
			return fmt.Errorf("core: apply weight set: %w", err)
		}
	}
	return e.publish(ws)
}
