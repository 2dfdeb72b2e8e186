package synth

import (
	"math"
	"math/rand"

	"kgvote/internal/core"
	"kgvote/internal/graph"
	"kgvote/internal/qa"
)

// CorruptWeights injects multiplicative log-normal noise into every edge
// weight: w ← w·exp(sigma·N(0,1)), with each node's out-sum re-capped at
// 1 so the graph stays a valid sub-stochastic walk.
//
// This models the paper's motivating premise that "the knowledge graph
// constructed based on source data may contain errors": the corrupted
// graph mis-ranks answers in a way user votes can correct, which is the
// regime the effectiveness experiments (Tables IV–V, Fig 5) measure.
func CorruptWeights(g *graph.Graph, sigma float64, seed int64) {
	if sigma <= 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	// Collect edges first: mutating while iterating is safe for SetWeight,
	// but the deterministic order matters for reproducibility.
	keys := g.EdgeKeys()
	for _, k := range keys {
		w := g.Weight(k.From, k.To)
		if w <= 0 {
			continue
		}
		noisy := w * math.Exp(sigma*rng.NormFloat64())
		if noisy > 1 {
			noisy = 1
		}
		if noisy < 1e-6 {
			noisy = 1e-6
		}
		// The edge exists, so SetWeight cannot fail.
		_ = g.SetWeight(k.From, k.To, noisy)
	}
	for i := 0; i < g.NumNodes(); i++ {
		n := graph.NodeID(i)
		if s := g.OutWeightSum(n); s > 1 {
			for _, e := range g.Out(n) {
				_ = g.SetWeight(n, e.To, e.Weight/s)
			}
		}
	}
}

// CorruptSystem applies CorruptWeights to a built system's graph through
// its engine (core.Engine.ApplyWeightSet), so the serving snapshot and the
// engine's own ranking both see the corrupted weights: after construction
// an engine's weights change only through the engine.
func CorruptSystem(sys *qa.System, sigma float64, seed int64) error {
	g := sys.Aug.Graph.Clone()
	CorruptWeights(g, sigma, seed)
	ws := make([]core.WeightChange, 0, g.NumEdges())
	g.Edges(func(from, to graph.NodeID, w float64) {
		ws = append(ws, core.WeightChange{From: from, To: to, Weight: w})
	})
	return sys.Engine.ApplyWeightSet(ws)
}
