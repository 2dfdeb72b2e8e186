package core

import (
	"fmt"

	"kgvote/internal/graph"
	"kgvote/internal/pathidx"
	"kgvote/internal/sgp"
	"kgvote/internal/signomial"
	"kgvote/internal/vote"
)

// similaritySignomial turns a set of walks into the signomial
// Σ_z c·(1−c)^{|z|} · Π x_edge, registering every edge on the walks as a
// program variable initialized to its current graph weight.
//
// Out-edges of the query node itself are frozen: they fold into the
// monomial coefficient instead of becoming variables. Those weights are
// derived from the question's text (Section III-A) and are re-derived for
// every future question, so "optimizing" them satisfies the vote without
// teaching the knowledge graph anything — exactly the failure the paper's
// Fig. 1 avoids, where the q→entity weights stay 0.33 while the entity
// edges change.
func (e *Engine) similaritySignomial(p *sgp.Program, query graph.NodeID, paths []pathidx.Path, b *signomial.Builder) *signomial.Signomial {
	sig := signomial.NewConst(0)
	c := e.opt.C
	for _, walk := range paths {
		coef := c
		b.StartMonomial()
		for i := 0; i < walk.Len(); i++ {
			edge := walk.Edge(i)
			coef *= 1 - c
			if edge.From == query {
				coef *= e.g.Weight(edge.From, edge.To)
				continue
			}
			b.Var(p.EdgeVarIndex(edge, e.g.Weight(edge.From, edge.To)))
		}
		sig.Add(b.Finish(coef))
	}
	return sig.Normalize()
}

// encodeVote adds the constraints of one vote to the program: for every
// non-best answer a in the ranked list,
//
//	S(q, a) − S(q, a*) + margin ≤ 0
//
// as a hard constraint (Equation (11), single-vote) or a soft constraint
// with a deviation variable (Equation (15), multi-vote). It returns the
// number of constraints added.
func (e *Engine) encodeVote(p *sgp.Program, v vote.Vote, soft bool, fc *pathidx.EnumCache, b *signomial.Builder) (int, error) {
	if err := v.Validate(); err != nil {
		return 0, err
	}
	paths, err := fc.Paths(v.Query, v.Ranked)
	if err != nil {
		return 0, err
	}
	bestSig := e.similaritySignomial(p, v.Query, paths[v.Best], b)
	// Precondition: divide the vote's constraints by S(q, a*) at the
	// initial point, so residuals are relative similarity gaps of order 1
	// rather than raw scores of order 1e-2. This leaves the feasible set
	// unchanged but puts the sigmoid objective (w = 300) into its intended
	// regime: comfortably-satisfied constraints saturate to 0 instead of
	// leaking gradient that would distort the graph.
	scale := p.EvalAtInit(bestSig)
	if scale < 1e-12 {
		scale = 1e-12
	}
	added := 0
	for _, a := range v.Ranked {
		if a == v.Best {
			continue
		}
		sig := e.similaritySignomial(p, v.Query, paths[a], b)
		sig.AddScaled(bestSig, -1)
		sig.Normalize()
		// The margin is added after preconditioning, making it a relative
		// separation: S(q,a) ≤ (1 − margin)·S(q,a*). A meaningful relative
		// margin keeps the solved ordering stable through the post-solve
		// normalization nudge.
		scaled := signomial.NewConst(e.opt.Margin)
		scaled.AddScaled(sig, 1/scale)
		if soft {
			p.AddWeightedSoftConstraint(scaled, v.EffectiveWeight())
		} else {
			p.AddHardConstraint(scaled)
		}
		added++
	}
	return added, nil
}

// addCapacityConstraints adds one hard constraint per source node whose
// edges are program variables:
//
//	Σ x_e (registered edges of the node) + fixed − cap ≤ 0
//
// where fixed is the node's out-weight outside the program and cap is
// max(1, the node's current out-sum). The solver therefore can never grow
// a node's out-mass beyond what the graph already grants it — which makes
// the post-solve NormalizeEdges step a no-op (the solution is feasible as
// solved) and lets vote constraints use small margins without being
// perturbed after the fact.
func (e *Engine) addCapacityConstraints(p *sgp.Program) {
	type nodeAcc struct {
		vars []int
		sum  float64 // Σ inits of registered vars
	}
	nodes := make(map[graph.NodeID]*nodeAcc)
	order := make([]graph.NodeID, 0)
	for i, v := range p.Vars {
		if v.Kind != sgp.EdgeVar {
			continue
		}
		acc, ok := nodes[v.Edge.From]
		if !ok {
			acc = &nodeAcc{}
			nodes[v.Edge.From] = acc
			order = append(order, v.Edge.From)
		}
		acc.vars = append(acc.vars, i)
		acc.sum += v.Init
	}
	for _, n := range order {
		acc := nodes[n]
		total := e.g.OutWeightSum(n)
		cap := total
		if cap < 1 {
			cap = 1
		}
		fixed := total - acc.sum
		sig := signomial.NewConst(fixed - cap)
		for _, vi := range acc.vars {
			sig.Add(signomial.Monomial(1, vi))
		}
		p.AddHardConstraint(sig)
	}
}

// newProgram returns an sgp.Program configured from the engine options,
// reusing a pooled workspace (variable slices, edge index, constraint
// slices) from an earlier solve when one is available — per-cluster
// solves run back to back every flush and would otherwise rebuild these
// from scratch each time.
func (e *Engine) newProgram() *sgp.Program {
	p, _ := e.progPool.Get().(*sgp.Program)
	if p == nil {
		p = sgp.NewProgram()
	} else {
		p.Reset()
	}
	p.Lambda1 = e.opt.Lambda1
	p.Lambda2 = e.opt.Lambda2
	p.SigmoidW = e.opt.SigmoidW
	return p
}

// putProgram returns a program's workspace to the pool. The caller must
// not retain references into the program afterwards.
func (e *Engine) putProgram(p *sgp.Program) { e.progPool.Put(p) }

// extractChanges reads the solved edge-variable values out of a solution.
func extractChanges(p *sgp.Program, x []float64) map[graph.EdgeKey]float64 {
	out := make(map[graph.EdgeKey]float64)
	for i, v := range p.Vars {
		if v.Kind == sgp.EdgeVar {
			out[v.Edge] = x[i]
		}
	}
	return out
}

// bestReachable reports whether any walk of length ≤ L reaches the vote's
// best answer. Votes whose best answer is unreachable cannot be encoded
// meaningfully (their similarity signomial is identically zero).
func (e *Engine) bestReachable(v vote.Vote, fc *pathidx.EnumCache) (bool, error) {
	paths, err := fc.Paths(v.Query, []graph.NodeID{v.Best})
	if err != nil {
		return false, err
	}
	return len(paths[v.Best]) > 0, nil
}

// judge applies the Section V judgment algorithm to one vote, reusing the
// flush's cached walk sets when available.
func (e *Engine) judge(v vote.Vote, fc *pathidx.EnumCache) (bool, error) {
	if fc == nil {
		return vote.Judge(e.g, v, e.opt.ExtremeConst, e.opt.pathOptions())
	}
	if err := v.Validate(); err != nil {
		return false, err
	}
	if v.Kind == vote.Positive {
		return true, nil
	}
	rank := v.BestRank()
	rival := v.Ranked[rank-2]
	paths, err := fc.Paths(v.Query, []graph.NodeID{v.Best, rival})
	if err != nil {
		return false, err
	}
	return vote.JudgeWithPaths(v, e.opt.ExtremeConst, e.opt.pathOptions(), paths)
}

// filterVotes partitions votes into encodable and discarded per the
// judgment algorithm, fanning the per-vote judgments out over
// Options.Workers. Positive votes always pass. The partition preserves
// input order regardless of worker scheduling.
func (e *Engine) filterVotes(votes []vote.Vote, fc *pathidx.EnumCache) (kept, discarded []vote.Vote, err error) {
	oks := make([]bool, len(votes))
	err = runIndexed(e.opt.Workers, len(votes), func(i int) error {
		ok, err := e.judge(votes[i], fc)
		if err != nil {
			return fmt.Errorf("core: judging vote %d: %w", i, err)
		}
		oks[i] = ok
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for i, v := range votes {
		if oks[i] {
			kept = append(kept, v)
		} else {
			discarded = append(discarded, v)
		}
	}
	return kept, discarded, nil
}
