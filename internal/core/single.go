package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"kgvote/internal/sgp"
	"kgvote/internal/signomial"
	"kgvote/internal/vote"
)

// SolveSingle is the basic single-vote solution (Algorithm 1): it
// processes the negative votes sequentially in a greedy manner, encoding
// each as its own SGP with hard constraints, solving it, updating the
// graph, and normalizing, before moving to the next vote. Positive votes
// are ignored (Section IV-B: a positive vote's best answer is already
// first, so there is nothing to optimize).
func (e *Engine) SolveSingle(votes []vote.Vote) (*Report, error) {
	return e.SolveSingleCtx(context.Background(), votes)
}

// SolveSingleCtx is SolveSingle with deadline propagation. Each greedy
// sub-solve applies its result before the next starts, so the
// cancellation contract is per-vote: a context cancelled before the
// first vote was processed aborts with the context error (nothing
// applied, callers retry the whole batch); cancelled between votes it
// returns the report accumulated so far, marked Partial with Consumed
// set to the processed prefix — the unprocessed remainder was neither
// applied nor discarded, so callers (Stream.FlushCtx) requeue it.
// Cancellation mid-solve stops the running sub-solve at its best-so-far
// iterate and applies it; that vote counts as consumed.
func (e *Engine) SolveSingleCtx(ctx context.Context, votes []vote.Vote) (*Report, error) {
	report := &Report{Votes: len(votes), Clusters: 1}
	consumed := 0
	for i, v := range votes {
		if err := ctxErr(ctx); err != nil {
			if consumed == 0 {
				return nil, fmt.Errorf("core: single-vote flush cancelled before solve: %w", err)
			}
			report.Partial = true
			break
		}
		if v.Kind == vote.Positive {
			report.Discarded++
			consumed++
			continue
		}
		sub, err := e.solveOneVote(ctx, v)
		if err != nil {
			return nil, fmt.Errorf("core: single-vote %d: %w", i, err)
		}
		report.merge(sub)
		consumed++
	}
	report.Consumed = consumed
	e.metrics.observeFlushStages(report)
	return report, nil
}

// solveOneVote encodes and solves the SGP of a single negative vote
// against the current graph, then applies the result. The vote's walks
// are enumerated once: a per-vote cache (the graph changes between the
// greedy loop's votes, so no wider scope is sound) is shared by the
// reachability probe and the encoder.
func (e *Engine) solveOneVote(ctx context.Context, v vote.Vote) (rep Report, err error) {
	tEnum := time.Now()
	fc, err := e.newFlushEnum([]vote.Vote{v})
	if err != nil {
		return rep, err
	}
	rep.EnumSeconds = time.Since(tEnum).Seconds()
	defer func() { rep.EnumCacheHits, rep.EnumCacheMisses = fc.Hits(), fc.Misses() }()
	reachable, err := e.bestReachable(v, fc)
	if err != nil {
		return rep, err
	}
	if !reachable {
		rep.Discarded = 1
		return rep, nil
	}
	p := e.newProgram()
	// The single-vote objective is only the weight-change distance of
	// Equation (12); there are no deviation variables.
	p.Lambda1 = 1
	p.Lambda2 = 0
	n, err := e.encodeVote(p, v, false, fc, &signomial.Builder{})
	if err != nil {
		return rep, err
	}
	e.addCapacityConstraints(p)
	tSolve := time.Now()
	// Routed through the cluster solver so an injected solver sees
	// single-vote programs too (the Lambda overrides ride along in the
	// program; the mode override rides in the params).
	sol, err := e.solver().SolveProgram(ctx, p, sgp.Params{Mode: sgp.Full, AL: e.opt.AL})
	if err != nil {
		return rep, err
	}
	rep.Partial = sol.Stopped
	rep.SolveSeconds = time.Since(tSolve).Seconds()
	changes := extractChanges(p, sol.X)
	rep.Encoded = 1
	rep.Variables = p.NumVars()
	rep.Constraints = n
	// The first n hard constraints are the vote's; the rest are node
	// capacity constraints.
	for i := 0; i < n && i < len(sol.HardSatisfied); i++ {
		if sol.HardSatisfied[i] {
			rep.Satisfied++
		}
	}
	rep.Outer = sol.Outer
	rep.InnerIters = sol.InnerIters
	rep.ChangedEdges = countChanged(p, sol.X)
	e.putProgram(p)
	applied, err := e.applyWeights(changes)
	rep.Applied = applied
	return rep, err
}

// countChanged counts edge variables that moved away from their initial
// value by more than a hair.
func countChanged(p *sgp.Program, x []float64) int {
	n := 0
	for i, v := range p.Vars {
		if v.Kind == sgp.EdgeVar && math.Abs(x[i]-v.Init) > 1e-9 {
			n++
		}
	}
	return n
}
