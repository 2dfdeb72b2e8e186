package core

import (
	"context"
	"fmt"
	"time"

	"kgvote/internal/pathidx"
	"kgvote/internal/signomial"
	"kgvote/internal/vote"
)

// SolveMulti is the multi-vote solution of Section V: the judgment
// algorithm first discards votes that can never be satisfied; the
// remaining negative AND positive votes are encoded into one SGP with a
// deviation variable per constraint and the sigmoid objective of Equation
// (19); one solve adjusts all edge weights at once, letting the solver
// arbitrate conflicts between votes.
//
// The flush pipeline enumerates each query's walk sets exactly once (a
// shared per-flush cache feeds judgment and encoding) and fans the
// judgment filter out over Options.Workers.
func (e *Engine) SolveMulti(votes []vote.Vote) (*Report, error) {
	return e.SolveMultiCtx(context.Background(), votes)
}

// SolveMultiCtx is SolveMulti with deadline propagation: a context
// cancelled before the SGP solve starts aborts with the context error
// (nothing applied); cancelled mid-solve it stops the solver's iterations
// and applies the best-so-far weight set, marking the report Partial.
func (e *Engine) SolveMultiCtx(ctx context.Context, votes []vote.Vote) (*Report, error) {
	// One program covers the whole batch, so any returned report consumed
	// every vote (a mid-solve stop still applies best-so-far for all).
	report := &Report{Votes: len(votes), Clusters: 1, Consumed: len(votes)}

	tEnum := time.Now()
	fc, err := e.newFlushEnum(votes)
	if err != nil {
		return nil, err
	}
	report.EnumSeconds = time.Since(tEnum).Seconds()
	if err := ctxErr(ctx); err != nil {
		return nil, fmt.Errorf("core: multi-vote flush cancelled before judgment: %w", err)
	}

	tJudge := time.Now()
	kept, discarded, err := e.filterVotes(votes, fc)
	if err != nil {
		return nil, err
	}
	report.JudgeSeconds = time.Since(tJudge).Seconds()
	report.Discarded = len(discarded)
	report.KeptVotes, report.RejectedVotes = kept, discarded
	if len(kept) == 0 {
		e.finishFlush(report, fc)
		return report, nil
	}
	if err := ctxErr(ctx); err != nil {
		return nil, fmt.Errorf("core: multi-vote flush cancelled before solve: %w", err)
	}

	tSolve := time.Now()
	p := e.newProgram()
	b := &signomial.Builder{}
	for i, v := range kept {
		n, err := e.encodeVote(p, v, true, fc, b)
		if err != nil {
			return nil, fmt.Errorf("core: multi-vote %d: %w", i, err)
		}
		report.Constraints += n
		report.Encoded++
	}
	e.addCapacityConstraints(p)
	// The whole-batch program goes through the cluster solver like any
	// split-and-merge cluster, so an injected solver sees every program.
	sol, err := e.solver().SolveProgram(ctx, p, e.solveParams())
	if err != nil {
		return nil, err
	}
	report.Partial = sol.Stopped
	report.Variables = p.NumVars()
	// Vote constraints are the soft ones; hard constraints are node
	// capacity bounds.
	for _, ok := range sol.SoftSatisfied {
		if ok {
			report.Satisfied++
		}
	}
	report.Outer = sol.Outer
	report.InnerIters = sol.InnerIters
	report.ChangedEdges = countChanged(p, sol.X)
	changes := extractChanges(p, sol.X)
	e.putProgram(p)
	report.SolveSeconds = time.Since(tSolve).Seconds()

	tMerge := time.Now()
	applied, err := e.applyWeights(changes)
	report.Applied = applied
	report.MergeSeconds = time.Since(tMerge).Seconds()
	e.finishFlush(report, fc)
	return report, err
}

// finishFlush folds the flush's enumeration-cache counters into the
// report and publishes the pipeline's stage telemetry.
func (e *Engine) finishFlush(report *Report, fc *pathidx.EnumCache) {
	report.EnumCacheHits, report.EnumCacheMisses = fc.Hits(), fc.Misses()
	e.metrics.observeFlushStages(report)
}
