package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"kgvote/internal/cluster"
	"kgvote/internal/graph"
	"kgvote/internal/pathidx"
	"kgvote/internal/sgp"
	"kgvote/internal/signomial"
	"kgvote/internal/vote"
)

// clusterResult is the outcome of one per-cluster SGP solve.
type clusterResult struct {
	votes  int
	deltas map[graph.EdgeKey]float64
	rep    Report
}

// SolveSplitMerge is the split-and-merge strategy of Section VI: votes are
// clustered by the Jaccard similarity of their edge sets with affinity
// propagation (preference = median similarity); each cluster becomes an
// independent multi-vote SGP; per-edge weight deltas are merged with the
// paper's vote-weighted sign rule and applied once.
//
// The whole pre-solve pipeline is parallel when Options.Workers > 1:
// walk enumeration (once per query, shared cache), judgment filtering,
// per-vote edge sets, the O(n²) Jaccard similarity matrix, and the
// per-cluster solves all fan out over a bounded worker pool. Results are
// collected into index-addressed slots, so the merged outcome is
// byte-identical to a Workers=1 run.
func (e *Engine) SolveSplitMerge(votes []vote.Vote) (*Report, error) {
	return e.SolveSplitMergeCtx(context.Background(), votes)
}

// SolveSplitMergeCtx is SolveSplitMerge with deadline propagation: a
// context cancelled before the per-cluster solves start aborts with the
// context error (nothing applied); cancelled during the solve stage each
// in-flight cluster returns its best-so-far iterate and not-yet-started
// clusters contribute their initial weights (zero deltas), so the merge
// still applies a coherent weight set, marked Partial.
func (e *Engine) SolveSplitMergeCtx(ctx context.Context, votes []vote.Vote) (*Report, error) {
	// The per-cluster solves either all contribute (possibly best-so-far)
	// or the whole flush errors, so any returned report consumed every vote.
	report := &Report{Votes: len(votes), Consumed: len(votes)}

	tEnum := time.Now()
	fc, err := e.newFlushEnum(votes)
	if err != nil {
		return nil, err
	}
	report.EnumSeconds = time.Since(tEnum).Seconds()
	if err := ctxErr(ctx); err != nil {
		return nil, fmt.Errorf("core: split-merge flush cancelled before judgment: %w", err)
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

	tCluster := time.Now()
	clusters, err := e.clusterVotes(kept, fc)
	if err != nil {
		return nil, err
	}
	report.ClusterSeconds = time.Since(tCluster).Seconds()
	report.Clusters = len(clusters)
	for _, cl := range clusters {
		e.metrics.observeCluster(len(cl))
	}
	if err := ctxErr(ctx); err != nil {
		return nil, fmt.Errorf("core: split-merge flush cancelled before solve: %w", err)
	}

	// Per-cluster solves: min(Workers, clusters) goroutines pulling
	// cluster indices from a shared channel (no goroutine-per-cluster
	// spawn storm, no semaphore).
	tSolve := time.Now()
	results := make([]clusterResult, len(clusters))
	err = runIndexed(e.opt.Workers, len(clusters), func(i int) error {
		res, err := e.solveCluster(ctx, clusters[i], fc)
		if err != nil {
			return fmt.Errorf("core: cluster %d: %w", i, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	report.SolveSeconds = time.Since(tSolve).Seconds()

	tMerge := time.Now()
	for _, res := range results {
		report.merge(res.rep)
	}
	changes := e.mergeDeltas(results)
	report.ChangedEdges = len(changes)
	applied, err := e.applyWeights(changes)
	report.Applied = applied
	report.MergeSeconds = time.Since(tMerge).Seconds()
	e.finishFlush(report, fc)
	return report, err
}

// clusterVotes computes E(t) per vote, the pairwise Jaccard similarities,
// and runs affinity propagation; it returns the votes grouped by cluster.
// Edge-set computation and similarity rows are embarrassingly parallel
// and fan out over Options.Workers; every worker writes disjoint
// index-addressed slots, so the similarity matrix — and therefore the
// clustering — is identical to a sequential run.
func (e *Engine) clusterVotes(votes []vote.Vote, fc *pathidx.EnumCache) ([][]vote.Vote, error) {
	if len(votes) == 1 {
		return [][]vote.Vote{votes}, nil
	}
	sets := make([]map[graph.EdgeKey]struct{}, len(votes))
	err := runIndexed(e.opt.Workers, len(votes), func(i int) error {
		set, err := e.voteEdgeSet(votes[i], fc)
		if err != nil {
			return fmt.Errorf("core: edge set of vote %d: %w", i, err)
		}
		sets[i] = set
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := len(votes)
	sim := make([][]float64, n)
	for i := range sim {
		sim[i] = make([]float64, n)
	}
	_ = runIndexed(e.opt.Workers, n, func(i int) error {
		for j := i + 1; j < n; j++ {
			s := vote.Similarity(sets[i], sets[j])
			sim[i][j], sim[j][i] = s, s
		}
		return nil
	})
	var res cluster.Result
	switch e.opt.Cluster {
	case KMedoidsCluster:
		k := e.opt.ClusterK
		if k == 0 {
			k = int(math.Ceil(math.Sqrt(float64(n))))
		}
		if k > n {
			k = n
		}
		res, err = cluster.KMedoids(sim, k, 0)
	default:
		res, err = cluster.AffinityPropagation(sim, cluster.MedianPreference(sim), cluster.Options{})
	}
	if err != nil {
		return nil, fmt.Errorf("core: clustering votes: %w", err)
	}
	groups := res.Clusters()
	out := make([][]vote.Vote, 0, len(groups))
	for _, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		g := make([]vote.Vote, 0, len(idxs))
		for _, i := range idxs {
			g = append(g, votes[i])
		}
		out = append(out, g)
	}
	return out, nil
}

// voteEdgeSet computes E(t) for one vote, served from the flush's walk
// cache when available.
func (e *Engine) voteEdgeSet(v vote.Vote, fc *pathidx.EnumCache) (map[graph.EdgeKey]struct{}, error) {
	if fc == nil {
		return vote.EdgeSet(e.g, v, e.opt.pathOptions())
	}
	if err := v.Validate(); err != nil {
		return nil, err
	}
	paths, err := fc.Paths(v.Query, v.Ranked)
	if err != nil {
		return nil, err
	}
	return vote.EdgeSetFromPaths(v, paths), nil
}

// solveCluster runs the multi-vote encoding and solve for one cluster's
// votes against the engine's current graph, returning weight deltas
// relative to the current weights. The graph is only read, never written,
// so cluster solves can run concurrently.
func (e *Engine) solveCluster(ctx context.Context, votes []vote.Vote, fc *pathidx.EnumCache) (clusterResult, error) {
	res := clusterResult{votes: len(votes), deltas: make(map[graph.EdgeKey]float64)}
	p := e.newProgram()
	b := &signomial.Builder{}
	for i, v := range votes {
		n, err := e.encodeVote(p, v, true, fc, b)
		if err != nil {
			return res, fmt.Errorf("encoding vote %d: %w", i, err)
		}
		res.rep.Constraints += n
		res.rep.Encoded++
	}
	e.addCapacityConstraints(p)
	sol, err := e.solver().SolveProgram(ctx, p, e.solveParams())
	if err != nil {
		return res, err
	}
	res.rep.Partial = sol.Stopped
	res.rep.Variables = p.NumVars()
	for _, ok := range sol.SoftSatisfied {
		if ok {
			res.rep.Satisfied++
		}
	}
	res.rep.Outer = sol.Outer
	res.rep.InnerIters = sol.InnerIters
	for i, v := range p.Vars {
		if v.Kind != sgp.EdgeVar {
			continue
		}
		if d := sol.X[i] - v.Init; d != 0 {
			res.deltas[v.Edge] = d
		}
	}
	e.putProgram(p)
	return res, nil
}

// mergeDeltas implements the merge strategy of Section VI-A: an edge
// changed in a single cluster takes that change; an edge changed in
// several clusters takes the maximum change if the vote-weighted sum
// Σ_C n_C·Δx_C is non-negative, otherwise the minimum. Results are
// folded in cluster order, keeping the accumulated float sums — and so
// the merged weights — deterministic under parallel solves.
func (e *Engine) mergeDeltas(results []clusterResult) map[graph.EdgeKey]float64 {
	type acc struct {
		weighted float64 // Σ n_C · Δ_C
		votes    int     // Σ n_C over clusters that changed the edge
		single   float64 // the one recorded delta while count == 1
		min, max float64
		count    int
	}
	accs := make(map[graph.EdgeKey]*acc)
	for _, res := range results {
		for k, d := range res.deltas {
			a, ok := accs[k]
			if !ok {
				a = &acc{single: d, min: d, max: d}
				accs[k] = a
			} else {
				if d < a.min {
					a.min = d
				}
				if d > a.max {
					a.max = d
				}
			}
			a.weighted += float64(res.votes) * d
			a.votes += res.votes
			a.count++
		}
	}
	changes := make(map[graph.EdgeKey]float64, len(accs))
	for k, a := range accs {
		var delta float64
		switch {
		case a.count == 1:
			delta = a.single
		case e.opt.Merge == AverageDeltas:
			delta = a.weighted / float64(a.votes)
		case a.weighted >= 0:
			delta = a.max
		default:
			delta = a.min
		}
		// Every branch funnels through the same bound clamp: the picked
		// delta keeps the weight inside the solver's box under VoteWeighted
		// (each recorded delta came from a bounded solve against the same
		// pre-flush weight), but the AverageDeltas combination is a new
		// point that float rounding can push past a bound.
		changes[k] = clampWeight(e.g.Weight(k.From, k.To) + delta)
	}
	return changes
}

// clampWeight pins a merged weight back into the SGP's default box.
func clampWeight(w float64) float64 {
	if w < sgp.DefaultLowerBound {
		return sgp.DefaultLowerBound
	}
	if w > sgp.DefaultUpperBound {
		return sgp.DefaultUpperBound
	}
	return w
}
