// Package core implements the paper's graph-optimization framework: the
// single-vote solution (Algorithm 1), the multi-vote solution (Section V),
// and the split-and-merge strategy (Section VI), all on top of the
// internal substrates (pathidx, signomial, sgp, vote, cluster).
package core

import (
	"fmt"

	"kgvote/internal/optimize"
	"kgvote/internal/pathidx"
	"kgvote/internal/sgp"
	"kgvote/internal/vote"
)

// NormalizeMode controls the NormalizeEdges step after weights are
// written back to the graph (Algorithm 1, line 16).
type NormalizeMode int

const (
	// CapSum rescales a touched node's out-weights only when their sum
	// exceeds 1, bringing it back to exactly 1. Weights stay valid
	// (sub-)stochastic transition probabilities while the solver's
	// reductions are preserved. This is the default: a proportional
	// rescale back to the original sum would silently undo the solve on
	// nodes with a single out-edge.
	CapSum NormalizeMode = iota
	// UnitSum rescales each touched node's out-weights to sum to exactly
	// 1 regardless of direction (ablation; closest to a literal reading of
	// Algorithm 1's NormalizeEdges).
	UnitSum
	// NoNormalize skips normalization (ablation).
	NoNormalize
)

// MergeRule selects how split-and-merge combines per-cluster deltas of an
// edge changed in several clusters.
type MergeRule int

const (
	// VoteWeighted is the paper's rule: the sign of Σ_C n_C·Δx_C picks the
	// max (non-negative) or min (negative) delta.
	VoteWeighted MergeRule = iota
	// AverageDeltas takes the vote-weighted mean of the deltas (ablation).
	AverageDeltas
)

// ClusterAlgo selects the clustering algorithm of the split strategy.
type ClusterAlgo int

const (
	// APCluster is the paper's choice: affinity propagation with the
	// median similarity as preference (picks the cluster count itself).
	APCluster ClusterAlgo = iota
	// KMedoidsCluster pins the cluster count to Options.ClusterK
	// (default ⌈√votes⌉), trading the paper's adaptivity for
	// predictability.
	KMedoidsCluster
)

// Options configures an Engine.
type Options struct {
	// C is the restart probability (paper: c ≈ 0.15).
	C float64
	// L is the path-length pruning threshold (paper: 5).
	L int
	// K is the answer-list length (paper: top-20).
	K int
	// Margin ε encodes strict constraint inequalities as ≤ −ε.
	Margin float64
	// Lambda1 and Lambda2 weight the objective terms of Equation (19)
	// (paper: both 0.5).
	Lambda1, Lambda2 float64
	// SigmoidW is the sigmoid steepness of Equation (17) (paper: 300).
	SigmoidW float64
	// ExtremeConst is the shared-edge weight of the judgment algorithm's
	// extreme condition.
	ExtremeConst float64
	// MaxPaths bounds path enumeration per query.
	MaxPaths int
	// Workers bounds the concurrency of the flush pipeline: enumeration
	// prewarm, judgment filtering, edge sets, similarity rows, and the
	// per-cluster solves of the split-and-merge strategy ("distributed"
	// variant when > 1) all fan out over this many pool workers.
	Workers int
	// Mode selects the SGP solving strategy for multi-vote programs.
	Mode sgp.Mode
	// Normalize selects the post-solve normalization.
	Normalize NormalizeMode
	// Merge selects the split-and-merge delta combination rule.
	Merge MergeRule
	// Cluster selects the split strategy's clustering algorithm.
	Cluster ClusterAlgo
	// ClusterK fixes the cluster count for KMedoidsCluster (0 = ⌈√votes⌉).
	ClusterK int
	// RankCacheSize bounds the per-snapshot query-rank LRU cache on the
	// serving path (0 = DefaultRankCacheSize, negative = cache disabled).
	RankCacheSize int
	// AL tunes the augmented-Lagrangian solver.
	AL optimize.ALOptions
}

// Defaults returns the paper's parameter settings.
func Defaults() Options {
	return Options{
		C:            0.15,
		L:            pathidx.DefaultL,
		K:            20,
		Margin:       sgp.DefaultMargin,
		Lambda1:      0.5,
		Lambda2:      0.5,
		SigmoidW:     sgp.DefaultSigmoidW,
		ExtremeConst: vote.DefaultExtremeConst,
		MaxPaths:     pathidx.DefaultMaxPaths,
		Workers:      1,
		Mode:         sgp.Full,
		Normalize:    CapSum,
	}
}

func (o Options) withDefaults() Options {
	d := Defaults()
	if o.C == 0 {
		o.C = d.C
	}
	if o.L == 0 {
		o.L = d.L
	}
	if o.K == 0 {
		o.K = d.K
	}
	if o.Margin == 0 {
		o.Margin = d.Margin
	}
	if o.Lambda1 == 0 && o.Lambda2 == 0 {
		o.Lambda1, o.Lambda2 = d.Lambda1, d.Lambda2
	}
	if o.SigmoidW == 0 {
		o.SigmoidW = d.SigmoidW
	}
	if o.ExtremeConst == 0 {
		o.ExtremeConst = d.ExtremeConst
	}
	if o.MaxPaths == 0 {
		o.MaxPaths = d.MaxPaths
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	return o
}

// Validate reports configuration errors.
func (o Options) Validate() error {
	o = o.withDefaults()
	if o.C <= 0 || o.C >= 1 {
		return fmt.Errorf("core: restart probability %v outside (0,1)", o.C)
	}
	if o.L < 1 {
		return fmt.Errorf("core: L = %d must be >= 1", o.L)
	}
	if o.K < 2 {
		return fmt.Errorf("core: K = %d must be >= 2 (a vote needs a rival)", o.K)
	}
	if o.Margin < 0 {
		return fmt.Errorf("core: negative margin %v", o.Margin)
	}
	if o.ExtremeConst <= 0 || o.ExtremeConst >= 1 {
		return fmt.Errorf("core: extreme constant %v outside (0,1)", o.ExtremeConst)
	}
	if o.Workers < 1 {
		return fmt.Errorf("core: workers = %d must be >= 1", o.Workers)
	}
	switch o.Normalize {
	case CapSum, UnitSum, NoNormalize:
	default:
		return fmt.Errorf("core: unknown normalize mode %d", o.Normalize)
	}
	switch o.Merge {
	case VoteWeighted, AverageDeltas:
	default:
		return fmt.Errorf("core: unknown merge rule %d", o.Merge)
	}
	switch o.Cluster {
	case APCluster, KMedoidsCluster:
	default:
		return fmt.Errorf("core: unknown cluster algorithm %d", o.Cluster)
	}
	if o.ClusterK < 0 {
		return fmt.Errorf("core: negative ClusterK %d", o.ClusterK)
	}
	return nil
}

// pathOptions projects the engine options onto pathidx.Options.
func (o Options) pathOptions() pathidx.Options {
	return pathidx.Options{L: o.L, C: o.C, MaxPaths: o.MaxPaths}
}

// rankCacheSize resolves the effective serving-cache capacity.
func (o Options) rankCacheSize() int {
	switch {
	case o.RankCacheSize < 0:
		return 0
	case o.RankCacheSize == 0:
		return DefaultRankCacheSize
	}
	return o.RankCacheSize
}
