package core

import (
	"context"

	"kgvote/internal/sgp"
)

// ClusterSolver abstracts the optimization of one finished SGP — a
// split-and-merge cluster's program, the multi-vote whole-batch program,
// or a single vote's program.
// The engine builds each SGP on the writer (walk enumeration,
// judgment, encoding all need the graph); the ClusterSolver only has to
// optimize the finished, self-contained program, so an implementation
// needs no copy of the graph. The benchmark's replay substitutes one that
// captures the program it is handed (bench/layers.go).
//
// Determinism contract: for a given program and params every
// implementation must return the same Solution.X bit-for-bit as the
// in-process p.Solve, so the merged flush output stays byte-identical
// whichever one is installed. The only sanctioned deviation is under ctx
// cancellation, where best-so-far iterates (Solution.Stopped) are
// acceptable.
//
// Implementations must be safe for concurrent use: the split-and-merge
// flush calls SolveProgram from Options.Workers goroutines at once.
type ClusterSolver interface {
	SolveProgram(ctx context.Context, p *sgp.Program, params sgp.Params) (*sgp.Solution, error)
}

// localClusterSolver runs the solve in process — the default.
type localClusterSolver struct{}

func (localClusterSolver) SolveProgram(ctx context.Context, p *sgp.Program, params sgp.Params) (*sgp.Solution, error) {
	return p.Solve(sgp.SolveOptions{Mode: params.Mode, AL: params.AL, Stop: stopFunc(ctx)})
}

// LocalSolver returns the in-process ClusterSolver the engine uses when
// none is injected.
func LocalSolver() ClusterSolver { return localClusterSolver{} }

// SetClusterSolver injects the solver used for split-and-merge cluster
// programs (nil restores the in-process default). Call it once after
// construction, before serving — it is read concurrently by flushes.
func (e *Engine) SetClusterSolver(cs ClusterSolver) { e.clusterSolver = cs }

// solver resolves the effective cluster solver.
func (e *Engine) solver() ClusterSolver {
	if e.clusterSolver != nil {
		return e.clusterSolver
	}
	return localClusterSolver{}
}

// solveParams projects the engine options onto the solve parameters a
// ClusterSolver receives.
func (e *Engine) solveParams() sgp.Params {
	return sgp.Params{Mode: e.opt.Mode, AL: e.opt.AL}
}
