package sgp

import (
	"fmt"

	"kgvote/internal/optimize"
	"kgvote/internal/signomial"
)

// Mode selects the solving strategy for programs with soft constraints.
type Mode int

const (
	// Full solves the program exactly as written: deviation variables are
	// real variables and every constraint goes through the augmented
	// Lagrangian. This is the paper's formulation (fmincon equivalent).
	Full Mode = iota
	// Reduced exploits that at any optimum each deviation variable is
	// pinned to its constraint residual (the sigmoid is increasing), so
	// soft constraints can be folded into the objective:
	// λ₂·Σ sigmoid(w·sig_i(x)). Hard constraints still go through the
	// augmented Lagrangian. This is the ablation described in DESIGN.md.
	Reduced
)

// SolveOptions configures Program.Solve.
type SolveOptions struct {
	Mode Mode
	AL   optimize.ALOptions
	// Stop is polled throughout the solve (continuation stages, outer
	// augmented-Lagrangian iterations, inner projected-gradient steps);
	// when it fires the solve returns the best-so-far point with
	// Solution.Stopped set instead of an error, so a cancelled flush can
	// still apply a usable weight set (nil = run to convergence).
	Stop func() bool
}

// Params is SolveOptions without the caller's Stop hook: what a
// core.ClusterSolver is handed, with cancellation travelling in its
// context instead.
type Params struct {
	Mode Mode
	AL   optimize.ALOptions
}

// Solution is the outcome of a solve.
type Solution struct {
	// X holds the final value of every variable (edge weights and, in Full
	// mode, deviation variables; in Reduced mode deviations are
	// back-filled from the residuals).
	X []float64
	// Objective is Equation (19) evaluated at X.
	Objective float64
	// Satisfied counts the original (pre-relaxation) constraints that hold
	// at X: sig(x) ≤ 0 for soft, and hard constraints ≤ 0.
	Satisfied int
	// Violated = NumConstraints − Satisfied.
	Violated int
	// HardSatisfied and SoftSatisfied report per-constraint outcomes, in
	// the order the constraints were added.
	HardSatisfied []bool
	SoftSatisfied []bool
	// Feasible reports whether the relaxed program's constraints hold (in
	// Full mode, including the −dx slack).
	Feasible bool
	// MaxViolation is the largest relaxed-constraint violation.
	MaxViolation float64
	// Outer/InnerIters are solver statistics.
	Outer, InnerIters int
	// Stopped reports that the caller's Stop hook cut the solve short; X
	// is the best point reached when it fired, not a converged optimum.
	Stopped bool
}

// devWeights maps each deviation-variable index to its constraint's
// credibility weight (1 for deviation variables without a registered soft
// constraint).
func (p *Program) devWeights() map[int]float64 {
	w := make(map[int]float64, len(p.Soft))
	for _, sc := range p.Soft {
		cw := sc.Weight
		if cw == 0 {
			cw = 1
		}
		w[sc.Dev] = cw
	}
	return w
}

// objective builds Equation (19) over the program's variables, with each
// deviation's sigmoid term scaled by its vote-credibility weight.
func (p *Program) objective() optimize.Func {
	dw := p.devWeights()
	weightOf := func(i int) float64 {
		if w, ok := dw[i]; ok {
			return w
		}
		return 1
	}
	return optimize.Func{
		F: func(x []float64) float64 {
			var v float64
			for i, vr := range p.Vars {
				switch vr.Kind {
				case EdgeVar:
					d := x[i] - vr.Init
					v += p.Lambda1 * d * d
				case DeviationVar:
					v += p.Lambda2 * weightOf(i) * Sigmoid(p.SigmoidW, x[i])
				}
			}
			return v
		},
		Grad: func(x []float64, g []float64) {
			for i, vr := range p.Vars {
				switch vr.Kind {
				case EdgeVar:
					g[i] = 2 * p.Lambda1 * (x[i] - vr.Init)
				case DeviationVar:
					g[i] = p.Lambda2 * weightOf(i) * SigmoidDeriv(p.SigmoidW, x[i])
				}
			}
		},
	}
}

// constraintFuncs materializes the program's constraints for the
// augmented-Lagrangian solver: hard constraints as-is, soft constraints
// with the −dx term added.
func (p *Program) constraintFuncs() []optimize.Constraint {
	cons := make([]optimize.Constraint, 0, len(p.Hard)+len(p.Soft))
	for _, sig := range p.Hard {
		sig := sig
		cons = append(cons, optimize.Constraint{
			F:       sig.Eval,
			AddGrad: sig.AddGrad,
		})
	}
	for _, sc := range p.Soft {
		sc := sc
		cons = append(cons, optimize.Constraint{
			F: func(x []float64) float64 { return sc.Sig.Eval(x) - x[sc.Dev] },
			AddGrad: func(x []float64, g []float64, scale float64) {
				sc.Sig.AddGrad(x, g, scale)
				g[sc.Dev] -= scale
			},
		})
	}
	return cons
}

// Solve optimizes the program and returns the solution.
func (p *Program) Solve(opt SolveOptions) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	switch opt.Mode {
	case Full:
		return p.solveFull(opt)
	case Reduced:
		return p.solveReduced(opt)
	default:
		return nil, fmt.Errorf("sgp: unknown mode %d", opt.Mode)
	}
}

func (p *Program) solveFull(opt SolveOptions) (*Solution, error) {
	lo, hi := p.Bounds()
	box := optimize.Box{Lower: lo, Upper: hi}
	cons := p.constraintFuncs()
	obj := p.objective()
	x := p.InitialPoint()

	// With soft constraints, anneal the sigmoid steepness from a shallow
	// surrogate to the target w, warm-starting each stage: the shallow
	// stages give violated constraints usable gradient, the sharp final
	// stage releases comfortably-satisfied ones (objective ≈ step count).
	// Hard-only programs have no sigmoid term and need a single solve.
	schedule := []float64{p.SigmoidW}
	if len(p.Soft) > 0 {
		schedule = schedule[:0]
		for w := 4.0; w < p.SigmoidW; w *= 8 {
			schedule = append(schedule, w)
		}
		schedule = append(schedule, p.SigmoidW)
	}
	targetW := p.SigmoidW
	defer func() { p.SigmoidW = targetW }()
	alOpt := opt.AL
	alOpt.Stop = opt.Stop
	sol := &Solution{}
	for _, w := range schedule {
		if opt.Stop != nil && opt.Stop() {
			sol.Stopped = true
			break
		}
		p.SigmoidW = w // objective closures read p.SigmoidW
		res, err := optimize.AugmentedLagrangian(obj, cons, box, x, alOpt)
		if err != nil {
			return nil, err
		}
		x = res.X
		sol.Feasible = res.Feasible
		sol.MaxViolation = res.MaxViolation
		sol.Outer += res.Outer
		sol.InnerIters += res.InnerIters
		if res.Stopped {
			sol.Stopped = true
			break
		}
	}
	p.SigmoidW = targetW
	assessed := p.assess(x)
	assessed.Feasible = sol.Feasible
	assessed.MaxViolation = sol.MaxViolation
	assessed.Outer = sol.Outer
	assessed.InnerIters = sol.InnerIters
	assessed.Stopped = sol.Stopped
	return assessed, nil
}

// solveReduced eliminates deviation variables: they only appear in the
// objective through an increasing sigmoid and in one constraint each, so
// the optimum has dx_i = sig_i(x). The reduced problem optimizes edge
// variables only; hard constraints (if any) still use the augmented
// Lagrangian.
func (p *Program) solveReduced(opt SolveOptions) (*Solution, error) {
	// Mapping between full variable indices and reduced (edge-only) ones.
	fullToRed := make([]int, len(p.Vars))
	redToFull := make([]int, 0, len(p.Vars))
	for i, v := range p.Vars {
		if v.Kind == EdgeVar {
			fullToRed[i] = len(redToFull)
			redToFull = append(redToFull, i)
		} else {
			fullToRed[i] = -1
		}
	}
	nRed := len(redToFull)

	// Remap the soft/hard signomials onto reduced indices.
	remap := func(sig *signomial.Signomial) (*signomial.Signomial, error) {
		out := signomial.NewConst(sig.Const)
		for _, t := range sig.Terms {
			vars := make([]int, 0, len(t.Factors))
			for _, f := range t.Factors {
				ri := fullToRed[f.Var]
				if ri < 0 {
					return nil, fmt.Errorf("sgp: reduced mode: constraint references deviation variable %d", f.Var)
				}
				e := int(f.Exp)
				if float64(e) != f.Exp || e <= 0 {
					return nil, fmt.Errorf("sgp: reduced mode requires positive integer exponents, got %v", f.Exp)
				}
				for k := 0; k < e; k++ {
					vars = append(vars, ri)
				}
			}
			out.Add(signomial.Monomial(t.Coef, vars...))
		}
		return out, nil
	}
	softRed := make([]*signomial.Signomial, len(p.Soft))
	for i, sc := range p.Soft {
		s, err := remap(sc.Sig)
		if err != nil {
			return nil, err
		}
		softRed[i] = s
	}
	softWeights := make([]float64, len(p.Soft))
	for i, sc := range p.Soft {
		softWeights[i] = sc.Weight
		if softWeights[i] == 0 {
			softWeights[i] = 1
		}
	}
	hardRed := make([]*signomial.Signomial, len(p.Hard))
	for i, sig := range p.Hard {
		s, err := remap(sig)
		if err != nil {
			return nil, err
		}
		hardRed[i] = s
	}

	// The sigmoid at w = 300 saturates (near-zero gradient) away from the
	// origin, which would strand the reduced solve at its starting point.
	// Anneal the steepness from a shallow surrogate up to the target w,
	// warm-starting each stage (a standard continuation scheme).
	w := 1.0
	obj := optimize.Func{
		F: func(x []float64) float64 {
			var v float64
			for ri, fi := range redToFull {
				d := x[ri] - p.Vars[fi].Init
				v += p.Lambda1 * d * d
			}
			for i, sig := range softRed {
				v += p.Lambda2 * softWeights[i] * Sigmoid(w, sig.Eval(x))
			}
			return v
		},
		Grad: func(x []float64, g []float64) {
			for ri, fi := range redToFull {
				g[ri] = 2 * p.Lambda1 * (x[ri] - p.Vars[fi].Init)
			}
			for i, sig := range softRed {
				scale := p.Lambda2 * softWeights[i] * SigmoidDeriv(w, sig.Eval(x))
				sig.AddGrad(x, g, scale)
			}
		},
	}

	lo := make([]float64, nRed)
	hi := make([]float64, nRed)
	x0 := make([]float64, nRed)
	for ri, fi := range redToFull {
		lo[ri], hi[ri] = p.Vars[fi].Lower, p.Vars[fi].Upper
		x0[ri] = p.Vars[fi].Init
	}

	// Geometric continuation schedule from a shallow sigmoid to the target.
	var schedule []float64
	for s := 4.0; s < p.SigmoidW; s *= 4 {
		schedule = append(schedule, s)
	}
	schedule = append(schedule, p.SigmoidW)

	xRed := x0
	var outer, innerIters int
	feasible := true
	stopped := false
	maxViol := 0.0
	box := optimize.Box{Lower: lo, Upper: hi}
	if len(hardRed) == 0 {
		pgOpt := opt.AL.Inner
		pgOpt.Stop = opt.Stop
		for _, stage := range schedule {
			if opt.Stop != nil && opt.Stop() {
				stopped = true
				break
			}
			w = stage
			res, err := optimize.ProjectedGradient(obj, box, xRed, pgOpt)
			if err != nil {
				return nil, err
			}
			xRed = res.X
			innerIters += res.Iters
			if res.Status == optimize.Stopped {
				stopped = true
				break
			}
		}
		outer = len(schedule)
	} else {
		cons := make([]optimize.Constraint, len(hardRed))
		for i, sig := range hardRed {
			sig := sig
			cons[i] = optimize.Constraint{F: sig.Eval, AddGrad: sig.AddGrad}
		}
		alOpt := opt.AL
		alOpt.Stop = opt.Stop
		for _, stage := range schedule {
			if opt.Stop != nil && opt.Stop() {
				stopped = true
				break
			}
			w = stage
			res, err := optimize.AugmentedLagrangian(obj, cons, box, xRed, alOpt)
			if err != nil {
				return nil, err
			}
			xRed = res.X
			outer += res.Outer
			innerIters += res.InnerIters
			feasible = res.Feasible
			maxViol = res.MaxViolation
			if res.Stopped {
				stopped = true
				break
			}
		}
	}

	// Back-fill the full vector: edge vars from the reduced solution,
	// deviation vars pinned to their residuals.
	x := p.InitialPoint()
	for ri, fi := range redToFull {
		x[fi] = xRed[ri]
	}
	for i, sc := range p.Soft {
		x[sc.Dev] = clamp(softRed[i].Eval(xRed), p.Vars[sc.Dev].Lower, p.Vars[sc.Dev].Upper)
	}
	sol := p.assess(x)
	sol.Feasible = feasible
	sol.MaxViolation = maxViol
	sol.Outer = outer
	sol.InnerIters = innerIters
	sol.Stopped = stopped
	return sol, nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// assess fills the solution fields derived from a final point.
func (p *Program) assess(x []float64) *Solution {
	sol := &Solution{X: x}
	obj := p.objective()
	sol.Objective = obj.F(x)
	sol.HardSatisfied = make([]bool, len(p.Hard))
	for i, sig := range p.Hard {
		if sig.Eval(x) <= 0 {
			sol.Satisfied++
			sol.HardSatisfied[i] = true
		}
	}
	sol.SoftSatisfied = make([]bool, len(p.Soft))
	for i, sc := range p.Soft {
		if sc.Sig.Eval(x) <= 0 {
			sol.Satisfied++
			sol.SoftSatisfied[i] = true
		}
	}
	sol.Violated = p.NumConstraints() - sol.Satisfied
	return sol
}
