package optimize

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func quadratic(center []float64) Func {
	return Func{
		F: func(x []float64) float64 {
			var s float64
			for i := range x {
				d := x[i] - center[i]
				s += d * d
			}
			return s
		},
		Grad: func(x []float64, g []float64) {
			for i := range x {
				g[i] = 2 * (x[i] - center[i])
			}
		},
	}
}

func rosenbrock() Func {
	return Func{
		F: func(x []float64) float64 {
			a := 1 - x[0]
			b := x[1] - x[0]*x[0]
			return a*a + 100*b*b
		},
		Grad: func(x []float64, g []float64) {
			b := x[1] - x[0]*x[0]
			g[0] = -2*(1-x[0]) - 400*x[0]*b
			g[1] = 200 * b
		},
	}
}

func TestProjectedGradientUnconstrainedQuadratic(t *testing.T) {
	f := quadratic([]float64{3, -2})
	res, err := ProjectedGradient(f, Box{}, []float64{0, 0}, PGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-3) > 1e-6 || math.Abs(res.X[1]+2) > 1e-6 {
		t.Errorf("X = %v, want [3 -2] (status %v)", res.X, res.Status)
	}
}

func TestProjectedGradientActiveBox(t *testing.T) {
	f := quadratic([]float64{3})
	res, err := ProjectedGradient(f, Box{Lower: []float64{0}, Upper: []float64{1}}, []float64{0.5}, PGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-9 {
		t.Errorf("X = %v, want clamp at 1", res.X)
	}
	if res.Status != Converged {
		t.Errorf("status = %v, want Converged", res.Status)
	}
}

func TestProjectedGradientProjectsStart(t *testing.T) {
	f := quadratic([]float64{0})
	res, err := ProjectedGradient(f, Box{Lower: []float64{2}, Upper: []float64{5}}, []float64{100}, PGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 1e-9 {
		t.Errorf("X = %v, want 2", res.X)
	}
}

func TestProjectedGradientRosenbrock(t *testing.T) {
	res, err := ProjectedGradient(rosenbrock(), Box{Lower: []float64{-5, -5}, Upper: []float64{5, 5}},
		[]float64{-1.2, 1}, PGOptions{MaxIter: 20000, Tol: 1e-9, FTol: 1e-16})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Errorf("X = %v (f=%v, status=%v), want [1 1]", res.X, res.F, res.Status)
	}
}

func TestProjectedGradientEmptyProblem(t *testing.T) {
	res, err := ProjectedGradient(Func{}, Box{}, nil, PGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Converged {
		t.Errorf("empty problem should converge trivially")
	}
}

func TestBoxValidate(t *testing.T) {
	if err := (Box{Lower: []float64{0}}).Validate(2); err == nil {
		t.Errorf("dim mismatch should fail")
	}
	if err := (Box{Upper: []float64{0}}).Validate(2); err == nil {
		t.Errorf("dim mismatch should fail")
	}
	if err := (Box{Lower: []float64{1}, Upper: []float64{0}}).Validate(1); err == nil {
		t.Errorf("empty box should fail")
	}
	if err := (Box{Lower: []float64{0}, Upper: []float64{1}}).Validate(1); err != nil {
		t.Errorf("valid box rejected: %v", err)
	}
}

func TestAugmentedLagrangianSimple(t *testing.T) {
	// min x² s.t. 1 − x ≤ 0 → x* = 1.
	obj := quadratic([]float64{0})
	cons := []Constraint{{
		F: func(x []float64) float64 { return 1 - x[0] },
		AddGrad: func(x []float64, g []float64, s float64) {
			g[0] += s * -1
		},
	}}
	res, err := AugmentedLagrangian(obj, cons, Box{}, []float64{5}, ALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("not feasible: violation %v", res.MaxViolation)
	}
	if math.Abs(res.X[0]-1) > 1e-4 {
		t.Errorf("X = %v, want 1", res.X)
	}
	// The multiplier for the active constraint should be ≈ 2 (KKT: 2x = λ).
	if math.Abs(res.Multipliers[0]-2) > 1e-2 {
		t.Errorf("lambda = %v, want 2", res.Multipliers[0])
	}
}

func TestAugmentedLagrangianTwoVariables(t *testing.T) {
	// min x + y s.t. 1 − x·y ≤ 0, 0.1 ≤ x,y ≤ 10 → x = y = 1.
	obj := Func{
		F: func(x []float64) float64 { return x[0] + x[1] },
		Grad: func(x []float64, g []float64) {
			g[0], g[1] = 1, 1
		},
	}
	cons := []Constraint{{
		F: func(x []float64) float64 { return 1 - x[0]*x[1] },
		AddGrad: func(x []float64, g []float64, s float64) {
			g[0] += s * -x[1]
			g[1] += s * -x[0]
		},
	}}
	box := Box{Lower: []float64{0.1, 0.1}, Upper: []float64{10, 10}}
	res, err := AugmentedLagrangian(obj, cons, box, []float64{5, 0.3}, ALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("not feasible: violation %v", res.MaxViolation)
	}
	if math.Abs(res.X[0]*res.X[1]-1) > 1e-3 {
		t.Errorf("xy = %v, want 1", res.X[0]*res.X[1])
	}
	if math.Abs(res.F-2) > 1e-2 {
		t.Errorf("f = %v, want 2", res.F)
	}
}

func TestAugmentedLagrangianInactiveConstraint(t *testing.T) {
	// min (x−3)² s.t. x − 10 ≤ 0: the constraint is inactive, λ stays 0.
	obj := quadratic([]float64{3})
	cons := []Constraint{{
		F: func(x []float64) float64 { return x[0] - 10 },
		AddGrad: func(x []float64, g []float64, s float64) {
			g[0] += s
		},
	}}
	res, err := AugmentedLagrangian(obj, cons, Box{}, []float64{0}, ALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-3) > 1e-5 {
		t.Errorf("X = %v, want 3", res.X)
	}
	if res.Multipliers[0] > 1e-6 {
		t.Errorf("inactive constraint has multiplier %v", res.Multipliers[0])
	}
}

func TestAugmentedLagrangianInfeasible(t *testing.T) {
	// x ≤ −1 and x ≥ 1 cannot both hold: the solve must report infeasible
	// and settle between the two constraints.
	obj := quadratic([]float64{0})
	cons := []Constraint{
		{
			F:       func(x []float64) float64 { return x[0] + 1 }, // x ≤ −1
			AddGrad: func(x []float64, g []float64, s float64) { g[0] += s },
		},
		{
			F:       func(x []float64) float64 { return 1 - x[0] }, // x ≥ 1
			AddGrad: func(x []float64, g []float64, s float64) { g[0] -= s },
		},
	}
	res, err := AugmentedLagrangian(obj, cons, Box{}, []float64{0}, ALOptions{MaxOuter: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Errorf("infeasible problem reported feasible")
	}
	if res.MaxViolation < 0.5 {
		t.Errorf("violation = %v, expected ≈ 1", res.MaxViolation)
	}
}

func TestALOptionValidation(t *testing.T) {
	obj := quadratic([]float64{0})
	if _, err := AugmentedLagrangian(obj, nil, Box{Lower: []float64{0}}, []float64{0, 0}, ALOptions{}); err == nil {
		t.Errorf("box dim mismatch should fail")
	}
	if _, err := AugmentedLagrangian(obj, nil, Box{}, []float64{0}, ALOptions{Mu0: -1}); err == nil {
		t.Errorf("negative mu should fail")
	}
	if _, err := AugmentedLagrangian(obj, nil, Box{}, []float64{0}, ALOptions{MuGrowth: 0.5}); err == nil {
		t.Errorf("shrinking growth should fail")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Converged:        "converged",
		SmallImprovement: "small-improvement",
		MaxIterations:    "max-iterations",
		LineSearchFailed: "line-search-failed",
		Status(99):       "status(99)",
	} {
		if s.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

// Property: on random convex quadratics with random boxes, PG lands at the
// projection of the unconstrained minimizer (which is the exact solution
// for a separable quadratic).
func TestQuickPGSolvesBoxedQuadratics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		center := make([]float64, n)
		lo := make([]float64, n)
		hi := make([]float64, n)
		x0 := make([]float64, n)
		for i := 0; i < n; i++ {
			center[i] = rng.NormFloat64() * 3
			lo[i] = -1 - rng.Float64()
			hi[i] = 1 + rng.Float64()
			x0[i] = rng.NormFloat64()
		}
		res, err := ProjectedGradient(quadratic(center), Box{Lower: lo, Upper: hi}, x0, PGOptions{MaxIter: 2000})
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			want := math.Max(lo[i], math.Min(hi[i], center[i]))
			if math.Abs(res.X[i]-want) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestProjectedGradientMaxIterations(t *testing.T) {
	// A single iteration budget on Rosenbrock cannot converge.
	res, err := ProjectedGradient(rosenbrock(), Box{}, []float64{-1.2, 1}, PGOptions{MaxIter: 1, FTol: 1e-300, Tol: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == Converged {
		t.Errorf("one iteration should not converge: %v", res.Status)
	}
}

func TestProjectedGradientSmallImprovement(t *testing.T) {
	// A flat function improves by nothing: the FTol exit fires.
	flat := Func{
		F:    func(x []float64) float64 { return 1 + 1e-18*x[0] },
		Grad: func(x []float64, g []float64) { g[0] = 1e-18 },
	}
	res, err := ProjectedGradient(flat, Box{}, []float64{0}, PGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Converged && res.Status != SmallImprovement {
		t.Errorf("flat function status = %v", res.Status)
	}
}

func TestAugmentedLagrangianBoxOnly(t *testing.T) {
	// No constraints: AL reduces to a single PG solve.
	obj := quadratic([]float64{5})
	res, err := AugmentedLagrangian(obj, nil, Box{Lower: []float64{0}, Upper: []float64{2}}, []float64{1}, ALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 1e-6 {
		t.Errorf("X = %v, want 2", res.X)
	}
	if !res.Feasible {
		t.Errorf("unconstrained problem must be feasible")
	}
}

func TestNonmonotoneSPGConverges(t *testing.T) {
	// GLL window 10 on Rosenbrock: must still reach the optimum, and on
	// this classic ill-conditioned valley it should not need more
	// objective evaluations than the strictly monotone search.
	mono, err := ProjectedGradient(rosenbrock(), Box{}, []float64{-1.2, 1},
		PGOptions{MaxIter: 20000, Tol: 1e-9, FTol: 1e-16})
	if err != nil {
		t.Fatal(err)
	}
	gll, err := ProjectedGradient(rosenbrock(), Box{}, []float64{-1.2, 1},
		PGOptions{MaxIter: 20000, Tol: 1e-9, FTol: 1e-16, NonmonotoneWindow: 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gll.X[0]-1) > 1e-3 || math.Abs(gll.X[1]-1) > 1e-3 {
		t.Fatalf("nonmonotone SPG missed the optimum: %v (status %v)", gll.X, gll.Status)
	}
	if gll.Evals > 2*mono.Evals {
		t.Errorf("nonmonotone evals %d vs monotone %d", gll.Evals, mono.Evals)
	}
	t.Logf("monotone: %d iters / %d evals; GLL(10): %d iters / %d evals",
		mono.Iters, mono.Evals, gll.Iters, gll.Evals)
}
