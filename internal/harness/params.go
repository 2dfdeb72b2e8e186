package harness

import (
	"fmt"
	"time"

	"kgvote/internal/core"
	"kgvote/internal/graph"
	"kgvote/internal/metrics"
	"kgvote/internal/pathidx"
	"kgvote/internal/sgp"
	"kgvote/internal/synth"
	"kgvote/internal/vote"
)

// Figure7PD reproduces Fig. 7(a): the percentage difference
// PD(L_i, L_{i+1}) of the cumulative top-k similarity mass for consecutive
// path-length limits, per graph profile. The paper sets N_Q = 1 and
// top-20; PD collapsing near zero justifies L = 5.
func Figure7PD(cfg Config, profiles []synth.Profile) (Table, error) {
	cfg = cfg.withDefaults()
	if len(profiles) == 0 {
		profiles = []synth.Profile{
			synth.Twitter.Scaled(cfg.GraphScale),
			synth.Digg.Scaled(cfg.GraphScale),
			synth.Gnutella.Scaled(cfg.GraphScale),
		}
	}
	t := Table{
		Title:  "Figure 7(a): (L1,L2) vs PD(L1,L2)",
		Header: []string{"Graph"},
	}
	for i := 0; i+1 < len(cfg.Lengths); i++ {
		t.Header = append(t.Header, fmt.Sprintf("(%d,%d)", cfg.Lengths[i], cfg.Lengths[i+1]))
	}
	for _, p := range profiles {
		host, err := p.Generate(cfg.Seed + 30)
		if err != nil {
			return Table{}, err
		}
		w, err := synth.GenerateWorkload(host, synth.WorkloadConfig{
			NQ: 1, NA: max(40, cfg.K*4), Nnodes: min(host.NumNodes(), 2000), K: cfg.K, Seed: cfg.Seed + 31,
		})
		if err != nil {
			return Table{}, err
		}
		q := w.Queries[0]
		csr := graph.Compile(w.Aug.Graph)
		sums := make([]float64, len(cfg.Lengths))
		for i, l := range cfg.Lengths {
			scorer, err := pathidx.NewCSRScorer(csr, pathidx.Options{L: l})
			if err != nil {
				return Table{}, err
			}
			// Sum_L = Σ_{a ∈ A_k} S_L(q, a), the top-k similarity mass.
			ranked, err := scorer.Rank(q, w.Answers, cfg.K)
			if err != nil {
				return Table{}, err
			}
			for _, r := range ranked {
				sums[i] += r.Score
			}
		}
		row := []string{p.Name}
		for i := 0; i+1 < len(sums); i++ {
			row = append(row, pct(metrics.PD(sums[i], sums[i+1])))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Figure7Time reproduces Fig. 7(b): the elapsed time of graph
// optimization (one multi-vote solve over a fixed vote set) as the path
// pruning threshold L grows.
func Figure7Time(cfg Config, profiles []synth.Profile) (Table, error) {
	cfg = cfg.withDefaults()
	if len(profiles) == 0 {
		profiles = []synth.Profile{
			synth.Twitter.Scaled(cfg.GraphScale),
			synth.Digg.Scaled(cfg.GraphScale),
			synth.Gnutella.Scaled(cfg.GraphScale),
		}
	}
	t := Table{
		Title:  "Figure 7(b): L vs elapsed time of graph optimization",
		Header: []string{"Graph"},
	}
	for _, l := range cfg.Lengths {
		t.Header = append(t.Header, fmt.Sprintf("L=%d", l))
	}
	for _, p := range profiles {
		host, err := p.Generate(cfg.Seed + 30)
		if err != nil {
			return Table{}, err
		}
		w, err := synth.GenerateWorkload(host, synth.WorkloadConfig{
			NQ: 8, NA: max(40, cfg.K*4), Nnodes: min(host.NumNodes(), 2000), K: cfg.K, Seed: cfg.Seed + 31,
		})
		if err != nil {
			return Table{}, err
		}
		nv := min(len(w.Votes), 4)
		votes := append([]vote.Vote(nil), w.Votes[:nv]...)
		row := []string{p.Name}
		for _, l := range cfg.Lengths {
			g := w.Aug.Graph.Clone()
			eng, err := core.New(g, core.Options{K: cfg.K, L: l, Mode: cfg.sgpMode()})
			if err != nil {
				return Table{}, err
			}
			start := time.Now()
			if _, err := eng.SolveMulti(votes); err != nil {
				return Table{}, fmt.Errorf("harness: L=%d on %s: %w", l, p.Name, err)
			}
			row = append(row, time.Since(start).String())
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Figure2 reproduces Fig. 2: sampled values of the step function and its
// sigmoid approximation at w = 300.
func Figure2() Table {
	t := Table{
		Title:  "Figure 2: step function vs sigmoid approximation (w = 300)",
		Header: []string{"x", "Step(x)", "Sigmoid(300, x)", "AbsErr"},
	}
	for _, x := range []float64{-1, -0.5, -0.1, -0.05, -0.01, 0, 0.01, 0.05, 0.1, 0.5, 1} {
		s := sgp.Step(x)
		g := sgp.Sigmoid(sgp.DefaultSigmoidW, x)
		diff := g - s
		if diff < 0 {
			diff = -diff
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%+.2f", x), fmt.Sprintf("%.0f", s), fmt.Sprintf("%.6f", g), fmt.Sprintf("%.6f", diff),
		})
	}
	return t
}
