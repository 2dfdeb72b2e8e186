package harness

import (
	"fmt"
	"time"

	"kgvote/internal/core"
	"kgvote/internal/graph"
	"kgvote/internal/metrics"
	"kgvote/internal/pathidx"
	"kgvote/internal/ppr"
	"kgvote/internal/synth"
	"kgvote/internal/vote"
)

// TableVI reproduces Table VI: the average elapsed time per query of the
// random-walk similarity evaluation of [5] (one linear-system solve per
// answer) versus the extended inverse P-distance, as the number of
// answers grows. Absolute times differ from the paper's MATLAB setup; the
// reproduction target is the shape — random walk grows linearly with |A|
// while EIPD stays nearly flat.
func TableVI(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	host, err := synth.RandomGraph(max(200, cfg.AnswerCounts[len(cfg.AnswerCounts)-1]/2), max(800, cfg.AnswerCounts[len(cfg.AnswerCounts)-1]*2), cfg.Seed+10)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Table VI: average elapsed time per query",
		Header: []string{"|A|", "Random Walk [5]", "Extended Inverse P-Distance", "Speedup"},
	}
	for _, na := range cfg.AnswerCounts {
		g := host.Clone()
		w, err := synth.GenerateWorkload(g, synth.WorkloadConfig{
			NQ: cfg.TimingQueries, NA: na, Nnodes: g.NumNodes(), K: cfg.K, Seed: cfg.Seed + 11,
		})
		if err != nil {
			return Table{}, err
		}
		// Random-walk baseline: one Gauss–Seidel solve per answer.
		walker, err := ppr.NewWalker(g, ppr.Options{})
		if err != nil {
			return Table{}, err
		}
		start := time.Now()
		for _, q := range w.Queries {
			if _, err := walker.Rank(q, w.Answers, cfg.K); err != nil {
				return Table{}, err
			}
		}
		walkPer := time.Since(start) / time.Duration(len(w.Queries))

		// EIPD: one truncated sweep scores all answers.
		scorer, err := pathidx.NewCSRScorer(graph.Compile(g), pathidx.Options{})
		if err != nil {
			return Table{}, err
		}
		start = time.Now()
		for _, q := range w.Queries {
			if _, err := scorer.Rank(q, w.Answers, cfg.K); err != nil {
				return Table{}, err
			}
		}
		eipdPer := time.Since(start) / time.Duration(len(w.Queries))

		speedup := float64(walkPer) / float64(maxDuration(eipdPer, time.Nanosecond))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", na), walkPer.String(), eipdPer.String(), fmt.Sprintf("%.1fx", speedup),
		})
	}
	return t, nil
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// Figure6Row is one measurement of the Fig. 6 sweep.
type Figure6Row struct {
	Graph    string
	Votes    int
	Solver   string
	Elapsed  time.Duration
	OmegaAvg float64
	Clusters int
}

// Figure6 reproduces Fig. 6(a–f): for each graph profile and vote count,
// the elapsed time and Ω_avg of the basic multi-vote solution, the
// split-and-merge strategy (sequential and parallel/distributed), and the
// single-vote solution.
func Figure6(cfg Config, profiles []synth.Profile) ([]Figure6Row, error) {
	cfg = cfg.withDefaults()
	if len(profiles) == 0 {
		profiles = []synth.Profile{
			synth.Twitter.Scaled(cfg.GraphScale),
			synth.Digg.Scaled(cfg.GraphScale),
			synth.Gnutella.Scaled(cfg.GraphScale),
		}
	}
	var rows []Figure6Row
	for _, p := range profiles {
		host, err := p.Generate(cfg.Seed + 20)
		if err != nil {
			return nil, err
		}
		maxVotes := cfg.Votes[len(cfg.Votes)-1]
		w, err := synth.GenerateWorkload(host, synth.WorkloadConfig{
			NQ:     maxVotes * 2, // head-room: not every query yields a vote
			NA:     max(40, maxVotes*4),
			Nnodes: min(host.NumNodes(), 2000),
			K:      cfg.K,
			Seed:   cfg.Seed + 21,
		})
		if err != nil {
			return nil, err
		}
		for _, nv := range cfg.Votes {
			if nv > len(w.Votes) {
				nv = len(w.Votes)
			}
			votes := w.Votes[:nv]
			type variant struct {
				name    string
				workers int
				run     func(e *core.Engine, vs []vote.Vote) (*core.Report, error)
			}
			variants := []variant{
				{"Multi-Vote", 1, func(e *core.Engine, vs []vote.Vote) (*core.Report, error) { return e.SolveMulti(vs) }},
				{"S-M", 1, func(e *core.Engine, vs []vote.Vote) (*core.Report, error) { return e.SolveSplitMerge(vs) }},
				{"Distributed S-M", cfg.Workers, func(e *core.Engine, vs []vote.Vote) (*core.Report, error) { return e.SolveSplitMerge(vs) }},
				{"Single-Vote", 1, func(e *core.Engine, vs []vote.Vote) (*core.Report, error) { return e.SolveSingle(vs) }},
			}
			for _, v := range variants {
				g := w.Aug.Graph.Clone()
				eng, err := core.New(g, core.Options{K: cfg.K, L: cfg.L, Mode: cfg.sgpMode(), Workers: v.workers})
				if err != nil {
					return nil, err
				}
				before, err := voteOmegaRanks(eng, votes, w.Answers)
				if err != nil {
					return nil, err
				}
				start := time.Now()
				rep, err := v.run(eng, votes)
				if err != nil {
					return nil, fmt.Errorf("harness: %s on %s with %d votes: %w", v.name, p.Name, nv, err)
				}
				elapsed := time.Since(start)
				after, err := voteOmegaRanks(eng, votes, w.Answers)
				if err != nil {
					return nil, err
				}
				omega, err := metrics.OmegaAvg(before, after)
				if err != nil {
					return nil, err
				}
				rows = append(rows, Figure6Row{
					Graph: p.Name, Votes: nv, Solver: v.name,
					Elapsed: elapsed, OmegaAvg: omega, Clusters: rep.Clusters,
				})
			}
		}
	}
	return rows, nil
}

// Figure6Table renders Figure6 rows as a table.
func Figure6Table(rows []Figure6Row) Table {
	t := Table{
		Title:  "Figure 6: number of votes vs elapsed time and Omega_avg",
		Header: []string{"Graph", "Votes", "Solver", "Elapsed", "Omega_avg", "Clusters"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Graph, fmt.Sprintf("%d", r.Votes), r.Solver,
			r.Elapsed.String(), f2(r.OmegaAvg), fmt.Sprintf("%d", r.Clusters),
		})
	}
	return t
}
