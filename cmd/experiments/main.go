// Command experiments regenerates every table and figure of the paper's
// evaluation section on synthetic substitutes of its datasets.
//
// Usage:
//
//	experiments [-run name] [-seed n] [-scale f] [-paper]
//
// where name is one of: all (default), figure2, tableIII, tableIV, tableV,
// figure5, tableVI, figure6, figure7, ablations.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"kgvote/internal/harness"
)

func main() {
	var (
		run    = flag.String("run", "all", "experiment to run (all, figure2, tableIII, tableIV, tableV, figure5, tableVI, figure6, figure7, ablations)")
		seed   = flag.Int64("seed", 1, "random seed")
		scale  = flag.Float64("scale", 0, "graph scale factor for the KONECT profiles (0 = default)")
		paper  = flag.Bool("paper", false, "use the paper's experiment sizes (slow: expect minutes to hours)")
		format = flag.String("format", "table", "output format: table or csv")
	)
	flag.Parse()
	if err := realMain(*run, *seed, *scale, *paper, *format); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func realMain(run string, seed int64, scale float64, paper bool, format string) error {
	if format != "table" && format != "csv" {
		return fmt.Errorf("unknown format %q (table, csv)", format)
	}
	cfg := harness.Config{Seed: seed}
	if paper {
		cfg = harness.Paper()
		cfg.Seed = seed
	}
	if scale > 0 {
		cfg.GraphScale = scale
	}

	type experiment struct {
		name string
		fn   func() (harness.Table, error)
	}
	experiments := []experiment{
		{"figure2", func() (harness.Table, error) { return harness.Figure2(), nil }},
		{"tableIII", func() (harness.Table, error) { return harness.TableIII(cfg) }},
		{"tableIV", func() (harness.Table, error) { return harness.TableIV(cfg) }},
		{"tableV", func() (harness.Table, error) { return harness.TableV(cfg) }},
		{"figure5", func() (harness.Table, error) { return harness.Figure5(cfg) }},
		{"tableVI", func() (harness.Table, error) { return harness.TableVI(cfg) }},
		{"figure6", func() (harness.Table, error) {
			rows, err := harness.Figure6(cfg, nil)
			if err != nil {
				return harness.Table{}, err
			}
			return harness.Figure6Table(rows), nil
		}},
		{"figure7", func() (harness.Table, error) { return harness.Figure7PD(cfg, nil) }},
		{"figure7b", func() (harness.Table, error) { return harness.Figure7Time(cfg, nil) }},
		{"ablation-solver", func() (harness.Table, error) { return harness.AblationSolverMode(cfg) }},
		{"ablation-merge", func() (harness.Table, error) { return harness.AblationMergeRule(cfg) }},
		{"ablation-scorer", func() (harness.Table, error) { return harness.AblationScorer(cfg) }},
		{"ablation-normalize", func() (harness.Table, error) { return harness.AblationNormalize(cfg) }},
		{"ablation-cluster", func() (harness.Table, error) { return harness.AblationCluster(cfg) }},
		{"ablation-quarantine", func() (harness.Table, error) { return harness.AblationQuarantine(cfg) }},
	}

	match := func(name string) bool {
		switch run {
		case "all":
			return true
		case "figure7":
			return name == "figure7" || name == "figure7b"
		case "ablations":
			return strings.HasPrefix(name, "ablation-")
		default:
			return name == run
		}
	}
	ran := 0
	for _, e := range experiments {
		if !match(e.name) {
			continue
		}
		tab, err := e.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		if format == "csv" {
			fmt.Printf("# %s\n%s\n", tab.Title, tab.CSV())
		} else {
			fmt.Println(tab)
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q", run)
	}
	return nil
}
