package main

import (
	"flag"
	"fmt"
	"os"

	"kgvote/internal/core"
	"kgvote/internal/graph"
	"kgvote/internal/metrics"
	"kgvote/internal/qa"
	"kgvote/internal/synth"
	"kgvote/internal/vote"
)

// cmdEval measures Q&A accuracy (H@k, MRR, R_avg) of a corpus — optionally
// after optimizing with simulated votes — so deployments can judge whether
// vote feedback would help before wiring it in.
func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	corpusPath := fs.String("corpus", "", "corpus JSON path (required)")
	questionsPath := fs.String("questions", "", "questions JSON path (default: synthesize)")
	solver := fs.String("solver", "", "optimize first with: single, multi, or sm (default: no optimization)")
	votesN := fs.Int("votes", 50, "simulated training votes when -solver is set")
	k := fs.Int("k", 10, "answer-list length")
	l := fs.Int("l", 4, "path-length pruning threshold")
	corruption := fs.Float64("corrupt", 0, "inject log-normal weight noise before evaluating")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *corpusPath == "" {
		return fmt.Errorf("eval: -corpus is required")
	}
	cf, err := os.Open(*corpusPath)
	if err != nil {
		return err
	}
	defer cf.Close()
	corpus, err := qa.ReadCorpus(cf)
	if err != nil {
		return err
	}

	var questions []qa.Question
	if *questionsPath != "" {
		qf, err := os.Open(*questionsPath)
		if err != nil {
			return err
		}
		defer qf.Close()
		questions, err = qa.ReadQuestions(qf)
		if err != nil {
			return err
		}
	} else {
		questions, err = synth.GenerateQuestions(corpus, synth.QuestionConfig{N: 50, Noise: 0.4, Seed: *seed + 1})
		if err != nil {
			return err
		}
	}

	sys, err := qa.Build(corpus, core.Options{K: *k, L: *l})
	if err != nil {
		return err
	}
	if *corruption > 0 {
		if err := synth.CorruptSystem(sys, *corruption, *seed+2); err != nil {
			return err
		}
	}

	if *solver != "" {
		train, err := synth.GenerateQuestions(corpus, synth.QuestionConfig{N: *votesN, Noise: 0.4, Seed: *seed + 3})
		if err != nil {
			return err
		}
		recs, err := synth.SimulateVotes(sys, train, synth.VoterConfig{Seed: *seed + 4})
		if err != nil {
			return err
		}
		votes := synth.Votes(recs)
		var rep *core.Report
		switch *solver {
		case "single":
			rep, err = sys.Engine.SolveSingle(votes)
		case "multi":
			rep, err = sys.Engine.SolveMulti(votes)
		case "sm":
			rep, err = sys.Engine.SolveSplitMerge(votes)
		default:
			return fmt.Errorf("eval: unknown solver %q", *solver)
		}
		if err != nil {
			return err
		}
		fmt.Printf("optimized with %s: %d votes (%d discarded), %d/%d constraints satisfied\n",
			*solver, rep.Votes, rep.Discarded, rep.Satisfied, rep.Constraints)
	}

	ranks := make([]int, 0, len(questions))
	skipped := 0
	for _, q := range questions {
		if q.BestDoc < 0 {
			skipped++
			continue
		}
		qn, err := sys.AttachQuestion(q)
		if err != nil {
			skipped++
			continue
		}
		r, err := sys.RankOfDoc(qn, q.BestDoc)
		if err != nil {
			return err
		}
		ranks = append(ranks, r)
	}
	if len(ranks) == 0 {
		return fmt.Errorf("eval: no evaluable questions (need BestDoc ground truth)")
	}
	fmt.Printf("questions: %d evaluated, %d skipped\n", len(ranks), skipped)
	fmt.Printf("R_avg: %.2f\n", metrics.MeanRank(ranks))
	fmt.Printf("MRR:   %.3f\n", metrics.MRR(ranks))
	for _, kk := range []int{1, 3, 5, 10} {
		fmt.Printf("H@%-2d:  %.2f\n", kk, metrics.HitsAtK(ranks, kk))
	}
	return nil
}

// cmdGenVotes synthesizes a vote workload over a TSV graph and writes the
// votes as JSON, for feeding into `kgvote optimize`.
func cmdGenVotes(args []string) error {
	fs := flag.NewFlagSet("gen-votes", flag.ContinueOnError)
	graphPath := fs.String("graph", "", "graph TSV path (required)")
	nq := fs.Int("queries", 50, "number of queries")
	na := fs.Int("answers", 100, "number of answers")
	k := fs.Int("k", 10, "answer-list length")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("out", "", "output JSON path (default stdout)")
	outGraph := fs.String("out-graph", "", "write the augmented graph TSV here (required: vote node IDs refer to it)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" {
		return fmt.Errorf("gen-votes: -graph is required")
	}
	if *outGraph == "" {
		return fmt.Errorf("gen-votes: -out-graph is required (votes reference query/answer nodes added to the graph)")
	}
	gf, err := os.Open(*graphPath)
	if err != nil {
		return err
	}
	defer gf.Close()
	g, err := graph.ReadTSV(gf)
	if err != nil {
		return err
	}
	w, err := synth.GenerateWorkload(g, synth.WorkloadConfig{NQ: *nq, NA: *na, K: *k, Nnodes: g.NumNodes(), Seed: *seed})
	if err != nil {
		return err
	}
	og, err := os.Create(*outGraph)
	if err != nil {
		return err
	}
	defer og.Close()
	if err := w.Aug.WriteTSV(og); err != nil {
		return err
	}
	wOut := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		wOut = f
	}
	if err := vote.WriteJSON(wOut, w.Votes); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generated %d votes over %d queries and %d answers\n", len(w.Votes), *nq, *na)
	return nil
}
