// Package harness regenerates every table and figure of the paper's
// evaluation (Section VII). Each experiment is a function returning a
// Table; cmd/experiments prints them and bench_test.go wraps them in
// testing.B benchmarks. Sizes are controlled by Config so tests run in
// milliseconds while cmd/experiments can approach the paper's scale.
package harness

import (
	"fmt"
	"strings"

	"kgvote/internal/core"
	"kgvote/internal/graph"
	"kgvote/internal/metrics"
	"kgvote/internal/qa"
	"kgvote/internal/sgp"
	"kgvote/internal/synth"
	"kgvote/internal/vote"
)

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Config controls experiment sizes. The zero value gives a fast,
// CI-friendly configuration; Paper() approaches the paper's scale.
type Config struct {
	Seed int64
	// Corpus shape for the Taobao-style experiments (Tables III–V, Fig 5).
	Topics, EntitiesPerTopic, Docs, EntitiesPerDoc int
	TrainQuestions, TestQuestions                  int
	// K is the answer-list length.
	K int
	// L is the path-length pruning threshold used by the optimizers.
	L int
	// Corruption is the log-normal noise level injected into the initial
	// knowledge-graph weights (the paper's "source data errors"); the
	// effectiveness experiments measure how well votes repair it.
	Corruption float64
	// FullSolver switches the SGP solving strategy to the paper's full
	// augmented-Lagrangian formulation. The default (false) uses the
	// reduced deviation-eliminated solve, which the solver-mode ablation
	// shows reaches the same Ω_avg at a fraction of the cost; Paper()
	// sets it for fidelity.
	FullSolver bool
	// GraphScale scales the KONECT profiles for Fig 6/7 and Table VI.
	GraphScale float64
	// Votes is the vote-count sweep of Fig 6.
	Votes []int
	// AnswerCounts is the |A| sweep of Table VI.
	AnswerCounts []int
	// Workers for the distributed split-and-merge variant.
	Workers int
	// Queries per timing measurement in Table VI.
	TimingQueries int
	// Lengths is the L sweep of Fig 7.
	Lengths []int
}

func (c Config) withDefaults() Config {
	if c.Topics == 0 {
		c.Topics = 6
	}
	if c.EntitiesPerTopic == 0 {
		c.EntitiesPerTopic = 14
	}
	if c.Docs == 0 {
		c.Docs = 90
	}
	if c.EntitiesPerDoc == 0 {
		c.EntitiesPerDoc = 5
	}
	if c.TrainQuestions == 0 {
		c.TrainQuestions = 40
	}
	if c.TestQuestions == 0 {
		c.TestQuestions = 40
	}
	if c.K == 0 {
		c.K = 10
	}
	if c.L == 0 {
		c.L = 4
	}
	if c.Corruption == 0 {
		c.Corruption = 0.8
	}

	if c.GraphScale == 0 {
		c.GraphScale = 0.01
	}
	if len(c.Votes) == 0 {
		c.Votes = []int{4, 8, 12}
	}
	if len(c.AnswerCounts) == 0 {
		c.AnswerCounts = []int{50, 100, 200, 400}
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.TimingQueries == 0 {
		c.TimingQueries = 3
	}
	if len(c.Lengths) == 0 {
		c.Lengths = []int{2, 3, 4, 5, 6}
	}
	return c
}

// Paper returns a configuration close to the paper's experimental scale.
// Expect multi-minute runtimes.
func Paper() Config {
	return Config{
		Topics:           12,
		EntitiesPerTopic: 32,
		Docs:             2379,
		EntitiesPerDoc:   6,
		TrainQuestions:   100,
		TestQuestions:    100,
		K:                20,
		L:                5,
		Corruption:       0.8,
		FullSolver:       true,
		GraphScale:       1.0,
		Votes:            []int{10, 30, 50, 100, 150, 200},
		AnswerCounts:     []int{5000, 10000, 20000, 40000},
		Workers:          4,
		TimingQueries:    5,
		Lengths:          []int{2, 3, 4, 5, 6},
	}
}

// taobaoFixture bundles the Taobao-substitute scenario shared by Tables
// III–V and Fig 5: a corpus, train questions (that produce votes), and a
// held-out test set.
type taobaoFixture struct {
	corpus *qa.Corpus
	train  []qa.Question
	test   []qa.Question
	cfg    Config
}

func newTaobaoFixture(cfg Config) (*taobaoFixture, error) {
	corpus, err := synth.GenerateCorpus(synth.CorpusConfig{
		Topics:         cfg.Topics,
		EntitiesPer:    cfg.EntitiesPerTopic,
		Docs:           cfg.Docs,
		EntitiesPerDoc: cfg.EntitiesPerDoc,
		Seed:           cfg.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	// Noise 0.4: users phrase questions with related-but-different entities,
	// the regime where graph inference beats literal entity overlap.
	// Hot-document skew: train and test questions concentrate on the same
	// popular quarter of the corpus, the regime where vote feedback
	// transfers to future questions.
	qcfg := synth.QuestionConfig{
		Noise:   0.4,
		HotDocs: max(1, cfg.Docs/4),
		HotProb: 0.75,
		HotSeed: cfg.Seed + 9,
	}
	qcfg.N, qcfg.Seed = cfg.TrainQuestions, cfg.Seed+2
	train, err := synth.GenerateQuestions(corpus, qcfg)
	if err != nil {
		return nil, err
	}
	qcfg.N, qcfg.Seed = cfg.TestQuestions, cfg.Seed+3
	test, err := synth.GenerateQuestions(corpus, qcfg)
	if err != nil {
		return nil, err
	}
	return &taobaoFixture{corpus: corpus, train: train, test: test, cfg: cfg}, nil
}

// solverKind names the optimization variants compared throughout.
type solverKind int

const (
	originalGraph solverKind = iota
	singleVote
	multiVote
	splitMerge
)

func (k solverKind) String() string {
	switch k {
	case originalGraph:
		return "Original Graph"
	case singleVote:
		return "Single-Vote"
	case multiVote:
		return "Multi-Vote"
	case splitMerge:
		return "Split-Merge"
	default:
		return "unknown"
	}
}

// buildOptimized builds a fresh system from the fixture's corpus,
// simulates the training votes, and applies the requested solver. It
// returns the system (already optimized) and the simulated vote records.
func (f *taobaoFixture) buildOptimized(kind solverKind) (*qa.System, []synth.VoteRecord, error) {
	sys, err := f.buildCorrupted()
	if err != nil {
		return nil, nil, err
	}
	recs, err := synth.SimulateVotes(sys, f.train, synth.VoterConfig{Seed: f.cfg.Seed + 4})
	if err != nil {
		return nil, nil, err
	}
	votes := synth.Votes(recs)
	switch kind {
	case originalGraph:
	case singleVote:
		_, err = sys.Engine.SolveSingle(votes)
	case multiVote:
		_, err = sys.Engine.SolveMulti(votes)
	case splitMerge:
		_, err = sys.Engine.SolveSplitMerge(votes)
	}
	if err != nil {
		return nil, nil, err
	}
	return sys, recs, nil
}

// buildCorrupted builds a fresh system and injects the configured weight
// corruption — identically (same seed) for every solver variant, so all
// variants start from the same erroneous graph.
// sgpMode maps the FullSolver switch onto the engine option.
func (c Config) sgpMode() sgp.Mode {
	if c.FullSolver {
		return sgp.Full
	}
	return sgp.Reduced
}

func (f *taobaoFixture) buildCorrupted() (*qa.System, error) {
	sys, err := qa.Build(f.corpus, core.Options{K: f.cfg.K, L: f.cfg.L, Mode: f.cfg.sgpMode()})
	if err != nil {
		return nil, err
	}
	if err := synth.CorruptSystem(sys, f.cfg.Corruption, f.cfg.Seed+5); err != nil {
		return nil, err
	}
	return sys, nil
}

// testRanks evaluates the held-out questions on a system: the 1-based
// rank of each question's ground-truth best document (0 = unrankable).
func (f *taobaoFixture) testRanks(sys *qa.System) ([]int, error) {
	ranks := make([]int, 0, len(f.test))
	for _, q := range f.test {
		qn, err := sys.AttachQuestion(q)
		if err != nil {
			// Questions whose entities are all unknown are unrankable.
			ranks = append(ranks, 0)
			continue
		}
		r, err := sys.RankOfDoc(qn, q.BestDoc)
		if err != nil {
			return nil, err
		}
		ranks = append(ranks, r)
	}
	return ranks, nil
}

// testAPs computes per-question average precision on a system using the
// graded relevance sets (BestDoc plus Question.Relevant), for the MAP
// columns of Fig. 5.
func (f *taobaoFixture) testAPs(sys *qa.System) ([]float64, error) {
	aps := make([]float64, 0, len(f.test))
	for _, q := range f.test {
		qn, err := sys.AttachQuestion(q)
		if err != nil {
			aps = append(aps, 0)
			continue
		}
		ranked, err := sys.Engine.RankAll(qn, sys.Answers())
		if err != nil {
			return nil, err
		}
		ids := make([]int64, len(ranked))
		for i, r := range ranked {
			ids[i] = int64(sys.DocOf(r.Node))
		}
		relevant := map[int64]bool{int64(q.BestDoc): true}
		for _, d := range q.Relevant {
			relevant[int64(d)] = true
		}
		aps = append(aps, metrics.AveragePrecision(ids, relevant))
	}
	return aps, nil
}

// voteOmegaRanks returns the before/after ranks (among all answers) of
// each vote's best answer on the given engine; before ranks must have been
// captured prior to optimization.
func voteOmegaRanks(e *core.Engine, votes []vote.Vote, answers []graph.NodeID) ([]int, error) {
	ranks := make([]int, len(votes))
	for i, v := range votes {
		r, err := e.RankOf(v.Query, v.Best, answers)
		if err != nil {
			return nil, err
		}
		ranks[i] = r
	}
	return ranks, nil
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string {
	return fmt.Sprintf("%.2f%%", 100*v)
}

// CSV renders the table as RFC-4180-ish CSV (comma-separated, quotes
// around cells containing commas or quotes), for plotting pipelines.
func (t Table) CSV() string {
	var b strings.Builder
	esc := func(cell string) string {
		if strings.ContainsAny(cell, ",\"\n") {
			return "\"" + strings.ReplaceAll(cell, "\"", "\"\"") + "\""
		}
		return cell
	}
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	row(t.Header)
	for _, r := range t.Rows {
		row(r)
	}
	return b.String()
}
