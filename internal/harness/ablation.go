package harness

import (
	"fmt"
	"math/rand"
	"time"

	"kgvote/internal/core"
	"kgvote/internal/graph"
	"kgvote/internal/metrics"
	"kgvote/internal/pathidx"
	"kgvote/internal/qa"
	"kgvote/internal/sgp"
	"kgvote/internal/synth"
	"kgvote/internal/vote"
)

// AblationSolverMode compares the full augmented-Lagrangian multi-vote
// solve (deviation variables as real variables, the paper's fmincon-style
// formulation) against the reduced form that eliminates deviations
// analytically (DESIGN.md §5).
func AblationSolverMode(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	host, err := synth.Twitter.Scaled(cfg.GraphScale).Generate(cfg.Seed + 40)
	if err != nil {
		return Table{}, err
	}
	w, err := synth.GenerateWorkload(host, synth.WorkloadConfig{
		NQ: 20, NA: 60, Nnodes: min(host.NumNodes(), 2000), K: cfg.K, Seed: cfg.Seed + 41,
	})
	if err != nil {
		return Table{}, err
	}
	nv := min(len(w.Votes), 8)
	votes := w.Votes[:nv]
	t := Table{
		Title:  "Ablation: multi-vote SGP solving strategy",
		Header: []string{"Mode", "Elapsed", "Omega_avg", "Satisfied", "Constraints"},
	}
	for _, mode := range []struct {
		name string
		mode sgp.Mode
	}{{"Full (aug. Lagrangian)", sgp.Full}, {"Reduced (dev eliminated)", sgp.Reduced}} {
		g := w.Aug.Graph.Clone()
		eng, err := core.New(g, core.Options{K: cfg.K, L: cfg.L, Mode: mode.mode})
		if err != nil {
			return Table{}, err
		}
		before, err := voteOmegaRanks(eng, votes, w.Answers)
		if err != nil {
			return Table{}, err
		}
		start := time.Now()
		rep, err := eng.SolveMulti(votes)
		if err != nil {
			return Table{}, fmt.Errorf("harness: mode %s: %w", mode.name, err)
		}
		elapsed := time.Since(start)
		after, err := voteOmegaRanks(eng, votes, w.Answers)
		if err != nil {
			return Table{}, err
		}
		omega, err := metrics.OmegaAvg(before, after)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			mode.name, elapsed.String(), f2(omega),
			fmt.Sprintf("%d", rep.Satisfied), fmt.Sprintf("%d", rep.Constraints),
		})
	}
	return t, nil
}

// AblationMergeRule compares the paper's vote-weighted sign/max merge rule
// against plain (vote-weighted) averaging in split-and-merge.
func AblationMergeRule(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	host, err := synth.Digg.Scaled(cfg.GraphScale).Generate(cfg.Seed + 42)
	if err != nil {
		return Table{}, err
	}
	w, err := synth.GenerateWorkload(host, synth.WorkloadConfig{
		NQ: 24, NA: 60, Nnodes: min(host.NumNodes(), 2000), K: cfg.K, Seed: cfg.Seed + 43,
	})
	if err != nil {
		return Table{}, err
	}
	nv := min(len(w.Votes), 10)
	votes := w.Votes[:nv]
	t := Table{
		Title:  "Ablation: split-and-merge delta combination rule",
		Header: []string{"Rule", "Elapsed", "Omega_avg", "Clusters"},
	}
	for _, rule := range []struct {
		name string
		rule core.MergeRule
	}{{"Vote-weighted sign/max (paper)", core.VoteWeighted}, {"Vote-weighted average", core.AverageDeltas}} {
		g := w.Aug.Graph.Clone()
		eng, err := core.New(g, core.Options{K: cfg.K, L: cfg.L, Mode: cfg.sgpMode(), Merge: rule.rule})
		if err != nil {
			return Table{}, err
		}
		before, err := voteOmegaRanks(eng, votes, w.Answers)
		if err != nil {
			return Table{}, err
		}
		start := time.Now()
		rep, err := eng.SolveSplitMerge(votes)
		if err != nil {
			return Table{}, fmt.Errorf("harness: rule %s: %w", rule.name, err)
		}
		elapsed := time.Since(start)
		after, err := voteOmegaRanks(eng, votes, w.Answers)
		if err != nil {
			return Table{}, err
		}
		omega, err := metrics.OmegaAvg(before, after)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{rule.name, elapsed.String(), f2(omega), fmt.Sprintf("%d", rep.Clusters)})
	}
	return t, nil
}

// AblationScorer compares the two equivalent EIPD evaluation strategies:
// explicit walk enumeration (needed for constraint encoding) versus the
// truncated power-series sweep (used for ranking).
func AblationScorer(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	host, err := synth.Gnutella.Scaled(cfg.GraphScale).Generate(cfg.Seed + 44)
	if err != nil {
		return Table{}, err
	}
	w, err := synth.GenerateWorkload(host, synth.WorkloadConfig{
		NQ: 4, NA: 40, Nnodes: min(host.NumNodes(), 2000), K: cfg.K, Seed: cfg.Seed + 45,
	})
	if err != nil {
		return Table{}, err
	}
	opt := pathidx.Options{L: pathidx.DefaultL}
	t := Table{
		Title:  "Ablation: EIPD evaluation strategy (per query, all answers)",
		Header: []string{"Strategy", "Elapsed/query"},
	}
	// Enumeration strategy.
	start := time.Now()
	for _, q := range w.Queries {
		paths, err := pathidx.Enumerate(w.Aug.Graph, q, w.Answers, opt)
		if err != nil {
			return Table{}, err
		}
		for _, ps := range paths {
			_ = pathidx.SumPaths(w.Aug.Graph, ps, 0.15)
		}
	}
	enumPer := time.Since(start) / time.Duration(len(w.Queries))
	t.Rows = append(t.Rows, []string{"Explicit walk enumeration", enumPer.String()})

	scorer, err := pathidx.NewCSRScorer(graph.Compile(w.Aug.Graph), opt)
	if err != nil {
		return Table{}, err
	}
	start = time.Now()
	for _, q := range w.Queries {
		if _, err := scorer.Scores(q); err != nil {
			return Table{}, err
		}
	}
	sweepPer := time.Since(start) / time.Duration(len(w.Queries))
	t.Rows = append(t.Rows, []string{"Truncated power-series sweep", sweepPer.String()})
	return t, nil
}

// AblationNormalize compares the post-solve normalization modes.
func AblationNormalize(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	f, err := newTaobaoFixture(cfg)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Ablation: post-solve normalization mode (multi-vote, test-set ranks)",
		Header: []string{"Mode", "R_avg", "Omega_avg vs original"},
	}
	var baseRanks []int
	for _, m := range []struct {
		name string
		mode core.NormalizeMode
	}{{"original (no votes)", -1}, {"CapSum (default)", core.CapSum}, {"UnitSum", core.UnitSum}, {"NoNormalize", core.NoNormalize}} {
		var ranks []int
		if m.mode < 0 {
			sys, _, err := f.buildOptimized(originalGraph)
			if err != nil {
				return Table{}, err
			}
			ranks, err = f.testRanks(sys)
			if err != nil {
				return Table{}, err
			}
			baseRanks = ranks
			t.Rows = append(t.Rows, []string{m.name, f2(metrics.MeanRank(ranks)), "-"})
			continue
		}
		sys, err := buildWithNormalize(f, m.mode)
		if err != nil {
			return Table{}, err
		}
		ranks, err = f.testRanks(sys)
		if err != nil {
			return Table{}, err
		}
		omega, err := metrics.OmegaAvg(baseRanks, ranks)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{m.name, f2(metrics.MeanRank(ranks)), f2(omega)})
	}
	return t, nil
}

func buildWithNormalize(f *taobaoFixture, mode core.NormalizeMode) (*qa.System, error) {
	s, err := qa.Build(f.corpus, core.Options{K: f.cfg.K, L: f.cfg.L, Mode: f.cfg.sgpMode(), Normalize: mode})
	if err != nil {
		return nil, err
	}
	if err := synth.CorruptSystem(s, f.cfg.Corruption, f.cfg.Seed+5); err != nil {
		return nil, err
	}
	recs, err := synth.SimulateVotes(s, f.train, synth.VoterConfig{Seed: f.cfg.Seed + 4})
	if err != nil {
		return nil, err
	}
	if _, err := s.Engine.SolveMulti(synth.Votes(recs)); err != nil {
		return nil, err
	}
	return s, nil
}

// AblationCluster compares the split strategy's clustering algorithms:
// the paper's affinity propagation (adaptive k) versus k-medoids with
// k = ⌈√votes⌉.
func AblationCluster(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	host, err := synth.Twitter.Scaled(cfg.GraphScale).Generate(cfg.Seed + 46)
	if err != nil {
		return Table{}, err
	}
	w, err := synth.GenerateWorkload(host, synth.WorkloadConfig{
		NQ: 24, NA: 60, Nnodes: min(host.NumNodes(), 2000), K: cfg.K, Seed: cfg.Seed + 47,
	})
	if err != nil {
		return Table{}, err
	}
	nv := min(len(w.Votes), 10)
	votes := w.Votes[:nv]
	t := Table{
		Title:  "Ablation: split strategy clustering algorithm",
		Header: []string{"Algorithm", "Elapsed", "Omega_avg", "Clusters"},
	}
	for _, algo := range []struct {
		name string
		algo core.ClusterAlgo
	}{{"Affinity propagation (paper)", core.APCluster}, {"K-medoids (k = ceil sqrt n)", core.KMedoidsCluster}} {
		g := w.Aug.Graph.Clone()
		eng, err := core.New(g, core.Options{K: cfg.K, L: cfg.L, Mode: cfg.sgpMode(), Cluster: algo.algo})
		if err != nil {
			return Table{}, err
		}
		before, err := voteOmegaRanks(eng, votes, w.Answers)
		if err != nil {
			return Table{}, err
		}
		start := time.Now()
		rep, err := eng.SolveSplitMerge(votes)
		if err != nil {
			return Table{}, fmt.Errorf("harness: cluster algo %s: %w", algo.name, err)
		}
		elapsed := time.Since(start)
		after, err := voteOmegaRanks(eng, votes, w.Answers)
		if err != nil {
			return Table{}, err
		}
		omega, err := metrics.OmegaAvg(before, after)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{algo.name, elapsed.String(), f2(omega), fmt.Sprintf("%d", rep.Clusters)})
	}
	return t, nil
}

// quarantineBatch is the stream flush threshold of the quarantine ablation.
const quarantineBatch = 16

// honestVoters is how many honest identities every quarantine pass simulates.
const honestVoters = 5

// quarantineScenarios are the two attacks the reputation tracker must
// absorb, sized so the adversarial stream rivals the honest one.
func quarantineScenarios(cfg Config) []synth.Scenario {
	return []synth.Scenario{
		{Kind: synth.SpamFlood, Seed: cfg.Seed + 21, Volume: 3 * cfg.TrainQuestions},
		{Kind: synth.ColludingRing, Seed: cfg.Seed + 22, Waves: 3},
	}
}

// AblationQuarantine drives honest voters mixed with each adversarial
// scenario of DESIGN.md §15 through full vote→flush→re-rank cycles, with
// the reputation tracker installed and without it: the tracker, not the
// solver alone, is what absorbs the attacks. Ω_avg is over the honest
// votes; MRR and MAP are over the held-out test questions.
func AblationQuarantine(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	f, err := newTaobaoFixture(cfg)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Ablation: reputation quarantine under adversarial votes",
		Header: []string{"Scenario", "Tracker", "Omega_avg", "MRR", "MAP", "Votes quarantined", "Honest voters quarantined"},
	}
	row := func(name string, adv *synth.Scenario, withTracker bool) error {
		pm, err := runScenarioPass(f, adv, withTracker, core.StreamMulti)
		if err != nil {
			return fmt.Errorf("harness: %s: %w", name, err)
		}
		tracker := "off"
		if withTracker {
			tracker = "on"
		}
		t.Rows = append(t.Rows, []string{
			name, tracker, f2(pm.omegaAvg), f3(pm.mrr), f3(pm.mapScore),
			fmt.Sprintf("%d", pm.quarantined), fmt.Sprintf("%d", pm.honestQuarantined),
		})
		return nil
	}
	if err := row("honest only", nil, true); err != nil {
		return Table{}, err
	}
	for _, sc := range quarantineScenarios(cfg) {
		for _, withTracker := range []bool{true, false} {
			if err := row(sc.Kind.String(), &sc, withTracker); err != nil {
				return Table{}, err
			}
		}
	}
	return t, nil
}

// passMetrics is one full vote→flush→re-rank cycle's outcome.
type passMetrics struct {
	quarantined       int // votes the flushes set aside
	honestQuarantined int // honest voters the tracker ended up quarantining
	omegaAvg          float64
	mrr, mapScore     float64
}

// runScenarioPass builds a fresh identically-corrupted system, generates
// the honest stream plus (optionally) one adversarial stream against it,
// interleaves them in a deterministic shuffle, and streams everything
// through batch flushes. Honest Ω_avg compares each honest vote's
// ground-truth rank at vote time against its final rank; MRR/MAP come
// from the held-out test set.
func runScenarioPass(f *taobaoFixture, adv *synth.Scenario, withTracker bool, solver core.StreamSolver) (passMetrics, error) {
	var pm passMetrics
	sys, err := f.buildCorrupted()
	if err != nil {
		return pm, err
	}
	honest, err := synth.SimulateScenario(sys, f.train, synth.Scenario{
		Kind: synth.Honest, Seed: f.cfg.Seed + 4, Voters: honestVoters,
	})
	if err != nil {
		return pm, err
	}
	recs := append([]synth.VoteRecord(nil), honest...)
	if adv != nil {
		advRecs, err := synth.SimulateScenario(sys, f.train, *adv)
		if err != nil {
			return pm, err
		}
		recs = append(recs, advRecs...)
	}
	rand.New(rand.NewSource(f.cfg.Seed+6)).Shuffle(len(recs), func(i, j int) {
		recs[i], recs[j] = recs[j], recs[i]
	})

	stream, err := sys.Engine.NewStream(quarantineBatch, solver)
	if err != nil {
		return pm, err
	}
	var tracker *vote.Reputation
	if withTracker {
		tracker = vote.NewReputation(vote.ReputationConfig{})
		stream.SetVoterPolicy(tracker)
	}
	for _, rec := range recs {
		if tracker != nil {
			tracker.Observe(rec.Vote.Voter, uint64(rec.Question.ID), rec.Vote.Best)
		}
		rep, err := stream.Push(rec.Vote)
		if err != nil {
			return pm, err
		}
		if rep != nil {
			pm.quarantined += rep.Quarantined
		}
	}
	rep, err := stream.Flush()
	if err != nil {
		return pm, err
	}
	if rep != nil {
		pm.quarantined += rep.Quarantined
	}
	if tracker != nil {
		for i := 0; i < honestVoters; i++ {
			// synth names its honest voters "honest-<i>".
			if tracker.Quarantine(fmt.Sprintf("honest-%d", i)) {
				pm.honestQuarantined++
			}
		}
	}

	// Honest Ω: the ground-truth answer's rank at vote time vs now.
	var before, after []int
	for _, rec := range honest {
		best, err := sys.AnswerOf(rec.Question.BestDoc)
		if err != nil {
			return pm, err
		}
		now, err := sys.Engine.RankOf(rec.Query, best, sys.Answers())
		if err != nil {
			return pm, err
		}
		before = append(before, rec.TrueRank)
		after = append(after, now)
	}
	pm.omegaAvg, err = metrics.OmegaAvg(before, after)
	if err != nil {
		return pm, err
	}
	ranks, err := f.testRanks(sys)
	if err != nil {
		return pm, err
	}
	pm.mrr = metrics.MRR(ranks)
	aps, err := f.testAPs(sys)
	if err != nil {
		return pm, err
	}
	pm.mapScore = metrics.MAP(aps)
	return pm, nil
}
