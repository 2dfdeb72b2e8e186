package pathidx_test

import (
	"testing"

	"kgvote/internal/core"
	"kgvote/internal/graph"
	"kgvote/internal/pathidx"
	"kgvote/internal/qa"
	"kgvote/internal/synth"
)

// The kernel benchmarks run on the graph the repo benchmark's ask_cold
// workload serves (bench/gen.go's fixture corpus: 32 topics × 64
// entities, 2000 documents → 4045 nodes, 64 030 edges, 2000 candidate
// answers) at the served K = 10, L = 4, cycling through 64 questions.
// They live in the external test package because building that graph
// needs qa, which imports pathidx.

type seedVec struct {
	ids []graph.NodeID
	ws  []float64
}

func askColdKernel(b *testing.B) (*pathidx.CSRScorer, []seedVec, []graph.NodeID) {
	b.Helper()
	corpus, err := synth.GenerateCorpus(synth.CorpusConfig{Topics: 32, EntitiesPer: 64, Docs: 2000, Seed: 1001})
	if err != nil {
		b.Fatal(err)
	}
	sys, err := qa.Build(corpus, core.Options{K: 10, L: 4})
	if err != nil {
		b.Fatal(err)
	}
	questions, err := synth.GenerateQuestions(corpus, synth.QuestionConfig{N: 64, Noise: 0.4, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	seeds := make([]seedVec, 0, len(questions))
	for _, q := range questions {
		ids, ws, _, err := sys.Seed(q)
		if err != nil {
			b.Fatal(err)
		}
		seeds = append(seeds, seedVec{ids, ws})
	}
	snap := sys.Engine.Serving()
	b.Logf("graph: %d nodes, %d edges, %d candidates", snap.NumNodes(), snap.NumEdges(), len(sys.ServingAnswers()))
	return snap.Pool().Get(), seeds, sys.ServingAnswers()
}

// BenchmarkScoresSeeded is the sweep alone: the full score vector of one
// question.
func BenchmarkScoresSeeded(b *testing.B) {
	sc, seeds, _ := askColdKernel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := seeds[i%len(seeds)]
		if _, err := sc.ScoresSeeded(s.ids, s.ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRankSeeded is what an uncached ask pays: the sweep ended at
// the candidates plus the top-K selection, into a retained buffer.
func BenchmarkRankSeeded(b *testing.B) {
	sc, seeds, answers := askColdKernel(b)
	const k = 10
	buf := make([]pathidx.Ranked, 0, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := seeds[i%len(seeds)]
		var err error
		if buf, err = sc.RankSeededInto(buf[:0], s.ids, s.ws, answers, k); err != nil {
			b.Fatal(err)
		}
	}
}
