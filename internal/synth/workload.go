package synth

import (
	"fmt"
	"math/rand"

	"kgvote/internal/graph"
	"kgvote/internal/pathidx"
	"kgvote/internal/vote"
)

// WorkloadConfig mirrors the synthetic-vote parameters of Section VII-A:
// NQ queries and NA answers randomly linked to an Nnodes-node subgraph;
// top-k lists of length K; negative votes with average best-answer
// position AveN.
type WorkloadConfig struct {
	NQ     int // number of queries (paper default 100)
	NA     int // number of answers (paper default 2379)
	Nnodes int // subgraph size the queries/answers link into (10000)
	K      int // answer-list length (20)
	AveN   int // average best-answer position for negative votes (10)
	// QueryFanout / AnswerFanout are how many subgraph nodes each query /
	// answer links to; default 3.
	QueryFanout, AnswerFanout int
	// PosFrac is the fraction of positive votes; default 0.5 (the paper's
	// real study had 53/100 positive).
	PosFrac float64
	// L and C configure the ranking scorer; defaults follow the paper.
	L    int
	C    float64
	Seed int64
}

func (c WorkloadConfig) withDefaults() WorkloadConfig {
	if c.NQ == 0 {
		c.NQ = 100
	}
	if c.NA == 0 {
		c.NA = 2379
	}
	if c.Nnodes == 0 {
		c.Nnodes = 10000
	}
	if c.K == 0 {
		c.K = 20
	}
	if c.AveN == 0 {
		c.AveN = 10
	}
	if c.QueryFanout == 0 {
		c.QueryFanout = 3
	}
	if c.AnswerFanout == 0 {
		c.AnswerFanout = 3
	}
	if c.PosFrac == 0 {
		c.PosFrac = 0.5
	}
	if c.L == 0 {
		c.L = pathidx.DefaultL
	}
	if c.C == 0 {
		c.C = 0.15
	}
	return c
}

// Workload is a generated vote benchmark: the augmented graph plus the
// query/answer nodes and the synthetic votes.
type Workload struct {
	Aug     *graph.Augmented
	Queries []graph.NodeID
	Answers []graph.NodeID
	Votes   []vote.Vote
}

// GenerateWorkload attaches queries and answers to a BFS-local subgraph of
// g and synthesizes votes per the paper's protocol: rank the answers for
// each query, then pick a best answer — the top one (positive vote) or one
// near position AveN (negative vote). Queries whose ranked list has fewer
// than two reachable answers produce no vote. The input graph is mutated
// (augmented); pass a clone to preserve it.
func GenerateWorkload(g *graph.Graph, cfg WorkloadConfig) (*Workload, error) {
	cfg = cfg.withDefaults()
	if g.NumNodes() < 2 {
		return nil, fmt.Errorf("synth: host graph too small (%d nodes)", g.NumNodes())
	}
	if cfg.Nnodes > g.NumNodes() {
		cfg.Nnodes = g.NumNodes()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sub := bfsSample(g, cfg.Nnodes, rng)
	aug := graph.Augment(g)
	w := &Workload{Aug: aug}

	pick := func(fanout int) ([]graph.NodeID, []float64) {
		ents := make([]graph.NodeID, 0, fanout)
		seen := make(map[graph.NodeID]bool, fanout)
		for len(ents) < fanout && len(seen) < len(sub) {
			n := sub[rng.Intn(len(sub))]
			if seen[n] {
				continue
			}
			seen[n] = true
			ents = append(ents, n)
		}
		counts := make([]float64, len(ents))
		for i := range counts {
			counts[i] = 1
		}
		return ents, counts
	}

	for i := 0; i < cfg.NA; i++ {
		ents, counts := pick(cfg.AnswerFanout)
		a, err := aug.AttachAnswer(fmt.Sprintf("ans#%d", i), ents, counts)
		if err != nil {
			return nil, fmt.Errorf("synth: answer %d: %w", i, err)
		}
		w.Answers = append(w.Answers, a)
	}
	for i := 0; i < cfg.NQ; i++ {
		ents, counts := pick(cfg.QueryFanout)
		q, err := aug.AttachQuery(fmt.Sprintf("qry#%d", i), ents, counts)
		if err != nil {
			return nil, fmt.Errorf("synth: query %d: %w", i, err)
		}
		w.Queries = append(w.Queries, q)
	}

	scorer, err := pathidx.NewCSRScorer(graph.Compile(g), pathidx.Options{L: cfg.L, C: cfg.C})
	if err != nil {
		return nil, err
	}
	for _, q := range w.Queries {
		ranked, err := scorer.Rank(q, w.Answers, cfg.K)
		if err != nil {
			return nil, err
		}
		// Keep only answers actually reachable (score > 0).
		list := make([]graph.NodeID, 0, len(ranked))
		for _, r := range ranked {
			if r.Score > 0 {
				list = append(list, r.Node)
			}
		}
		if len(list) < 2 {
			continue
		}
		var best graph.NodeID
		if rng.Float64() < cfg.PosFrac {
			best = list[0]
		} else {
			best = list[negativeRank(rng, cfg.AveN, len(list))-1]
		}
		v, err := vote.FromRanking(q, list, best)
		if err != nil {
			return nil, err
		}
		w.Votes = append(w.Votes, v)
	}
	return w, nil
}

// negativeRank samples a best-answer position in [2, n] whose mean is
// close to aveN, using a geometric-ish spread around the target.
func negativeRank(rng *rand.Rand, aveN, n int) int {
	if n < 2 {
		return n
	}
	target := aveN
	if target > n {
		target = n
	}
	if target < 2 {
		target = 2
	}
	// Uniform over [2, 2*target-2] has mean target; clamp into [2, n].
	hi := 2*target - 2
	if hi < 2 {
		hi = 2
	}
	r := 2 + rng.Intn(hi-2+1)
	if r > n {
		r = n
	}
	return r
}

// bfsSample returns up to n node IDs discovered by BFS from a random
// start, restarting on new random seeds until n nodes are collected. The
// locality makes queries and answers mutually reachable within L hops,
// matching the paper's "centrally distributed in a sub-graph" setting.
func bfsSample(g *graph.Graph, n int, rng *rand.Rand) []graph.NodeID {
	total := g.NumNodes()
	if n >= total {
		out := make([]graph.NodeID, total)
		for i := range out {
			out[i] = graph.NodeID(i)
		}
		return out
	}
	visited := make(map[graph.NodeID]bool, n)
	out := make([]graph.NodeID, 0, n)
	var queue []graph.NodeID
	for len(out) < n {
		if len(queue) == 0 {
			start := graph.NodeID(rng.Intn(total))
			if visited[start] {
				continue
			}
			queue = append(queue, start)
			visited[start] = true
		}
		cur := queue[0]
		queue = queue[1:]
		out = append(out, cur)
		for _, e := range g.Out(cur) {
			if !visited[e.To] && len(visited) < 4*n {
				visited[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	return out
}
