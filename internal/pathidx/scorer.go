package pathidx

import (
	"fmt"

	"kgvote/internal/graph"
	"kgvote/internal/topk"
)

// Scorer computes truncated extended inverse P-distances for every node in
// one pass: score(v) = Σ_{l=1..L} c·(1−c)^l · (Wˡ)_{source,v}, using L
// sparse frontier pushes instead of explicit walk enumeration.
//
// A Scorer is reusable across queries on the same graph; it keeps dense
// scratch buffers sized to the graph. It is not safe for concurrent use;
// create one Scorer per goroutine.
type Scorer struct {
	g   *graph.Graph
	opt Options

	cur, next   []float64
	curIdx      []graph.NodeID
	nextIdx     []graph.NodeID
	inNext      []bool
	scores      []float64
	touched     []graph.NodeID
	scoreActive []bool
}

// NewScorer returns a Scorer over g.
func NewScorer(g *graph.Graph, opt Options) (*Scorer, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	return &Scorer{
		g:           g,
		opt:         opt.withDefaults(),
		cur:         make([]float64, n),
		next:        make([]float64, n),
		inNext:      make([]bool, n),
		scores:      make([]float64, n),
		scoreActive: make([]bool, n),
	}, nil
}

// Graph returns the scorer's underlying graph.
func (s *Scorer) Graph() *graph.Graph { return s.g }

// Options returns the scorer's configuration with defaults applied.
func (s *Scorer) Options() Options { return s.opt }

// ensure grows the dense scratch buffers when the graph has gained nodes
// since the scorer was created (augmented graphs grow as queries and
// answers attach).
func (s *Scorer) ensure() {
	n := s.g.NumNodes()
	if n <= len(s.scores) {
		return
	}
	grow := func(v []float64) []float64 { return append(v, make([]float64, n-len(v))...) }
	s.cur = grow(s.cur)
	s.next = grow(s.next)
	s.scores = grow(s.scores)
	s.inNext = append(s.inNext, make([]bool, n-len(s.inNext))...)
	s.scoreActive = append(s.scoreActive, make([]bool, n-len(s.scoreActive))...)
}

// Scores computes the truncated EIPD from source to every node. The
// returned slice is owned by the Scorer and is valid until the next call.
func (s *Scorer) Scores(source graph.NodeID) ([]float64, error) {
	if int(source) < 0 || int(source) >= s.g.NumNodes() {
		return nil, fmt.Errorf("pathidx: source %d out of range [0, %d)", source, s.g.NumNodes())
	}
	s.ensure()
	// Reset sparse state from the previous call.
	for _, v := range s.touched {
		s.scores[v] = 0
		s.scoreActive[v] = false
	}
	s.touched = s.touched[:0]
	for _, v := range s.curIdx {
		s.cur[v] = 0
	}
	s.curIdx = s.curIdx[:0]

	s.cur[source] = 1
	s.curIdx = append(s.curIdx, source)
	c := s.opt.C
	damp := c
	for l := 1; l <= s.opt.L; l++ {
		damp *= 1 - c
		s.nextIdx = s.nextIdx[:0]
		for _, from := range s.curIdx {
			p := s.cur[from]
			for _, e := range s.g.Out(from) {
				if e.Weight == 0 {
					continue
				}
				if !s.inNext[e.To] {
					s.inNext[e.To] = true
					s.nextIdx = append(s.nextIdx, e.To)
					s.next[e.To] = 0
				}
				s.next[e.To] += p * e.Weight
			}
		}
		for _, v := range s.nextIdx {
			s.inNext[v] = false
			if !s.scoreActive[v] {
				s.scoreActive[v] = true
				s.touched = append(s.touched, v)
			}
			s.scores[v] += damp * s.next[v]
		}
		// Swap frontiers; zero the old one lazily via curIdx bookkeeping.
		for _, v := range s.curIdx {
			s.cur[v] = 0
		}
		s.cur, s.next = s.next, s.cur
		s.curIdx, s.nextIdx = s.nextIdx, s.curIdx
		if len(s.curIdx) == 0 {
			break
		}
	}
	for _, v := range s.curIdx {
		s.cur[v] = 0
	}
	s.curIdx = s.curIdx[:0]
	return s.scores, nil
}

// Similarity returns the truncated EIPD Φ_L(source, target).
func (s *Scorer) Similarity(source, target graph.NodeID) (float64, error) {
	sc, err := s.Scores(source)
	if err != nil {
		return 0, err
	}
	if int(target) < 0 || int(target) >= len(sc) {
		return 0, fmt.Errorf("pathidx: target %d out of range", target)
	}
	return sc[target], nil
}

// SumTopK returns the sum of the scores of the top-k candidates, used by
// the Fig. 7(a) percentage-difference experiment
// (Sum_L = Σ_{a ∈ A_k} S_L(q, a)).
func (s *Scorer) SumTopK(source graph.NodeID, candidates []graph.NodeID, k int) (float64, error) {
	ranked, err := s.Rank(source, candidates, k)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, r := range ranked {
		sum += r.Score
	}
	return sum, nil
}

// Ranked is the ranked-answer entry every backend returns (ppr.Ranked is
// the same type).
type Ranked = topk.Ranked

// Rank scores every candidate and returns the top-k list (descending
// score, ties by node ID). k ≤ 0 returns all candidates.
func (s *Scorer) Rank(source graph.NodeID, candidates []graph.NodeID, k int) ([]Ranked, error) {
	sc, err := s.Scores(source)
	if err != nil {
		return nil, err
	}
	return topk.FromScores(nil, sc, candidates, k), nil
}
