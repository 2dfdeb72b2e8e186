package pathidx

import (
	"fmt"

	"kgvote/internal/graph"
	"kgvote/internal/topk"
)

// Ranked is the ranked-answer entry every ranking returns (ppr.Ranked is
// the same type).
type Ranked = topk.Ranked

// CSRScorer computes truncated extended inverse P-distances for every
// node in one pass, score(v) = Σ_{l=1..L} c·(1−c)^l · (Wˡ)_{source,v},
// using L sparse frontier sweeps over an immutable graph.CSR snapshot
// instead of explicit walk enumeration. It is the one EIPD kernel: the
// serving path, the engine's own ranking and the experiments all score
// through it. Because the snapshot never changes, any number of
// CSRScorers can score concurrently (one scorer per goroutine; each
// scorer holds its own scratch buffers) while the mutable graph keeps
// taking optimization writes elsewhere.
type CSRScorer struct {
	c   *graph.CSR
	opt Options

	cur, next   []float64
	curIdx      []graph.NodeID
	nextIdx     []graph.NodeID
	inNext      []bool
	scores      []float64
	touched     []graph.NodeID
	scoreActive []bool

	// isCand[v] == candGen marks v as a candidate of the ranking in
	// progress; bumping candGen unmarks every node at once.
	isCand  []uint32
	candGen uint32
}

// NewCSRScorer returns a scorer over the snapshot.
func NewCSRScorer(c *graph.CSR, opt Options) (*CSRScorer, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	n := c.NumNodes()
	return &CSRScorer{
		c:           c,
		opt:         opt.withDefaults(),
		cur:         make([]float64, n),
		next:        make([]float64, n),
		inNext:      make([]bool, n),
		scores:      make([]float64, n),
		scoreActive: make([]bool, n),
		isCand:      make([]uint32, n),
	}, nil
}

// CSR returns the snapshot the scorer is bound to.
func (s *CSRScorer) CSR() *graph.CSR { return s.c }

// reset clears the sparse state left by the previous call.
func (s *CSRScorer) reset() {
	for _, v := range s.touched {
		s.scores[v] = 0
		s.scoreActive[v] = false
	}
	s.touched = s.touched[:0]
	for _, v := range s.curIdx {
		s.cur[v] = 0
	}
	s.curIdx = s.curIdx[:0]
}

// markCandidates stamps the candidate set of the ranking about to run.
func (s *CSRScorer) markCandidates(candidates []graph.NodeID) {
	s.candGen++
	if s.candGen == 0 {
		// The generation counter wrapped: stamps from 2³² rankings ago
		// would read as current.
		clear(s.isCand)
		s.candGen = 1
	}
	for _, v := range candidates {
		if int(v) >= 0 && int(v) < len(s.isCand) {
			s.isCand[v] = s.candGen
		}
	}
}

// run performs the sparse sweeps for walk lengths fromLevel..L given the
// frontier already staged in cur/curIdx, and returns the score vector.
//
// With candidatesOnly, the level-L sweep lands mass on marked candidates
// only (see markCandidates). No later level reads that frontier, and a
// candidate still receives the same addends in the same order, so its
// score is bitwise the one the full sweep computes; only the entries of
// nodes the ranking never reads are left incomplete.
func (s *CSRScorer) run(fromLevel int, candidatesOnly bool) []float64 {
	c := s.opt.C
	damp := c
	for l := 1; l < fromLevel; l++ {
		damp *= 1 - c
	}
	for l := fromLevel; l <= s.opt.L; l++ {
		damp *= 1 - c
		if candidatesOnly && l == s.opt.L {
			s.scatterToCandidates()
		} else {
			s.scatter()
		}
		for _, v := range s.nextIdx {
			s.inNext[v] = false
			if !s.scoreActive[v] {
				s.scoreActive[v] = true
				s.touched = append(s.touched, v)
			}
			s.scores[v] += damp * s.next[v]
		}
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
	return s.scores
}

// land adds mass m to node to in the next frontier.
func (s *CSRScorer) land(to graph.NodeID, m float64) {
	if !s.inNext[to] {
		s.inNext[to] = true
		s.nextIdx = append(s.nextIdx, to)
		s.next[to] = 0
	}
	s.next[to] += m
}

// scatter pushes the current frontier's mass one edge forward into
// next/nextIdx.
func (s *CSRScorer) scatter() {
	s.nextIdx = s.nextIdx[:0]
	for _, from := range s.curIdx {
		p := s.cur[from]
		cols, ws := s.c.Row(from)
		for i, to := range cols {
			w := ws[i]
			if w == 0 {
				continue
			}
			s.land(to, p*w)
		}
	}
}

// scatterToCandidates is scatter skipping every target that is not a
// marked candidate. It is a separate loop because the extra test folded
// into scatter cost the unrestricted sweep 25 % (BenchmarkScoresSeeded).
func (s *CSRScorer) scatterToCandidates() {
	s.nextIdx = s.nextIdx[:0]
	for _, from := range s.curIdx {
		p := s.cur[from]
		cols, ws := s.c.Row(from)
		for i, to := range cols {
			w := ws[i]
			if w == 0 || s.isCand[to] != s.candGen {
				continue
			}
			s.land(to, p*w)
		}
	}
}

// Scores computes the truncated EIPD from source to every node. The
// returned slice is owned by the scorer and valid until the next call.
func (s *CSRScorer) Scores(source graph.NodeID) ([]float64, error) {
	return s.sweepFrom(source, false)
}

// sweepFrom is Scores, optionally ending the last level at the marked
// candidates (see run).
func (s *CSRScorer) sweepFrom(source graph.NodeID, candidatesOnly bool) ([]float64, error) {
	if int(source) < 0 || int(source) >= s.c.NumNodes() {
		return nil, fmt.Errorf("pathidx: source %d out of range [0, %d)", source, s.c.NumNodes())
	}
	s.reset()
	s.cur[source] = 1
	s.curIdx = append(s.curIdx, source)
	return s.run(1, candidatesOnly), nil
}

// ScoresSeeded computes the truncated EIPD from a virtual source node
// whose out-edges are (ids[i], weights[i]). This is exactly the score a
// freshly attached query node would get — query nodes have no in-edges,
// so no walk re-enters them — which lets the serving path rank questions
// against an immutable snapshot without ever mutating the shared graph.
// The returned slice is owned by the scorer and valid until the next call.
func (s *CSRScorer) ScoresSeeded(ids []graph.NodeID, weights []float64) ([]float64, error) {
	return s.sweepSeeded(ids, weights, false)
}

// sweepSeeded is ScoresSeeded, optionally ending the last level at the
// marked candidates (see run).
func (s *CSRScorer) sweepSeeded(ids []graph.NodeID, weights []float64, candidatesOnly bool) ([]float64, error) {
	if len(ids) != len(weights) {
		return nil, fmt.Errorf("pathidx: %d seed ids but %d weights", len(ids), len(weights))
	}
	n := s.c.NumNodes()
	var live int
	for i, v := range ids {
		if weights[i] == 0 {
			continue
		}
		if int(v) < 0 || int(v) >= n {
			return nil, fmt.Errorf("pathidx: seed %d out of range [0, %d)", v, n)
		}
		live++
	}
	if live == 0 {
		return nil, fmt.Errorf("pathidx: empty seed")
	}
	s.reset()
	for i, v := range ids {
		if weights[i] == 0 {
			continue
		}
		if s.cur[v] == 0 {
			s.curIdx = append(s.curIdx, v)
		}
		s.cur[v] += weights[i]
	}
	// Level 1: the virtual hop itself lands on the seed nodes, so they
	// collect c(1−c)·w before the remaining sweeps propagate outward.
	c := s.opt.C
	damp := c * (1 - c)
	for _, v := range s.curIdx {
		if !s.scoreActive[v] {
			s.scoreActive[v] = true
			s.touched = append(s.touched, v)
		}
		s.scores[v] += damp * s.cur[v]
	}
	return s.run(2, candidatesOnly), nil
}

// Rank returns the top-k candidates (descending score, ties by node ID);
// k ≤ 0 returns all of them. The result holds exactly the returned
// entries, so it is safe to retain. Ranking is the sweep, ended at the
// candidates on its last level, plus an O(n log k) selection.
func (s *CSRScorer) Rank(source graph.NodeID, candidates []graph.NodeID, k int) ([]Ranked, error) {
	s.markCandidates(candidates)
	sc, err := s.sweepFrom(source, true)
	if err != nil {
		return nil, err
	}
	return topk.FromScores(nil, sc, candidates, k), nil
}

// RankSeeded ranks candidates for a virtual source node (see ScoresSeeded).
func (s *CSRScorer) RankSeeded(ids []graph.NodeID, weights []float64, candidates []graph.NodeID, k int) ([]Ranked, error) {
	return s.RankSeededInto(nil, ids, weights, candidates, k)
}

// RankSeededInto is RankSeeded writing into a caller-owned buffer
// (typically dst[:0] of a retained slice), so the steady-state scoring
// loop performs zero allocations once the buffer holds k entries.
func (s *CSRScorer) RankSeededInto(dst []Ranked, ids []graph.NodeID, weights []float64, candidates []graph.NodeID, k int) ([]Ranked, error) {
	s.markCandidates(candidates)
	sc, err := s.sweepSeeded(ids, weights, true)
	if err != nil {
		return nil, err
	}
	return topk.FromScores(dst, sc, candidates, k), nil
}
