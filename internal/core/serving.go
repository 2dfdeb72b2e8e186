package core

import (
	"fmt"
	"slices"
	"sort"

	"kgvote/internal/graph"
	"kgvote/internal/lru"
	"kgvote/internal/pathidx"
)

// DefaultRankCacheSize is the default capacity of the per-snapshot
// query-rank cache (Options.RankCacheSize = 0).
const DefaultRankCacheSize = 1024

// rankEntry is one cached ranking plus the seed node set it was
// computed from, kept so delta-aware republish can retain entries whose
// seeds provably cannot reach any changed edge (see carryRankCache).
type rankEntry struct {
	seeds  []graph.NodeID
	ranked []pathidx.Ranked
}

// GraphSnapshot is one immutable, epoch-stamped generation of the
// engine's graph compiled for lock-free serving: a CSR of the weights, a
// scorer pool for concurrent ranking, and a bounded query-rank cache.
//
// The engine republishes a fresh snapshot (next epoch) after every
// optimization batch mutates weights. When the flush's changed-edge set
// is known, cached rankings whose seed sets provably cannot reach a
// changed edge are carried into the new snapshot's cache; everything
// else (and every entry, when the delta is unknown) is dropped with the
// old snapshot, so cached rankings can never outlive weights that could
// have influenced them. A snapshot is safe for concurrent use by any
// number of goroutines.
//
// Query nodes attached to the mutable graph after the snapshot was
// compiled are intentionally absent: query nodes have no in-edges, so no
// walk between entities and answers can pass through one, and questions
// are scored against the snapshot as virtual sources (seed vectors)
// instead — see RankSeeded.
type GraphSnapshot struct {
	csr   *graph.CSR
	pool  *pathidx.ScorerPool
	cache *lru.Cache[string, rankEntry]
	opt   Options
}

// Epoch returns the snapshot's generation counter. Epochs start at 1 and
// advance monotonically with every publication.
func (s *GraphSnapshot) Epoch() uint64 { return s.csr.Epoch() }

// CSR returns the compiled graph.
func (s *GraphSnapshot) CSR() *graph.CSR { return s.csr }

// Pool returns the snapshot's scorer pool for callers that manage their
// own scorer checkout (zero-allocation loops).
func (s *GraphSnapshot) Pool() *pathidx.ScorerPool { return s.pool }

// NumNodes returns the snapshot's node count.
func (s *GraphSnapshot) NumNodes() int { return s.csr.NumNodes() }

// NumEdges returns the snapshot's edge count.
func (s *GraphSnapshot) NumEdges() int { return s.csr.NumEdges() }

// RankSeeded ranks candidates for a virtual query node whose out-edges
// are (ids[i], ws[i]), equivalent to attaching the query and ranking from
// it but without mutating the graph. A non-empty cacheKey consults the
// snapshot's rank cache first, so repeated questions skip the sparse
// sweeps entirely; the returned slice may then be shared with other
// readers and must be treated as immutable. k ≤ 0 ranks all candidates.
func (s *GraphSnapshot) RankSeeded(cacheKey string, ids []graph.NodeID, ws []float64, candidates []graph.NodeID, k int) ([]pathidx.Ranked, error) {
	ranked, _, err := s.RankSeededCached(cacheKey, ids, ws, candidates, k)
	return ranked, err
}

// RankSeededCached is RankSeeded plus a cache-hit report, so callers
// (telemetry, /ask?trace=1) can distinguish a cached ranking from a
// fresh scoring pass.
func (s *GraphSnapshot) RankSeededCached(cacheKey string, ids []graph.NodeID, ws []float64, candidates []graph.NodeID, k int) ([]pathidx.Ranked, bool, error) {
	if cacheKey != "" {
		if ent, ok := s.cache.Get(cacheKey); ok {
			return ent.ranked, true, nil
		}
	}
	sc := s.pool.Get()
	ranked, err := sc.RankSeeded(ids, ws, candidates, k)
	s.pool.Put(sc)
	if err != nil {
		return nil, false, err
	}
	s.cacheAdd(cacheKey, ids, ranked)
	return ranked, false, nil
}

// cacheAdd stores a fresh ranking under its key together with a copy of
// the seed ids (the caller may reuse its slice).
func (s *GraphSnapshot) cacheAdd(cacheKey string, ids []graph.NodeID, ranked []pathidx.Ranked) {
	if cacheKey == "" {
		return
	}
	s.cache.Add(cacheKey, rankEntry{
		seeds:  append([]graph.NodeID(nil), ids...),
		ranked: ranked,
	})
}

// CacheStats snapshots the rank cache's counters. Each snapshot carries
// its own cache, so the numbers reset at every epoch swap — by design:
// they describe the serving cache, not the process lifetime.
func (s *GraphSnapshot) CacheStats() lru.Stats { return s.cache.Stats() }

// SimilaritySeeded evaluates S(vq, target) for a virtual query node.
func (s *GraphSnapshot) SimilaritySeeded(ids []graph.NodeID, ws []float64, target graph.NodeID) (float64, error) {
	if int(target) < 0 || int(target) >= s.csr.NumNodes() {
		return 0, fmt.Errorf("core: target %d out of range", target)
	}
	sc := s.pool.Get()
	defer s.pool.Put(sc)
	scores, err := sc.ScoresSeeded(ids, ws)
	if err != nil {
		return 0, err
	}
	return scores[target], nil
}

// ExplainSeeded decomposes the virtual-query similarity S(vq, target)
// into its constituent walks by enumeration over the snapshot, the
// lock-free twin of Engine.Explain. Returned paths start with graph.None
// standing in for the virtual query node. topN ≤ 0 returns all walks.
func (s *GraphSnapshot) ExplainSeeded(ids []graph.NodeID, ws []float64, target graph.NodeID, topN int) (*Explanation, error) {
	n := s.csr.NumNodes()
	if int(target) < 0 || int(target) >= n {
		return nil, fmt.Errorf("core: explain target %d out of range", target)
	}
	if len(ids) != len(ws) {
		return nil, fmt.Errorf("core: %d seed ids but %d weights", len(ids), len(ws))
	}
	c, L, maxPaths := s.opt.C, s.opt.L, s.opt.MaxPaths
	ex := &Explanation{Query: graph.None, Answer: target}
	stack := make([]graph.NodeID, 1, L+1)
	stack[0] = graph.None
	var dfs func(at graph.NodeID, depth int, prob float64) error
	dfs = func(at graph.NodeID, depth int, prob float64) error {
		if at == target {
			ex.TotalPaths++
			if ex.TotalPaths > maxPaths {
				return fmt.Errorf("%w (%d)", pathidx.ErrTooManyPaths, maxPaths)
			}
			damp := c
			for l := 0; l < depth; l++ {
				damp *= 1 - c
			}
			score := prob * damp
			ex.Similarity += score
			ex.Paths = append(ex.Paths, PathContribution{
				Path:  pathidx.Path{Nodes: append([]graph.NodeID(nil), stack...)},
				Score: score,
			})
		}
		if depth == L {
			return nil
		}
		cols, wts := s.csr.Row(at)
		for i, to := range cols {
			if wts[i] == 0 {
				continue
			}
			stack = append(stack, to)
			if err := dfs(to, depth+1, prob*wts[i]); err != nil {
				return err
			}
			stack = stack[:len(stack)-1]
		}
		return nil
	}
	for i, e := range ids {
		if ws[i] == 0 {
			continue
		}
		if int(e) < 0 || int(e) >= n {
			return nil, fmt.Errorf("core: seed %d out of range", e)
		}
		stack = append(stack[:1], e)
		if err := dfs(e, 1, ws[i]); err != nil {
			return nil, err
		}
	}
	if ex.Similarity > 0 {
		for i := range ex.Paths {
			ex.Paths[i].Fraction = ex.Paths[i].Score / ex.Similarity
		}
	}
	sort.SliceStable(ex.Paths, func(i, j int) bool {
		return ex.Paths[i].Score > ex.Paths[j].Score
	})
	if topN > 0 && len(ex.Paths) > topN {
		ex.Paths = ex.Paths[:topN]
	}
	return ex, nil
}

// publish compiles the current graph into a fresh snapshot at the next
// epoch and swaps it into the serving pointer. Only graph-mutating paths
// call it (engine construction, post-solve weight application, restore),
// all of which run under the engine's single-writer discipline.
//
// delta is the flush's final weight set (Report.Applied semantics): the
// post-change weights of every edge the flush could have touched. nil
// means the change set is unknown — the rank cache is dropped wholesale.
// A non-nil delta (even empty) drives delta-aware rank-cache retention.
// Edges whose listed weight equals the previous snapshot's are discarded
// up front, so a normalization-widened Applied list costs nothing extra.
// If the graph gained nodes or edges since the previous snapshot, delta
// cannot be complete and is demoted to nil.
func (e *Engine) publish(delta []WeightChange) error {
	prev := e.serving.Load()
	e.epoch++
	csr := graph.CompileAt(e.g, e.epoch)
	pool, err := pathidx.NewPool(csr, e.opt.pathOptions())
	if err != nil {
		return fmt.Errorf("core: publish snapshot: %w", err)
	}
	snap := &GraphSnapshot{
		csr:   csr,
		pool:  pool,
		cache: lru.New[string, rankEntry](e.opt.rankCacheSize()),
		opt:   e.opt,
	}
	// A complete delta needs an unchanged structure: edges are append-only,
	// so equal node and edge counts mean the same edge set.
	if delta != nil && prev != nil &&
		prev.csr.NumNodes() == csr.NumNodes() && prev.csr.NumEdges() == csr.NumEdges() {
		retained, dropped := carryRankCache(prev.cache, snap.cache, csr, changedSources(prev.csr, delta), e.opt.L)
		e.metrics.observeRankCacheCarry(retained, dropped)
	}
	e.serving.Store(snap)
	return nil
}

// changedSources resolves a flush's weight list against the previous
// snapshot and returns the source node of every edge whose final weight
// (last write wins) differs bitwise from the previous one, ascending and
// without duplicates. The result is never nil: an all-unchanged list
// yields an empty slice, meaning "provably nothing moved".
func changedSources(prev *graph.CSR, delta []WeightChange) []graph.NodeID {
	final := make(map[graph.EdgeKey]float64, len(delta))
	for _, wc := range delta {
		final[graph.EdgeKey{From: wc.From, To: wc.To}] = wc.Weight
	}
	seen := make(map[graph.NodeID]bool)
	sources := []graph.NodeID{}
	for k, w := range final {
		if prev.Weight(k.From, k.To) != w && !seen[k.From] {
			seen[k.From] = true
			sources = append(sources, k.From)
		}
	}
	slices.Sort(sources)
	return sources
}

// carryRankCache moves the previous snapshot's cached rankings into the
// new cache, skipping every entry whose seed set can reach a changed
// edge's source node (see changedSources) within L−2 forward steps.
// Retention rule (DESIGN.md §16): a cached ranking was computed from
// walks virtual-query → seed → ≤L−1 graph edges; a changed edge (u,v)
// can only contribute if some seed reaches u in ≤L−2 steps, so an entry
// with no such seed is bitwise identical under the new weights. The
// reachability test is structural (weights ignored), which is
// conservative under both the old and the new weight assignment.
func carryRankCache(prev, next *lru.Cache[string, rankEntry], csr *graph.CSR, sources []graph.NodeID, l int) (retained, dropped int) {
	if len(sources) == 0 {
		// Nothing moved: every entry survives.
		prev.Range(func(k string, v rankEntry) bool {
			next.Add(k, v)
			retained++
			return true
		})
		return retained, 0
	}
	dirty := dirtySeedSet(csr, sources, l-2)
	prev.Range(func(k string, v rankEntry) bool {
		for _, s := range v.seeds {
			if _, bad := dirty[s]; bad {
				dropped++
				return true
			}
		}
		next.Add(k, v)
		retained++
		return true
	})
	return retained, dropped
}

// dirtySeedSet returns every node that reaches one of the changed-edge
// sources within depth forward steps: a reverse BFS over the CSR's
// structural edges. depth < 0 returns an empty set (L ≤ 1: no graph edge
// participates in any scored walk).
func dirtySeedSet(csr *graph.CSR, sources []graph.NodeID, depth int) map[graph.NodeID]struct{} {
	dirty := make(map[graph.NodeID]struct{})
	if depth < 0 {
		return dirty
	}
	// Reverse adjacency: two passes over the CSR rows.
	n := csr.NumNodes()
	counts := make([]int32, n)
	for v := 0; v < n; v++ {
		cols, _ := csr.Row(graph.NodeID(v))
		for _, u := range cols {
			counts[u]++
		}
	}
	starts := make([]int32, n+1)
	for v := 0; v < n; v++ {
		starts[v+1] = starts[v] + counts[v]
	}
	revCols := make([]graph.NodeID, starts[n])
	fill := make([]int32, n)
	copy(fill, starts[:n])
	for v := 0; v < n; v++ {
		cols, _ := csr.Row(graph.NodeID(v))
		for _, u := range cols {
			revCols[fill[u]] = graph.NodeID(v)
			fill[u]++
		}
	}
	frontier := make([]graph.NodeID, 0, len(sources))
	for _, u := range sources {
		dirty[u] = struct{}{}
		frontier = append(frontier, u)
	}
	for step := 0; step < depth && len(frontier) > 0; step++ {
		var nextFrontier []graph.NodeID
		for _, v := range frontier {
			for _, u := range revCols[starts[v]:starts[v+1]] {
				if _, seen := dirty[u]; !seen {
					dirty[u] = struct{}{}
					nextFrontier = append(nextFrontier, u)
				}
			}
		}
		frontier = nextFrontier
	}
	return dirty
}

// Serving returns the currently published snapshot. The pointer is
// swapped atomically on republication; readers may keep using a loaded
// snapshot for as long as they like (it is immutable) but should reload
// per request to observe fresh epochs.
func (e *Engine) Serving() *GraphSnapshot { return e.serving.Load() }
