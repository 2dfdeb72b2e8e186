package core

import (
	"sync"

	"kgvote/internal/graph"
	"kgvote/internal/pathidx"
	"kgvote/internal/vote"
)

// runIndexed runs fn(0) … fn(n−1) on min(workers, n) goroutines pulling
// indices from a shared channel — a bounded worker pool, not one
// goroutine per item. Results must be written into index-addressed slots
// by fn so the caller's ordering stays deterministic regardless of
// scheduling; errors are collected per index and the lowest-index error
// is returned. With workers ≤ 1 (or a single item) everything runs
// inline on the calling goroutine.
func runIndexed(workers, n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// newFlushEnum builds the flush's enumeration cache and prewarms it: one
// entry per distinct query node, enumerated with the union of the ranked
// lists of every vote sharing that query. Every later pipeline stage —
// judgment (best + rival), edge sets (ranked list), encoding (ranked
// list) — asks for a subset of that union, so Enumerate runs exactly
// once per (query, path-options) per flush. Prewarming fans out over
// Options.Workers because the DFS is the most expensive per-vote step.
func (e *Engine) newFlushEnum(votes []vote.Vote) (*pathidx.EnumCache, error) {
	cache, err := pathidx.NewEnumCache(e.g, e.opt.pathOptions())
	if err != nil {
		return nil, err
	}
	queries := make([]graph.NodeID, 0, len(votes))
	targets := make(map[graph.NodeID][]graph.NodeID, len(votes))
	seen := make(map[graph.NodeID]map[graph.NodeID]bool, len(votes))
	for _, v := range votes {
		ts, ok := seen[v.Query]
		if !ok {
			ts = make(map[graph.NodeID]bool, len(v.Ranked))
			seen[v.Query] = ts
			queries = append(queries, v.Query)
		}
		for _, a := range v.Ranked {
			if !ts[a] {
				ts[a] = true
				targets[v.Query] = append(targets[v.Query], a)
			}
		}
	}
	// Enumeration errors (out-of-range nodes, MaxPaths blowups) are not
	// reported here: the stage that first needs the failed query re-runs
	// the enumeration and surfaces the error with its per-vote context
	// ("judging vote %d: …").
	_ = runIndexed(e.opt.Workers, len(queries), func(i int) error {
		_, _ = cache.Paths(queries[i], targets[queries[i]])
		return nil
	})
	return cache, nil
}
