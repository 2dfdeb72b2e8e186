// Package topk holds the one ranked-answer type and the one ranking
// order every scoring backend shares (descending score, ties by node ID),
// plus the bounded selector that picks the best k of n candidates in
// O(n log k) without sorting the rest.
//
// It sits below both pathidx and ppr so the two can alias the same Ranked
// type; their tests import each other, so neither package can own it.
package topk

import (
	"slices"

	"kgvote/internal/graph"
)

// Ranked is one entry of a ranked answer list.
type Ranked struct {
	Node  graph.NodeID
	Score float64
}

// Compare orders a before b (negative) when a has the higher score, or
// the same score and the lower node ID. It is a total order on distinct
// nodes, so any sort — stable or not — yields the same list.
func Compare(a, b Ranked) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	case a.Node < b.Node:
		return -1
	case a.Node > b.Node:
		return 1
	}
	return 0
}

// Select ranks candidates by score(candidate) and returns the best k in
// Compare order; k ≤ 0 or k ≥ len(candidates) ranks them all. The result
// is written over dst's storage from index 0; a nil dst, or one whose
// capacity is below the result length, is replaced by a slice of exactly
// that length, so a result allocated here pins only the entries it holds.
// Duplicate candidates are ranked as separate entries.
//
// The first k candidates fill the buffer; if more remain, the buffer
// becomes a heap with the worst kept entry at the root and each further
// candidate either loses to the root (one comparison) or replaces it.
// Only the survivors are sorted.
func Select(dst []Ranked, candidates []graph.NodeID, k int, score func(graph.NodeID) float64) []Ranked {
	n := len(candidates)
	if k <= 0 || k > n {
		k = n
	}
	if dst == nil || cap(dst) < k {
		dst = make([]Ranked, 0, k)
	}
	dst = dst[:0]
	for _, c := range candidates[:k] {
		dst = append(dst, Ranked{Node: c, Score: score(c)})
	}
	if k < n {
		for i := k/2 - 1; i >= 0; i-- {
			siftDown(dst, i)
		}
		for _, c := range candidates[k:] {
			if r := (Ranked{Node: c, Score: score(c)}); Compare(r, dst[0]) < 0 {
				dst[0] = r
				siftDown(dst, 0)
			}
		}
	}
	slices.SortFunc(dst, Compare)
	return dst
}

// FromScores is Select over a dense score vector indexed by node ID;
// candidates outside the vector score 0.
func FromScores(dst []Ranked, scores []float64, candidates []graph.NodeID, k int) []Ranked {
	return Select(dst, candidates, k, func(v graph.NodeID) float64 {
		if int(v) >= 0 && int(v) < len(scores) {
			return scores[v]
		}
		return 0
	})
}

// siftDown restores the worst-at-root heap property below index i.
func siftDown(h []Ranked, i int) {
	for {
		worst := 2*i + 1
		if worst >= len(h) {
			return
		}
		if r := worst + 1; r < len(h) && Compare(h[r], h[worst]) > 0 {
			worst = r
		}
		if Compare(h[worst], h[i]) <= 0 {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}
