//go:build !race

package pathidx

import (
	"testing"

	"kgvote/internal/graph"
)

// TestRankSeededIntoZeroAlloc asserts the steady-state scoring loop
// allocates nothing once buffers are warm: with a buffer that could hold
// every candidate, and with one of exactly k entries, which is all the
// selection needs. (The race detector's instrumentation allocates.)
func TestRankSeededIntoZeroAlloc(t *testing.T) {
	g, _, _, seedIDs, seedWs := seedGraph(t)
	// Every node is a candidate: the fixture's two answers are fewer
	// than any k worth selecting.
	candidates := make([]graph.NodeID, g.NumNodes())
	for v := range candidates {
		candidates[v] = graph.NodeID(v)
	}
	pool, err := NewPool(graph.Compile(g), Options{L: 4})
	if err != nil {
		t.Fatal(err)
	}
	sc := pool.Get()
	defer pool.Put(sc)
	const k = 2
	for _, capacity := range []int{len(candidates), k} {
		buf := make([]Ranked, 0, capacity)
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			buf, err = sc.RankSeededInto(buf[:0], seedIDs, seedWs, candidates, k)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("cap(dst) = %d: steady-state scoring allocates %.1f per op, want 0", capacity, allocs)
		}
		if cap(buf) != capacity {
			t.Errorf("cap(dst) = %d: buffer was replaced by one of capacity %d", capacity, cap(buf))
		}
	}
}
