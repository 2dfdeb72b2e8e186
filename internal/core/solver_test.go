package core

import (
	"math"
	"testing"

	"kgvote/internal/graph"
	"kgvote/internal/sgp"
)

// mergeEngine builds a minimal engine for exercising mergeDeltas
// directly; the graph carries one known edge weight.
func mergeEngine(t *testing.T, merge MergeRule) (*Engine, graph.EdgeKey) {
	t.Helper()
	g, _, _ := twoAnswer(t)
	e, err := New(g, Options{Merge: merge})
	if err != nil {
		t.Fatal(err)
	}
	return e, graph.EdgeKey{From: 0, To: 1} // q→a, weight 0.6
}

func mergeOne(e *Engine, results []clusterResult, k graph.EdgeKey) (float64, bool) {
	changes := e.mergeDeltas(results)
	w, ok := changes[k]
	return w, ok
}

func TestMergeDeltasSingleClusterUsesRecordedDelta(t *testing.T) {
	for _, d := range []float64{-0.2, 0.15} {
		e, k := mergeEngine(t, VoteWeighted)
		w, ok := mergeOne(e, []clusterResult{
			{votes: 3, deltas: map[graph.EdgeKey]float64{k: d}},
		}, k)
		if !ok {
			t.Fatalf("delta %v: edge missing from merge", d)
		}
		if want := 0.6 + d; w != want {
			t.Errorf("delta %v: weight = %v, want %v", d, w, want)
		}
	}
}

func TestMergeDeltasVoteWeightedSign(t *testing.T) {
	// Non-negative weighted sum picks the max delta…
	e, k := mergeEngine(t, VoteWeighted)
	w, _ := mergeOne(e, []clusterResult{
		{votes: 3, deltas: map[graph.EdgeKey]float64{k: 0.1}},
		{votes: 1, deltas: map[graph.EdgeKey]float64{k: -0.05}},
	}, k)
	if want := 0.6 + 0.1; w != want {
		t.Errorf("non-negative sum: weight = %v, want %v", w, want)
	}
	// …a negative weighted sum picks the min.
	e, k = mergeEngine(t, VoteWeighted)
	w, _ = mergeOne(e, []clusterResult{
		{votes: 3, deltas: map[graph.EdgeKey]float64{k: -0.1}},
		{votes: 1, deltas: map[graph.EdgeKey]float64{k: 0.05}},
	}, k)
	if want := 0.6 - 0.1; w != want {
		t.Errorf("negative sum: weight = %v, want %v", w, want)
	}
}

func TestMergeDeltasAverage(t *testing.T) {
	e, k := mergeEngine(t, AverageDeltas)
	w, _ := mergeOne(e, []clusterResult{
		{votes: 3, deltas: map[graph.EdgeKey]float64{k: 0.1}},
		{votes: 1, deltas: map[graph.EdgeKey]float64{k: -0.05}},
	}, k)
	if want := 0.6 + (3*0.1-1*0.05)/4; math.Abs(w-want) > 1e-15 {
		t.Errorf("average: weight = %v, want %v", w, want)
	}
}

func TestMergeDeltasClampsToBounds(t *testing.T) {
	// A merged point outside the solver's box must be pinned back inside,
	// under both rules and on both sides.
	e, k := mergeEngine(t, VoteWeighted)
	w, _ := mergeOne(e, []clusterResult{
		{votes: 1, deltas: map[graph.EdgeKey]float64{k: 2.0}},
	}, k)
	if w != sgp.DefaultUpperBound {
		t.Errorf("upper clamp: weight = %v, want %v", w, sgp.DefaultUpperBound)
	}
	e, k = mergeEngine(t, AverageDeltas)
	w, _ = mergeOne(e, []clusterResult{
		{votes: 1, deltas: map[graph.EdgeKey]float64{k: -2.0}},
		{votes: 1, deltas: map[graph.EdgeKey]float64{k: -0.59}},
	}, k)
	if w != sgp.DefaultLowerBound {
		t.Errorf("lower clamp: weight = %v, want %v", w, sgp.DefaultLowerBound)
	}
}

func TestMergeDeltasUntouchedEdgesAbsent(t *testing.T) {
	e, k := mergeEngine(t, VoteWeighted)
	changes := e.mergeDeltas([]clusterResult{
		{votes: 1, deltas: map[graph.EdgeKey]float64{k: 0.1}},
	})
	if len(changes) != 1 {
		t.Fatalf("changes = %v, want only %v", changes, k)
	}
}
