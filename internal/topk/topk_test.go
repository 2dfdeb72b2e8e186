package topk

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"kgvote/internal/graph"
)

// fullSort is the path Select replaced: one Ranked per candidate, a
// stable sort of all of them, then truncation. It is written against
// sort.SliceStable with its own comparator so it shares no code with the
// selector.
func fullSort(scores []float64, candidates []graph.NodeID, k int) []Ranked {
	out := make([]Ranked, 0, len(candidates))
	for _, c := range candidates {
		var s float64
		if int(c) >= 0 && int(c) < len(scores) {
			s = scores[c]
		}
		out = append(out, Ranked{Node: c, Score: s})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Node < out[j].Node
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

func sameBits(a, b []Ranked) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

func TestSelectMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 200; trial++ {
		nodes := 1 + rng.Intn(60)
		// Scores from a handful of levels, a third of them zero: ties are
		// the common case, as they are among unreachable answers.
		scores := make([]float64, nodes)
		for i := range scores {
			if rng.Intn(3) > 0 {
				scores[i] = float64(rng.Intn(5)) / 8
			}
		}
		n := rng.Intn(80)
		candidates := make([]graph.NodeID, n)
		for i := range candidates {
			// Duplicates arise from drawing n of few nodes; −2..nodes+2
			// adds candidates outside the vector on both sides.
			candidates[i] = graph.NodeID(rng.Intn(nodes+5) - 2)
		}
		for _, k := range []int{-1, 0, 1, n - 1, n, n + 3} {
			want := fullSort(scores, candidates, k)
			got := FromScores(nil, scores, candidates, k)
			if !sameBits(got, want) {
				t.Fatalf("trial %d, n=%d k=%d:\n got  %v\n want %v", trial, n, k, got, want)
			}
		}
	}
}

func TestSelectBuffer(t *testing.T) {
	scores := []float64{0.1, 0.5, 0.5, 0, 0.9, 0.2}
	candidates := []graph.NodeID{0, 1, 2, 3, 4, 5}

	// A nil dst gets exactly the entries it returns, whatever n is.
	if got := FromScores(nil, scores, candidates, 2); len(got) != 2 || cap(got) != 2 {
		t.Errorf("nil dst, k=2: len %d cap %d, want 2 and 2", len(got), cap(got))
	}
	if got := FromScores(nil, scores, candidates, 0); len(got) != 6 || cap(got) != 6 {
		t.Errorf("nil dst, k=0: len %d cap %d, want 6 and 6", len(got), cap(got))
	}
	// No candidates: empty but not nil, as the full sort returned.
	if got := FromScores(nil, scores, nil, 3); got == nil || len(got) != 0 {
		t.Errorf("no candidates: got %#v, want empty non-nil", got)
	}

	// A dst of capacity k is selected into in place, over its contents.
	buf := make([]Ranked, 2, 2)
	buf[0], buf[1] = Ranked{Node: 77, Score: 7}, Ranked{Node: 78, Score: 8}
	got := FromScores(buf, scores, candidates, 2)
	if &got[0] != &buf[0] {
		t.Error("dst of capacity k was not reused")
	}
	if want := fullSort(scores, candidates, 2); !sameBits(got, want) {
		t.Errorf("in place: got %v, want %v", got, want)
	}
	// A dst too small for the result is replaced, not grown past k.
	if got := FromScores(buf[:0:1], scores, candidates, 3); cap(got) != 3 {
		t.Errorf("short dst: cap %d, want 3", cap(got))
	}
}

func TestSelectScoreFunc(t *testing.T) {
	m := map[graph.NodeID]float64{3: 0.25, 9: 0.75, 4: 0.25}
	got := Select(nil, []graph.NodeID{4, 9, 1, 3}, 3, func(v graph.NodeID) float64 { return m[v] })
	want := []Ranked{{9, 0.75}, {3, 0.25}, {4, 0.25}}
	if !sameBits(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}
