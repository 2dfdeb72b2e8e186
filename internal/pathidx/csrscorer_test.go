package pathidx

import (
	"math/rand"
	"sync"
	"testing"

	"kgvote/internal/graph"
)

func TestCSRScorerSnapshotSemantics(t *testing.T) {
	g := randomGraph(20, 3, rand.New(rand.NewSource(5)))
	csr := graph.Compile(g)
	cs, err := NewCSRScorer(csr, Options{L: 3})
	if err != nil {
		t.Fatal(err)
	}
	before, err := cs.Scores(0)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]float64(nil), before...)
	// Mutate the live graph heavily; the snapshot scorer must not notice.
	g.Edges(func(from, to graph.NodeID, w float64) {
		_ = g.SetWeight(from, to, 0.001)
	})
	after, err := cs.Scores(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range snapshot {
		if after[i] != snapshot[i] {
			t.Fatalf("snapshot leaked live mutation at node %d", i)
		}
	}
}

func TestCSRScorerConcurrent(t *testing.T) {
	g := randomGraph(60, 4, rand.New(rand.NewSource(9)))
	csr := graph.Compile(g)
	ref, err := NewCSRScorer(csr, Options{L: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Scores(3)
	if err != nil {
		t.Fatal(err)
	}
	wantCopy := append([]float64(nil), want...)

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cs, err := NewCSRScorer(csr, Options{L: 4})
			if err != nil {
				errs[w] = err
				return
			}
			for rep := 0; rep < 20; rep++ {
				got, err := cs.Scores(3)
				if err != nil {
					errs[w] = err
					return
				}
				for i := range wantCopy {
					if got[i] != wantCopy[i] {
						errs[w] = errMismatch
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = errInternal("concurrent score mismatch")

type errInternal string

func (e errInternal) Error() string { return string(e) }

func TestCSRScorerErrors(t *testing.T) {
	g := randomGraph(5, 2, rand.New(rand.NewSource(2)))
	csr := graph.Compile(g)
	if _, err := NewCSRScorer(csr, Options{L: -1}); err == nil {
		t.Errorf("bad options should fail")
	}
	cs, err := NewCSRScorer(csr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Scores(99); err == nil {
		t.Errorf("out-of-range source should fail")
	}
	ranked, err := cs.Rank(0, []graph.NodeID{99, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 1 {
		t.Errorf("rank truncation failed")
	}
}

func BenchmarkCSRScorer(b *testing.B) {
	g := randomGraph(5000, 6, rand.New(rand.NewSource(1)))
	csr := graph.Compile(g)
	cs, err := NewCSRScorer(csr, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cs.Scores(graph.NodeID(i % 5000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnumerate(b *testing.B) {
	g := randomGraph(2000, 4, rand.New(rand.NewSource(1)))
	targets := []graph.NodeID{10, 20, 30, 40, 50}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Enumerate(g, graph.NodeID(i%2000), targets, Options{L: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
