package main

import (
	"fmt"
	"sort"
)

// quartiles returns the first, second and third quartile of xs by the rule
// Python's statistics.quantiles(xs, n=4) uses (the "exclusive" method), so
// that this tool and the driver agree on what a spread is.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	unresolved verdict = "unresolved"
	regressed  verdict = "regressed"
)

// judge compares one metric on one workload between a parent set a and a
// change set b, each a seed-to-value map.
//
//   - regressed: b's median is worse than a's by more than the bound;
//   - unresolved: not regressed, but either side's spread is wider than the
//     bound, so "no worse than the bound" cannot be told from noise;
//   - improved: b's median is better by more than a's own spread, and b wins
//     at least nine tenths of the seeds both sets ran (ties count for neither);
//   - unchanged otherwise.
func judge(def metricDef, a, b map[int64][]float64) (verdict, string) {
	flat := func(m map[int64][]float64) []float64 {
		var out []float64
		for _, v := range m {
			out = append(out, v...)
		}
		return out
	}
	av, bv := flat(a), flat(b)
	a1, a2, a3 := quartiles(av)
	b1, b2, b3 := quartiles(bv)
	detail := fmt.Sprintf("A %.4g [%.4g, %.4g] n=%d   B %.4g [%.4g, %.4g] n=%d", a2, a1, a3, len(av), b2, b1, b3, len(bv))
	if len(av) == 0 || len(bv) == 0 || a2 == 0 {
		return unresolved, detail + "   (a side has no runs)"
	}
	worse := (b2 - a2) / a2 // positive = worse
	if def.Better == "higher" {
		worse = -worse
	}
	detail += fmt.Sprintf("   %+.1f%% (bound %.0f%%)", -worse*100, def.Bound*100)
	switch {
	case worse > def.Bound:
		return regressed, detail
	case spread(av) > def.Bound || spread(bv) > def.Bound:
		return unresolved, detail
	}
	wins, losses := 0, 0
	for seed, xs := range a {
		ys, ok := b[seed]
		if !ok {
			continue
		}
		x, y := median(xs), median(ys)
		if def.Better == "higher" {
			x, y = -x, -y
		}
		if y < x {
			wins++
		} else if y > x {
			losses++
		}
	}
	if -worse > spread(av) && wins+losses > 0 && float64(wins) >= 0.9*float64(wins+losses) {
		return improved, detail
	}
	return unchanged, detail
}

// health is what a side's untraced runs of one workload say about
// correctness. Incorrect runs are left out of the medians, whose numbers
// they would spoil, so they are judged here or nowhere.
type health struct {
	runs, incorrect   int
	attempted, failed int
}

// judgeHealth is regressed when a larger share of b's runs failed a check, or
// a larger share of its operations failed, than of a's: a gain does not count
// when more operations fail than at the parent.
func judgeHealth(a, b health) (verdict, string) {
	detail := fmt.Sprintf("A %d of %d runs incorrect, %d of %d operations failed   B %d of %d, %d of %d",
		a.incorrect, a.runs, a.failed, a.attempted, b.incorrect, b.runs, b.failed, b.attempted)
	share := func(n, of int) float64 { return ratio(float64(n), float64(of)) }
	switch {
	case a.runs == 0 || b.runs == 0:
		return unresolved, detail + "   (a side has no runs)"
	case share(b.incorrect, b.runs) > share(a.incorrect, a.runs), share(b.failed, b.attempted) > share(a.failed, a.attempted):
		return regressed, detail
	}
	return unchanged, detail
}

// compareFiles prints one verdict per workload for correctness and one per
// workload and end-to-end metric, and returns the process exit status: 1 when
// anything regressed.
func compareFiles(bm *benchmarkFile, pathA, pathB string) int {
	a, err := readRunSet(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readRunSet(pathB)
	if err != nil {
		return fail(err)
	}
	// workload → metric → seed → values, untraced runs only: the traced
	// run's numbers include the tracing.
	index := func(s *runSet) (map[string]map[string]map[int64][]float64, map[string]health) {
		out := map[string]map[string]map[int64][]float64{}
		healths := map[string]health{}
		for _, r := range s.Runs {
			if r.Traced {
				continue
			}
			h := healths[r.Workload]
			h.runs++
			h.attempted += r.Attempted
			h.failed += r.Failed
			if !r.Correct {
				h.incorrect++
			}
			healths[r.Workload] = h
			if !r.Correct {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string]map[int64][]float64{}
			}
			for name, v := range r.Metrics {
				if out[r.Workload][name] == nil {
					out[r.Workload][name] = map[int64][]float64{}
				}
				out[r.Workload][name][r.Seed] = append(out[r.Workload][name][r.Seed], v)
			}
		}
		return out, healths
	}
	ia, ha := index(a)
	ib, hb := index(b)
	counts := map[verdict]int{}
	for _, w := range bm.Workloads {
		v, detail := judgeHealth(ha[w.Name], hb[w.Name])
		counts[v]++
		fmt.Printf("%-12s %-22s %-10s %s\n", w.Name, "correct", v, detail)
		for _, def := range bm.EndToEnd {
			v, detail := judge(def, ia[w.Name][def.Name], ib[w.Name][def.Name])
			counts[v]++
			fmt.Printf("%-12s %-22s %-10s %s\n", w.Name, def.Name, v, detail)
		}
	}
	var summary []string
	for v, n := range counts {
		summary = append(summary, fmt.Sprintf("%d %s", n, v))
	}
	sort.Strings(summary)
	fmt.Println(summary)
	if counts[regressed] > 0 {
		return 1
	}
	return 0
}
