package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// sample is one completed operation: when it finished, relative to the start
// of its phase, and how long it took.
type sample struct {
	at      time.Duration
	latency time.Duration
}

// latencies collects the samples of one connection; each connection owns its
// own and they are merged after the phase, so recording takes no lock.
type latencies []sample

func (l *latencies) add(at, latency time.Duration) {
	*l = append(*l, sample{at, latency})
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of sorted by the nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailLadder is the set of tail percentiles a timing may be reported at.
var tailLadder = []float64{0.9, 0.99, 0.999, 0.9999}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: fewer, and the figure is one or two slow requests, not a tail.
const minBeyond = 10

// highestTail picks the highest percentile of the ladder with at least
// minBeyond of the n samples beyond it; ok is false when even p90 has not.
func highestTail(n int) (q float64, ok bool) {
	for _, p := range tailLadder {
		// The small term keeps 1000*(1-0.99) from rounding down to 9.
		if int(float64(n)*(1-p)+1e-9) >= minBeyond {
			q, ok = p, true
		}
	}
	return q, ok
}

// sliceWidth is the window of a closed loop over which its rate and its
// median latency are taken, before the run reports a quartile of its windows.
const sliceWidth = 250 * time.Millisecond

// slices cuts the samples of one closed loop into the n windows of width
// that follow its first skip windows, and returns each window's completions
// per second and, where it completed anything, its median latency in
// microseconds. What completed after those windows, the replies the loop was
// still owed at its deadline, belongs to none.
func (l latencies) slices(width time.Duration, skip, n int) (qps, p50 []float64) {
	buckets := make([][]float64, n)
	for _, s := range l {
		if i := int(s.at/width) - skip; i >= 0 && i < n {
			buckets[i] = append(buckets[i], micros(s.latency))
		}
	}
	for _, b := range buckets {
		qps = append(qps, float64(len(b))/width.Seconds())
		if len(b) > 0 {
			p50 = append(p50, median(b))
		}
	}
	return qps, p50
}

// quietQuartile is the quartile of a run's windows on the good side of their
// median: the first for a latency, the third for a rate. The machine is a
// few cores of a shared host, whose other tenants slow a run for seconds at
// a time and never speed it up. Across its windows a run's median moves with
// every such episode that covers a tenth of it; this quartile moves only
// when three quarters of the windows were slowed, and a change to the
// program moves all of them.
func quietQuartile(windows []float64, lowerIsBetter bool) float64 {
	if lowerIsBetter {
		return quantile(sortedCopy(windows), 0.25)
	}
	return quantile(sortedCopy(windows), 0.75)
}

// sliceLength is the window over which ask_p99_us is taken before the
// windows' median is reported: one stall then spoils one window, not the run.
const sliceLength = 3 * time.Second

// slicedP99 computes p99 in each full window of the phase that holds enough
// samples for a p99, and returns the median of those. When no window
// qualifies, as in a smoke run, it falls back to the p99 of all samples.
func slicedP99(ss []sample, window time.Duration) float64 {
	buckets := map[int][]float64{}
	var all []float64
	var last time.Duration
	for _, s := range ss {
		buckets[int(s.at/window)] = append(buckets[int(s.at/window)], micros(s.latency))
		all = append(all, micros(s.latency))
		if s.at > last {
			last = s.at
		}
	}
	var p99s []float64
	for i, b := range buckets {
		full := time.Duration(i+1)*window <= last
		if full && int(float64(len(b))*0.01+1e-9) >= minBeyond {
			p99s = append(p99s, quantile(sortedCopy(b), 0.99))
		}
	}
	if len(p99s) == 0 {
		return quantile(sortedCopy(all), 0.99)
	}
	return median(p99s)
}

func latencyMicros(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = micros(s.latency)
	}
	return out
}

// clock is the time source of the open loop; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { nanosleep(d) }

// nanosleep blocks the calling thread in the kernel's high-resolution sleep.
// time.Sleep goes through the Go runtime's timers, which on the reference
// box fire on a one-millisecond grid: useless for a schedule whose period is
// one millisecond, and it would add a millisecond to every poll of a
// recovering daemon.
func nanosleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is only a shorter one; callers re-read the clock
}

// spinWindow is how long before a due time the open loop stops sleeping and
// polls the clock. The kernel wakes a sleeper 60 to 150 microseconds late;
// stopping 100 early cancels most of that, which would otherwise be charged
// to every request's latency, at the price of ~30 microseconds of polling
// per request. Polling longer would take the processor from the daemon.
const spinWindow = 100 * time.Microsecond

// openLoop sends request i at start + i*period on one connection, whatever
// happened to the requests before it, until stop reports true. Latency runs
// from the due time, so a stall in the server is charged to the requests
// that queued behind it, as it would be to independent users. late is, per
// request, how far past max(due time, previous reply) it was sent: the
// generator's own lateness.
func openLoop(clk clock, period time.Duration, stop func() bool, send func(i int) error) (done latencies, late []time.Duration, failed int) {
	start := clk.Now()
	free := start
	for i := 0; !stop(); i++ {
		due := start.Add(time.Duration(i) * period)
		for {
			wait := due.Sub(clk.Now())
			if wait <= 0 {
				break
			}
			if wait > spinWindow {
				clk.Sleep(wait - spinWindow)
			}
		}
		sent := clk.Now()
		ready := due
		if free.After(ready) {
			ready = free
		}
		late = append(late, sent.Sub(ready))
		err := send(i)
		free = clk.Now()
		if err != nil {
			failed++
			continue
		}
		done.add(free.Sub(start), free.Sub(due))
	}
	return done, late, failed
}
