package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestHighestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
		{100000, 0.9999, true},
		{5000000, 0.9999, true},
	} {
		q, ok := highestTail(c.n)
		if ok != c.ok || q != c.want {
			t.Errorf("highestTail(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quantile(xs, 0.5); got != 5 {
		t.Errorf("median of 1..10 = %v, want 5", got)
	}
	if got := quantile(xs, 0.99); got != 10 {
		t.Errorf("p99 of 1..10 = %v, want 10", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestSlicedP99TakesTheMedianWindow(t *testing.T) {
	var ss []sample
	// Three full windows of 2000 fast samples each; the second also holds
	// a stall that lifts its p99 a hundredfold.
	for w := 0; w < 3; w++ {
		for i := 0; i < 2000; i++ {
			lat := 100 * time.Microsecond
			if w == 1 && i < 40 {
				lat = 10 * time.Millisecond
			}
			ss = append(ss, sample{at: time.Duration(w)*sliceLength + time.Duration(i)*time.Millisecond, latency: lat})
		}
	}
	ss = append(ss, sample{at: 3 * sliceLength, latency: 100 * time.Microsecond})
	if got := slicedP99(ss, sliceLength); got != 100 {
		t.Errorf("slicedP99 = %v us, want 100: one stalled window must not set the figure", got)
	}
}

func TestSlicesAndTheirQuietQuartile(t *testing.T) {
	// A warm-up window, four measured windows of which one is slowed
	// threefold and serves a third as much, and a reply that arrives after
	// the last window.
	var l latencies
	for w := 0; w < 5; w++ {
		n, lat := 300, 100*time.Microsecond
		if w == 2 {
			n, lat = 100, 300*time.Microsecond
		}
		for i := 0; i < n; i++ {
			l.add(time.Duration(w)*sliceWidth+time.Duration(i)*time.Microsecond, lat)
		}
	}
	l.add(5*sliceWidth+time.Millisecond, time.Second)
	qps, p50 := l.slices(sliceWidth, 1, 4)
	if want := []float64{1200, 400, 1200, 1200}; !reflect.DeepEqual(qps, want) {
		t.Errorf("window rates %v, want %v", qps, want)
	}
	if want := []float64{100, 300, 100, 100}; !reflect.DeepEqual(p50, want) {
		t.Errorf("window medians %v, want %v", p50, want)
	}
	if got := quietQuartile(p50, true); got != 100 {
		t.Errorf("latency quartile %v, want 100: one slowed window in four must not set the figure", got)
	}
	if got := quietQuartile(qps, false); got != 1200 {
		t.Errorf("rate quartile %v, want 1200", got)
	}
	// When every window is slowed, as by a change to the program, it shows.
	if got := quietQuartile([]float64{300, 310, 290, 305}, true); got != 290 {
		t.Errorf("quartile of four slow windows %v, want 290", got)
	}
	// A window in which nothing completed has a rate of 0 and no median.
	qps, p50 = l.slices(sliceWidth, 6, 2)
	if !reflect.DeepEqual(qps, []float64{0, 0}) || len(p50) != 0 {
		t.Errorf("empty windows: rates %v medians %v", qps, p50)
	}
}

// tickClock is a fake clock: Sleep jumps, and every reading costs a
// microsecond so that a loop polling it makes progress.
type tickClock struct{ now time.Time }

func (c *tickClock) Now() time.Time        { c.now = c.now.Add(time.Microsecond); return c.now }
func (c *tickClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopChargesAStallToTheRequestsBehindIt(t *testing.T) {
	clk := &tickClock{now: time.Unix(0, 0)}
	const period = 10 * time.Millisecond
	sent := 0
	done, late, failed := openLoop(clk, period, func() bool { return sent == 12 }, func(i int) error {
		sent++
		service := time.Millisecond
		if i == 3 {
			service = 50 * time.Millisecond // the server stalls once
		}
		clk.Sleep(service)
		return nil
	})
	if failed != 0 || len(done) != 12 {
		t.Fatalf("done=%d failed=%d, want 12 and 0", len(done), failed)
	}
	// Request 3 is due at 30ms and takes 50: the server is free at 80ms.
	// Requests 4..8 were due at 40..80ms and each takes 1ms once sent.
	want := map[int]time.Duration{2: 1, 3: 50, 4: 41, 5: 32, 6: 23, 7: 14, 8: 5, 9: 1}
	for i, ms := range want {
		got := done[i].latency
		if d := got - ms*time.Millisecond; d < 0 || d > 200*time.Microsecond {
			t.Errorf("request %d latency %v, want about %dms", i, got, ms)
		}
	}
	// The generator itself was never late: every delay above is the server's.
	for i, l := range late {
		if l > 200*time.Microsecond {
			t.Errorf("request %d counted %v of generator lateness", i, l)
		}
	}
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	s, _ := specByName("vote_stream")
	a, b, c := s.generate(1, 1), s.generate(1, 1), s.generate(2, 1)
	if !bytes.Equal(a.corpus, b.corpus) {
		t.Error("same seed, different corpus")
	}
	bodies := func(qs []question) string {
		var sb strings.Builder
		for _, q := range qs {
			sb.Write(q.body)
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	for name, get := range map[string]func(*inputs) string{
		"hot":   func(in *inputs) string { return bodies(in.hot) },
		"train": func(in *inputs) string { return bodies(in.train) },
		"picks": func(in *inputs) string { b, _ := json.Marshal(in.picks); return string(b) },
	} {
		if get(a) != get(b) {
			t.Errorf("same seed, different %s stream", name)
		}
		if get(a) == get(c) {
			t.Errorf("different seed, same %s stream", name)
		}
	}
	// The fixture does not move with the seed.
	if !bytes.Equal(a.corpus, c.corpus) || bodies(a.heldout) != bodies(c.heldout) {
		t.Error("the corpus and the held-out questions are a fixture and must not depend on the seed")
	}
	cold, _ := specByName("ask_cold")
	x, y := cold.generate(1, 1), cold.generate(2, 1)
	if bodies(x.cold) == bodies(y.cold) {
		t.Error("different seed, same cold stream")
	}
	if bodies(x.train) != bodies(y.train) {
		t.Error("the order of an ask workload's vote coda is a fixture and must not depend on the seed")
	}
	seen := map[string]bool{}
	for _, q := range x.cold {
		if seen[q.key()] {
			t.Fatalf("cold question %s appears twice: the rank cache could hit", q.key())
		}
		seen[q.key()] = true
	}
	if len(x.cold) != coldQuestions {
		t.Errorf("%d cold questions, want %d", len(x.cold), coldQuestions)
	}
}

func TestChooseVote(t *testing.T) {
	if chooseVote([]int{4, 5, 6}, 7) {
		t.Error("voted for a document that was not shown")
	}
	if !chooseVote([]int{4, 5, 6}, 6) || !chooseVote([]int{4, 5, 6}, 4) {
		t.Error("did not vote for a shown document")
	}
	if chooseVote([]int{4}, 4) {
		t.Error("voted on a list of one")
	}
}

func TestParseMetricsAndDelta(t *testing.T) {
	before, err := parseMetrics([]byte(`# HELP kgvote_server_requests_total Requests.
# TYPE kgvote_server_requests_total counter
kgvote_server_requests_total{route="/ask",code="200"} 10
kgvote_server_requests_total{route="/vote",code="200"} 2
kgvote_core_flush_seconds_sum 1.5
kgvote_core_flush_seconds_count 3
kgvote_core_flush_stage_seconds_sum{stage="solve"} 1.25
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics([]byte(`kgvote_server_requests_total{route="/ask",code="200"} 110
kgvote_server_requests_total{route="/vote",code="200"} 6
kgvote_server_requests_total{route="/vote",code="429"} 1
kgvote_core_flush_seconds_sum 4.5
kgvote_core_flush_seconds_count 5
kgvote_core_flush_stage_seconds_sum{stage="solve"} 4.0
kgvote_label_with_space{msg="a b"} 7 1700000000
`))
	if err != nil {
		t.Fatal(err)
	}
	d := after.since(before)
	if got := d.sumWhere("kgvote_server_requests_total"); got != 105 {
		t.Errorf("requests delta = %v, want 105", got)
	}
	if got := d.sumWhere("kgvote_server_requests_total", `route="/vote"`); got != 5 {
		t.Errorf("vote requests delta = %v, want 5 (a series born in between counts from zero)", got)
	}
	if got := d.histMean("kgvote_core_flush_seconds"); got != 1.5 {
		t.Errorf("flush mean = %v, want 1.5", got)
	}
	if got := d.sumWhere("kgvote_core_flush_stage_seconds_sum", `stage="solve"`); got != 2.75 {
		t.Errorf("solve stage delta = %v, want 2.75", got)
	}
	if got := after[`kgvote_label_with_space{msg="a b"}`]; got != 7 {
		t.Errorf("label value with a space: got %v, want 7", got)
	}
	if _, err := parseMetrics([]byte("kgvote_broken\n")); err == nil {
		t.Error("a sample line without a value parsed")
	}
}

func TestStatsBodyDecodes(t *testing.T) {
	var s statsBody
	err := json.Unmarshal([]byte(`{"entities":1,"serving":{"entities":192,"edges":5306,"documents":200,"votes_accepted":12,"votes_pending":0,"flushes":3,"epoch":4},
"admission":{"queue_capacity":4096,"admitted":12,"shed":0},
"durability":{"wal":{"segments":1,"records":40,"bytes":123456,"syncs":12},"checkpoints":2,"replayed_records":19,"fsync_policy":"always"}}`), &s)
	if err != nil {
		t.Fatal(err)
	}
	if s.Serving.VotesAccepted != 12 || s.Serving.Edges != 5306 || s.Admission.Admitted != 12 ||
		s.Durability == nil || s.Durability.ReplayedRecords != 19 {
		t.Errorf("decoded %+v", s)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	runs := func(vs ...float64) map[int64][]float64 {
		m := map[int64][]float64{}
		for i, v := range vs {
			m[int64(i+1)] = []float64{v}
		}
		return m
	}
	lower := metricDef{Name: "ask_p50_us", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "ask_qps", Better: "higher", Bound: 0.1}
	steady := runs(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, c := range []struct {
		name string
		def  metricDef
		a, b map[int64][]float64
		want verdict
	}{
		{"same", lower, steady, steady, unchanged},
		{"slower beyond the bound", lower, steady, runs(115, 116, 114, 115, 117, 113, 115, 116, 114, 115), regressed},
		{"faster beyond the spread", lower, steady, runs(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), improved},
		{"fewer per second", higher, steady, runs(85, 86, 84, 85, 87, 83, 85, 86, 84, 85), regressed},
		{"more per second", higher, steady, runs(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), improved},
		{"too noisy to tell", lower, steady, runs(80, 120, 90, 110, 70, 130, 100, 95, 105, 100), unresolved},
		{"slightly slower", lower, steady, runs(104, 105, 103, 104, 106, 102, 104, 105, 103, 104), unchanged},
	} {
		if got, detail := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s (%s)", c.name, got, c.want, detail)
		}
	}
}

func TestJudgeHealth(t *testing.T) {
	clean := health{runs: 10, attempted: 1000}
	for _, c := range []struct {
		name string
		a, b health
		want verdict
	}{
		{"both clean", clean, clean, unchanged},
		{"a run of B failed a check", clean, health{runs: 10, incorrect: 1, attempted: 1000}, regressed},
		{"B failed operations", clean, health{runs: 10, incorrect: 1, attempted: 1000, failed: 3}, regressed},
		{"every run of B failed", clean, health{runs: 10, incorrect: 10, attempted: 1000, failed: 1000}, regressed},
		{"no worse than A", health{runs: 10, incorrect: 2, attempted: 1000, failed: 5}, health{runs: 20, incorrect: 4, attempted: 2000, failed: 10}, unchanged},
		{"B did not run", clean, health{}, unresolved},
	} {
		if got, detail := judgeHealth(c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s (%s)", c.name, got, c.want, detail)
		}
	}
}

// A run that failed a check is left out of the medians, so without the
// correctness verdict a change that breaks some seeds would compare clean.
func TestCompareFailsWhenTheChangeBreaksRuns(t *testing.T) {
	bm := &benchmarkFile{
		Workloads: []workloadDef{{Name: "ask_cold"}},
		EndToEnd:  []metricDef{{Name: "ask_p50_us", Unit: "us", Better: "lower", Bound: 0.1}},
	}
	write := func(name string, broken int) string {
		path := filepath.Join(t.TempDir(), name)
		for seed := 1; seed <= 10; seed++ {
			rec := record{
				Workload: "ask_cold", Seed: int64(seed), Commands: []string{"kgvoted"}, Correct: seed > broken,
				Attempted: 100, Metrics: map[string]float64{"ask_p50_us": 100 + float64(seed)},
				Provenance: provenance{Commit: "abc", GoVersion: "go1.24", GOMAXPROCS: 2, NumCPU: 2, Kernel: "6.1"},
			}
			if err := appendRecord(path, &rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, broken, dead := write("a.json", 0), write("same.json", 0), write("broken.json", 2), write("dead.json", 10)
	if status := compareFiles(bm, a, same); status != 0 {
		t.Errorf("identical sets compared with status %d", status)
	}
	if status := compareFiles(bm, a, broken); status != 1 {
		t.Errorf("two incorrect runs in B compared with status %d, want 1", status)
	}
	if status := compareFiles(bm, a, dead); status != 1 {
		t.Errorf("a B with no correct run compared with status %d, want 1", status)
	}
}

// A server that drops a connection mid-request must cost one failed
// operation, not poison every later reply on that connection.
func TestConnRedialsAfterATransportError(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan int, 1)
	go func() {
		n := 0
		defer func() { accepted <- n }()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			n++
			br := bufio.NewReader(c)
			if _, err := http.ReadRequest(br); err == nil {
				if n == 1 { // cut with half a reply on the wire
					io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Le")
				} else {
					io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
					http.ReadRequest(br) // hold the socket until the client closes it
				}
			}
			c.Close()
		}
	}()
	c, err := dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.do("GET", "/v1/healthz", "", nil); err == nil {
		t.Fatal("a reply cut in half was accepted")
	}
	status, body, err := c.do("GET", "/v1/healthz", "", nil)
	if err != nil || status != 200 || string(body) != "ok" {
		t.Fatalf("request after the failure: status %d body %q err %v; want a fresh connection to answer 200 ok", status, body, err)
	}
	c.close()
	l.Close()
	if n := <-accepted; n != 2 {
		t.Errorf("server saw %d connections, want 2", n)
	}
}

func TestRecordWithoutProvenanceIsRefused(t *testing.T) {
	full := record{
		Workload: "ask_cold", Seed: 1, Commands: []string{"kgvoted -addr 127.0.0.1:1"},
		Provenance: provenance{Commit: "abc", GoVersion: "go1.24", GOMAXPROCS: 2, NumCPU: 2, Kernel: "6.1"},
	}
	path := filepath.Join(t.TempDir(), "runs.json")
	if err := appendRecord(path, &full); err != nil {
		t.Fatalf("complete record refused: %v", err)
	}
	for name, strip := range map[string]func(*record){
		"commit":     func(r *record) { r.Provenance.Commit = "" },
		"go_version": func(r *record) { r.Provenance.GoVersion = "" },
		"gomaxprocs": func(r *record) { r.Provenance.GOMAXPROCS = 0 },
		"num_cpu":    func(r *record) { r.Provenance.NumCPU = 0 },
		"kernel":     func(r *record) { r.Provenance.Kernel = "" },
		"commands":   func(r *record) { r.Commands = nil },
	} {
		r := full
		strip(&r)
		if err := appendRecord(path, &r); err == nil {
			t.Errorf("record without %s was written", name)
		}
	}
	set, err := readRunSet(path)
	if err != nil || len(set.Runs) != 1 {
		t.Errorf("run set holds %d records (err %v), want the one complete record", len(set.Runs), err)
	}
}

// emittedMetrics lists the metric names the sources set, read from the
// sources themselves: every name is a string literal handed to set, timing
// or the replay's out map.
func emittedMetrics(t *testing.T) []string {
	t.Helper()
	literal := regexp.MustCompile(`(?:\bset|r\.set|r\.timing)\("([^"]+)"|out\["([^"]+)"\]`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var names []string
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range literal.FindAllStringSubmatch(string(src), -1) {
			name := m[1] + m[2]
			if seen[name] {
				continue
			}
			seen[name] = true
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

func TestBenchmarkFileAndCodeAgree(t *testing.T) {
	bm, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	names := func(ds []metricDef) []string {
		var out []string
		for _, d := range ds {
			out = append(out, d.Name)
		}
		sort.Strings(out)
		return out
	}
	// Which list a metric is in decides whether the driver gates it; the
	// code only has to set every declared metric and no other.
	declared := append(names(bm.EndToEnd), names(bm.PerLayer)...)
	sort.Strings(declared)
	if got := emittedMetrics(t); !reflect.DeepEqual(declared, got) {
		t.Errorf("declared in BENCHMARK.json %v\nset by the code           %v", declared, got)
	}
	var inFile, inCode []string
	for _, w := range bm.Workloads {
		inFile = append(inFile, w.Name)
	}
	for _, s := range specs {
		inCode = append(inCode, s.name)
	}
	if !reflect.DeepEqual(inFile, inCode) {
		t.Errorf("workloads in BENCHMARK.json %v, in the code %v", inFile, inCode)
	}

	// The limits the driver checks before a single run.
	all := append(append([]metricDef(nil), bm.EndToEnd...), bm.PerLayer...)
	used := map[string]bool{}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, d := range all {
		if !nameRE.MatchString(d.Name) || used[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		used[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s has unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s has better=%q", d.Name, d.Better)
		}
	}
	for _, w := range bm.Workloads {
		if !nameRE.MatchString(w.Name) || used[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name, duplicate, or a why that is not one line of at most 200 characters", w.Name)
		}
		used[w.Name] = true
	}
	setup := false
	for _, d := range bm.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %v, outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, d := range bm.PerLayer {
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", d.Name)
		}
	}
	if n := len(bm.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if bm.RunSeconds < 1 || bm.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bm.RunSeconds)
	}
	if !reflect.DeepEqual(bm.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", bm.Paths)
	}
}

func TestContractLineRejectsDrift(t *testing.T) {
	defs := []metricDef{{Name: "setup_s", Unit: "s"}, {Name: "ask_qps", Unit: "1/s"}}
	rec := &record{Correct: true, Attempted: 3, Metrics: map[string]float64{"setup_s": 0.25, "ask_qps": 1234.5}}
	line, err := contractLine(rec, defs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 3 || got.Metrics["ask_qps"].Value != 1234.5 || got.Metrics["setup_s"].Unit != "s" {
		t.Errorf("line %s", line)
	}
	rec.Metrics["stray"] = 1
	if _, err := contractLine(rec, defs, nil); err == nil {
		t.Error("a metric BENCHMARK.json does not declare was printed")
	}
	if line, err := contractLine(rec, defs, []metricDef{{Name: "stray"}}); err != nil || strings.Contains(line, "stray") {
		t.Errorf("a metric of the other kind of run must be tolerated and left out: %v %s", err, line)
	}
	delete(rec.Metrics, "stray")
	delete(rec.Metrics, "ask_qps")
	if _, err := contractLine(rec, defs, nil); err == nil {
		t.Error("a declared metric was not measured and the line was printed anyway")
	}
}

func TestVoteTargetIsWholeBatches(t *testing.T) {
	for _, s := range specs {
		for _, seconds := range []float64{1, 5, 15, 30} {
			n := s.voteTarget(seconds)
			if n%s.batch != 0 || n < s.batch {
				t.Errorf("%s at %vs: %d votes with batch %d", s.name, seconds, n, s.batch)
			}
		}
		if got := s.voteTarget(refSeconds); got != s.votes {
			t.Errorf("%s: %d votes at the reference length, want %d", s.name, got, s.votes)
		}
	}
}

func TestMRR(t *testing.T) {
	qs := []question{{BestDoc: 1}, {BestDoc: 2}, {BestDoc: 3}}
	ranked := [][]askResult{{{Doc: 1}}, {{Doc: 9}, {Doc: 2}}, {{Doc: 8}}}
	if got := mrr(qs, ranked); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("mrr = %v, want (1 + 1/2 + 0)/3", got)
	}
}

func TestCheckRanking(t *testing.T) {
	if err := checkRanking([]askResult{{1, 0.5}, {2, 0.5}, {3, 0.1}}); err != nil {
		t.Errorf("a non-increasing ranking was rejected: %v", err)
	}
	if checkRanking([]askResult{{1, 0.1}, {2, 0.5}}) == nil {
		t.Error("a rising score passed")
	}
	if checkRanking(make([]askResult, maxResults+1)) == nil {
		t.Error("more than k results passed")
	}
	if checkRanking([]askResult{{1, math.NaN()}}) == nil {
		t.Error("a NaN score passed")
	}
}

// TestSmoke boots every topology for a one-second run, untraced and traced,
// and expects every correctness check to pass and every declared metric to
// be reported. It builds and starts real daemons, so -short skips it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real daemons")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, traced := range []bool{false, true} {
		if status := run(options{workload: "all", seed: 1, smoke: true, traced: traced, runs: 1, out: out}); status != 0 {
			t.Fatalf("smoke run (traced=%v) exited %d", traced, status)
		}
	}
	for _, s := range specs {
		if _, err := os.Stat(filepath.Join(out, "trace-"+s.name+".json")); err != nil {
			t.Errorf("traced run left no trace file: %v", err)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(filepath.Dir(wd), ".bench_build", "run-*")); len(left) > 0 {
		t.Errorf("run directories left behind: %v", left)
	}
}

// TestFailedCheckFailsTheRun points the router comparison at an unsharded
// daemon serving another corpus: the run must print correct:false and exit 1.
func TestFailedCheckFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real daemons")
	}
	stdout := os.Stdout
	rd, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = wr
	printed := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(rd)
		printed <- b
	}()
	status := run(options{
		workload: "ask_routed", seed: 1, smoke: true, runs: 1, out: t.TempDir(),
		refCorpus: genCorpus(midCorpus).encode(),
	})
	os.Stdout = stdout
	wr.Close()
	lines := strings.Split(strings.TrimSpace(string(<-printed)), "\n")
	if status != 1 {
		t.Errorf("exit status %d, want 1", status)
	}
	var last struct {
		Correct *bool
		Failed  int
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Correct == nil || *last.Correct {
		t.Errorf("last line %q (err %v), want correct:false", lines[len(lines)-1], err)
	}
}
