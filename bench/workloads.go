package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// refSeconds is the run length the vote counts below were chosen for. The
// two ask workloads measure reads for exactly -seconds; the two vote
// workloads do a fixed number of votes, scaled from these by
// -seconds/refSeconds, so that a solver ten times faster makes the run ten
// times shorter instead of changing what is measured.
const refSeconds = 15

// spec is one workload: its topology, the daemon flags it names (every other
// flag keeps the daemon's default, so a later change of default is measured,
// not masked), and its load.
type spec struct {
	name   string
	corpus corpusSize
	routed bool
	// flags are passed to every kgvoted of the topology.
	flags   []string
	durable bool
	batch   int
	// votes is the closed-loop voter's target at refSeconds.
	votes int
	// readRate is the open-loop reader's rate beside the voter, in asks
	// per second; 0 means the workload's reads are the closed-loop phase.
	readRate int
	// rounds is into how many blocks a vote workload cuts its votes, each
	// preceded by a window of its cached reads.
	rounds int
}

var specs = []spec{
	{
		name: "ask_cold", corpus: bigCorpus,
		// The vote flags only matter to the short vote phase that follows
		// the measured reads; the read path does not look at them.
		flags: []string{"-solver", "single", "-batch", "4"}, batch: 4, votes: 600,
	},
	{
		name: "ask_routed", corpus: bigCorpus, routed: true,
		flags: []string{"-solver", "single", "-batch", "4"}, batch: 4, votes: 600,
	},
	{
		name: "vote_stream", corpus: midCorpus, durable: true,
		flags: []string{"-solver", "single", "-batch", "4", "-fsync", "always"}, batch: 4, votes: 1000,
		readRate: 1000, rounds: 5,
	},
	{
		name: "flush_sm", corpus: smallCorpus,
		flags: []string{"-solver", "sm", "-batch", "8", "-workers", strconv.Itoa(runtime.NumCPU())}, batch: 8, votes: 48,
		readRate: 200, rounds: 6, // one flush a block
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// voteTarget scales the workload's vote count to the run length, in whole
// batches and at least one, so that the last vote always flushes.
func (s spec) voteTarget(seconds float64) int {
	batches := int(float64(s.votes)/float64(s.batch)*seconds/refSeconds + 0.5)
	if batches < 1 {
		batches = 1
	}
	return batches * s.batch
}

const (
	coldQuestions    = 8192 // distinct, cycled in order: an LRU of 1024 never hits
	hotQuestions     = 64
	heldoutQuestions = 200
	routedProbes     = 64 // questions compared between router and unsharded daemon
	restartProbes    = 32 // questions compared across SIGKILL and restart
	setupRounds      = 3
	restartRounds    = 5
)

// inputs is everything the generator derives from the seed for one run.
type inputs struct {
	corpus  []byte
	cold    []question
	hot     []question
	picks   []int // Zipf indices into hot, the open-loop reader's schedule
	train   []question
	heldout []question
}

func (s spec) generate(seed int64, seconds float64) *inputs {
	c := genCorpus(s.corpus)
	g := newQuestionGen(c)
	in := &inputs{corpus: c.encode()}
	if s.readRate == 0 {
		in.cold = g.distinct(seed, streamCold, coldQuestions, false)
	}
	in.hot = g.distinct(seed, streamHot, hotQuestions, true)
	in.picks = zipfPicks(seed, 1<<16, hotQuestions)
	// The training questions are a fixed pool. Some yield no vote (the true
	// document is not in the list), so the pool is twice the target. On the
	// vote workloads the seed decides the order in which they arrive, and so
	// which votes share a batch. On the ask workloads, where the seed's work
	// is the cold stream and the votes are a coda, the order is part of the
	// fixture: the number of negative votes per batch, each a solve, moved
	// the coda's flush latency by 7 % from seed to seed.
	in.train = g.many(fixtureSeed, streamTrain, 2*s.voteTarget(seconds)+16, true)
	if s.readRate != 0 {
		rng(seed, streamTrain).Shuffle(len(in.train), func(i, j int) { in.train[i], in.train[j] = in.train[j], in.train[i] })
	}
	in.heldout = g.many(fixtureSeed, streamHeldout, heldoutQuestions, true)
	return in
}

// environment is one booted topology.
type environment struct {
	in      *inputs
	front   *daemon   // what clients talk to: the daemon, or the router
	graphs  []*daemon // the kgvoted processes: front itself, or the shards
	all     []*daemon
	dataDir string
}

// runner carries one run of one workload.
type runner struct {
	spec    spec
	seed    int64
	seconds float64
	traced  bool
	root    string // the checkout
	bin     string // where the daemons are built
	tmp     string // this run's scratch directory
	out     string // where trace files go
	fleet   *fleet
	tr      *tracer
	rec     *record
	setups  int
	cursor  atomic.Int64 // next question of the closed loops
	// refCorpus, when set, replaces the corpus of the unsharded daemon the
	// router is compared with. Only the test that shows a failed check
	// failing the run sets it.
	refCorpus []byte
}

func (r *runner) set(name string, v float64) { r.rec.Metrics[name] = v }

func (r *runner) timing(name string, xs []float64) {
	sorted := sortedCopy(xs)
	r.rec.Metrics[name] = quantile(sorted, 0.5)
	r.rec.Samples[name] = len(xs)
	if q, ok := highestTail(len(xs)); ok {
		r.rec.Tails[name] = tailValue{q, quantile(sorted, q)}
	}
}

// problem records a failed correctness check; the run then reports
// correct=false and the process exits non-zero.
func (r *runner) problem(format string, args ...any) {
	if len(r.rec.Problems) < 20 {
		r.rec.Problems = append(r.rec.Problems, fmt.Sprintf(format, args...))
	}
	r.rec.Correct = false
}

// tally is the operation count of one connection's loop.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) op(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
		return false
	}
	return true
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func (r *runner) count(what string, t tally) {
	r.rec.Attempted += t.attempted
	r.rec.Failed += t.failed
	if t.failed > 0 {
		r.problem("%s: %d of %d operations failed, first: %v", what, t.failed, t.attempted, t.firstErr)
	}
}

// setUp is what setup_s times: build the daemons, generate the inputs, boot
// the topology and wait until every process answers /v1/healthz.
func (r *runner) setUp() (*environment, error) {
	if err := buildDaemons(r.root, r.bin); err != nil {
		return nil, err
	}
	r.setups++
	dir := filepath.Join(r.tmp, fmt.Sprintf("setup%d", r.setups))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	env := &environment{in: r.spec.generate(r.seed, r.seconds)}
	corpusPath := filepath.Join(dir, "corpus.json")
	if err := os.WriteFile(corpusPath, env.in.corpus, 0o644); err != nil {
		return nil, err
	}
	kgvoted := filepath.Join(r.bin, "kgvoted")
	args := append([]string{"-corpus", corpusPath}, r.spec.flags...)
	if r.spec.durable {
		env.dataDir = filepath.Join(dir, "data")
		args = append(args, "-data-dir", env.dataDir)
	}
	if !r.spec.routed {
		d, err := r.fleet.spawn("kgvoted", kgvoted, args...)
		if err != nil {
			return nil, err
		}
		env.front, env.graphs, env.all = d, []*daemon{d}, []*daemon{d}
		return env, d.awaitHealthy(bootTimeout)
	}
	const shards = 2
	mapPath := filepath.Join(dir, "cluster.map")
	addrs := make([]string, shards)
	for i := range addrs {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addrs[i] = "127.0.0.1:" + strconv.Itoa(port)
	}
	for i := range addrs {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		d, err := r.fleet.spawnAt(fmt.Sprintf("shard%d", i), kgvoted, addrs[i], append(append([]string(nil), args...),
			"-shard-map", mapPath, "-shard-init", strconv.Itoa(shards), "-shard-index", strconv.Itoa(i),
			"-peers", strings.Join(peers, ","))...)
		if err != nil {
			return nil, err
		}
		env.graphs = append(env.graphs, d)
		env.all = append(env.all, d)
		if i == 0 {
			// Two daemons creating the map at once collide on its
			// temporary file, so the first writes it alone.
			if err := d.awaitHealthy(bootTimeout); err != nil {
				return nil, err
			}
		}
	}
	for _, d := range env.graphs[1:] {
		if err := d.awaitHealthy(bootTimeout); err != nil {
			return nil, err
		}
	}
	// The router reads the map file the shards wrote, so it starts after them.
	rt, err := r.fleet.spawn("kgrouter", filepath.Join(r.bin, "kgrouter"), "-map", mapPath, "-shards", strings.Join(addrs, ","))
	if err != nil {
		return nil, err
	}
	env.front = rt
	env.all = append(env.all, rt)
	return env, rt.awaitHealthy(bootTimeout)
}

const bootTimeout = 30 * time.Second

// run measures the workload and fills r.rec.
func (r *runner) run() error {
	var env *environment
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		r.fleet.killAll() // the previous round's topology
		start := time.Now()
		var err error
		if env, err = r.setUp(); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	for _, d := range env.all {
		r.rec.Commands = append(r.rec.Commands, d.commandLine())
	}
	a, err := dial(env.front.addr)
	if err != nil {
		return err
	}
	defer a.close()
	b, err := dial(env.front.addr)
	if err != nil {
		return err
	}
	defer b.close()

	obs := newObserver(r, env)
	var reads readResult
	var votes voteResult
	var quality float64
	if r.spec.readRate == 0 {
		reads, votes, quality, err = r.askThenVote(env, a, b, obs)
	} else {
		reads, votes, quality, err = r.voteBesideReads(env, a, b, obs)
	}
	if err != nil {
		return err
	}
	r.count("reads", reads.tally)
	r.count("votes", votes.tally)
	for _, p := range votes.problems {
		r.problem("%s", p)
	}

	if err := r.checkSheds(env); err != nil {
		r.problem("%v", err)
	}
	obs.finish()
	// Only the durable workload has a log to recover from; recovery_s and
	// durable.replayed_records read 0 on the others.
	var recovery []float64
	var replayed int
	if r.spec.durable {
		recovery, replayed = r.restarts(env, votes.acked)
	}

	// Measured in every run but gated in none: these failed the agreement
	// test (README, "Demoted"), so BENCHMARK.json lists them with the
	// per-layer metrics and the driver sees them in traced runs.
	r.set("ask_p99_us", slicedP99(reads.done, sliceLength))
	r.timing("vote_ack_p50_us", votes.acks)
	r.timing("vote_visible_p50_ms", votes.visible)
	r.timing("recovery_s", recovery)
	if r.traced {
		return r.perLayer(env, obs, reads, votes, replayed)
	}
	r.set("setup_s", median(setups))
	r.rec.Samples["setup_s"] = len(setups)
	// The sample count and the tail are those of every read; the figures
	// reported are the quiet quartiles of the windows.
	r.set("ask_qps", quietQuartile(reads.qps, false))
	r.timing("ask_p50_us", latencyMicros(reads.done))
	r.set("ask_p50_us", quietQuartile(reads.p50, true))
	r.set("vote_visible_mean_ms", mean(votes.visible))
	r.rec.Samples["vote_visible_mean_ms"] = len(votes.visible)
	r.set("votes_applied_per_s", float64(votes.acked)/votes.voting.Seconds())
	r.set("heldout_mrr", quality)
	r.rec.Samples["heldout_mrr"] = len(env.in.heldout)
	return nil
}

// heldoutMRR ranks the held-out questions through /v1/askbatch.
func (r *runner) heldoutMRR(env *environment, c *conn) float64 {
	_, done := r.tr.open(0, "askbatch")
	ranked, err := c.askBatch(env.in.heldout)
	done()
	var t tally
	ok := t.op(err)
	r.count("held-out askbatch", t)
	if !ok {
		return 0
	}
	return mrr(env.in.heldout, ranked.Results)
}

// stageStats accumulates what the daemon reports inside ?trace=1 replies.
type stageStats struct {
	total, seed, rank, resolve []float64 // microseconds; rank on misses only
	client                     []float64 // the same requests, timed at the client
	hits, misses               int
}

func (s *stageStats) observe(t *traceBody, client time.Duration) {
	if t == nil {
		return
	}
	s.total = append(s.total, t.TotalMicros)
	s.client = append(s.client, micros(client))
	if t.CacheHit {
		s.hits++
	} else {
		s.misses++
	}
	for _, st := range t.Stages {
		switch st.Name {
		case "seed":
			s.seed = append(s.seed, st.Micros)
		case "rank":
			if !t.CacheHit {
				s.rank = append(s.rank, st.Micros)
			}
		case "resolve":
			s.resolve = append(s.resolve, st.Micros)
		}
	}
}

func (s *stageStats) merge(o stageStats) {
	s.total = append(s.total, o.total...)
	s.seed = append(s.seed, o.seed...)
	s.rank = append(s.rank, o.rank...)
	s.resolve = append(s.resolve, o.resolve...)
	s.client = append(s.client, o.client...)
	s.hits += o.hits
	s.misses += o.misses
}

// readResult is the outcome of a workload's measured reads.
type readResult struct {
	done     latencies
	qps, p50 []float64 // per window of sliceWidth: completions per second, median latency in microseconds
	elapsed  time.Duration
	stages   stageStats
	tally    tally
	// The vote workloads' reads that shared the daemon with the voter.
	beside      latencies
	late        []time.Duration
	besideTally tally
}

// asker sends the asks of one connection, traced or not.
type asker struct {
	c      *conn
	tr     *tracer // nil in an untraced run
	parent int
	label  string
	n      int
	stages stageStats
}

// ask sends q and returns the reply with its client-side start and end.
func (a *asker) ask(q question) (askResponse, time.Time, time.Time, error) {
	if a.tr == nil {
		start := time.Now()
		resp, err := a.c.ask(q, false, "")
		return resp, start, time.Now(), err
	}
	a.n++
	id := a.label + "-" + strconv.Itoa(a.n)
	start := time.Now()
	resp, err := a.c.ask(q, true, id)
	end := time.Now()
	span := a.tr.add(a.parent, "ask", id, start, end)
	if err == nil && resp.Trace != nil {
		a.tr.stages(span, id, start, resp.Trace.Stages)
		a.stages.observe(resp.Trace, end.Sub(start))
	}
	return resp, start, end, err
}

// closedLoop drives one connection per element of conns for d: each sends
// its next question only when the previous reply has arrived. Questions are
// taken in order from one counter that the connections and the run's phases
// share, so that measured reads go on where the warm-up stopped and do not
// begin with the questions it has just put into the rank cache.
func (r *runner) closedLoop(conns []*conn, qs []question, d time.Duration, parent int, label string) readResult {
	next := &r.cursor
	results := make([]readResult, len(conns))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			res := &results[i]
			ak := &asker{c: c, tr: r.tr, parent: parent, label: label + strconv.Itoa(i)}
			for {
				q := qs[int(next.Add(1)-1)%len(qs)]
				_, t0, t1, err := ak.ask(q)
				if res.tally.op(err) {
					res.done.add(t1.Sub(start), t1.Sub(t0))
				}
				if t1.After(deadline) {
					break
				}
			}
			res.stages = ak.stages
		}(i, c)
	}
	wg.Wait()
	out := readResult{elapsed: time.Since(start)}
	for _, res := range results {
		out.done = append(out.done, res.done...)
		out.stages.merge(res.stages)
		out.tally.add(res.tally)
	}
	return out
}

// voteResult is the outcome of the closed-loop voter.
type voteResult struct {
	acks     []float64 // microseconds, votes answered flushed:false
	visible  []float64 // milliseconds, votes answered flushed:true
	reports  []flushReport
	acked    int
	voting   time.Duration // from the first vote sent to the last flush reply, summed over the blocks
	flushCPU float64       // daemon CPU seconds spent while flushing votes were in flight
	stages   stageStats
	tally    tally
	problems []string
}

// voter is the paper's simulated user on one connection: ask a training
// question, vote for the ground-truth document if the list shows it, and go
// on to the next question. cpu reads the daemons' CPU seconds.
type voter struct {
	r     *runner
	c     *conn
	ak    *asker
	train []question
	next  int // index of the next training question
	cpu   func() float64
	res   voteResult
}

func (r *runner) newVoter(c *conn, train []question, cpu func() float64) *voter {
	return &voter{r: r, c: c, train: train, cpu: cpu, ak: &asker{c: c, tr: r.tr, label: "voter"}}
}

// cast votes until n more are acknowledged. n is whole batches, so the last
// of them flushes.
func (v *voter) cast(n, parent int) {
	res := &v.res
	v.ak.parent = parent
	var first, last time.Time
	for target := res.acked + n; res.acked < target; v.next++ {
		if v.next == len(v.train) {
			res.problems = append(res.problems, fmt.Sprintf("training questions ran out after %d of %d votes", res.acked, target))
			break
		}
		q := v.train[v.next]
		shown, _, _, err := v.ak.ask(q)
		if !res.tally.op(err) {
			continue
		}
		docs := make([]int, len(shown.Results))
		for j, x := range shown.Results {
			docs[j] = x.Doc
		}
		if !chooseVote(docs, q.BestDoc) {
			continue
		}
		body, err := json.Marshal(voteRequest{Query: shown.Query, Ranked: docs, BestDoc: q.BestDoc})
		if err != nil {
			panic(err)
		}
		cpu0 := v.cpu()
		t0 := time.Now()
		var reply voteResponse
		err = v.c.callJSON("POST", "/v1/vote", body, &reply)
		t1 := time.Now()
		v.r.tr.add(parent, "vote", "", t0, t1)
		if !res.tally.op(err) {
			continue
		}
		res.acked++
		if first.IsZero() {
			first = t0
		}
		if !reply.Flushed {
			res.acks = append(res.acks, micros(t1.Sub(t0)))
			continue
		}
		res.flushCPU += v.cpu() - cpu0
		res.visible = append(res.visible, millis(t1.Sub(t0)))
		last = t1
		if reply.Report != nil {
			res.reports = append(res.reports, *reply.Report)
		}
		// The flush reply is sent after the new snapshot is published, so
		// the very next ask must already see a later epoch.
		again, _, _, err := v.ak.ask(q)
		// A flush that moved no weight publishes nothing. Behind the router
		// the epoch shown is the highest of the shards', which the voted
		// shard's own step need not exceed.
		mustRise := reply.Report != nil && reply.Report.ChangedEdges > 0 && !v.r.spec.routed
		if res.tally.op(err) && (again.Epoch < shown.Epoch || mustRise && again.Epoch == shown.Epoch) {
			res.problems = append(res.problems, fmt.Sprintf("vote %d flushed but the next ask still reports epoch %d (was %d)", res.acked, again.Epoch, shown.Epoch))
		}
	}
	if last.After(first) {
		res.voting += last.Sub(first)
	}
	res.stages = v.ak.stages
}

// askThenVote is the shape of the two ask workloads: warm up, measure
// closed-loop reads on two connections, then check the answers and run the
// short vote phase that gives the write-side metrics a value here too.
func (r *runner) askThenVote(env *environment, a, b *conn, obs *observer) (readResult, voteResult, float64, error) {
	conns := []*conn{a, b}
	warm := time.Duration(r.seconds / 10 * float64(time.Second))
	measured := time.Duration(r.seconds * float64(time.Second))
	if r.traced {
		measured /= 3
	}
	_, done := r.tr.open(0, "warm-up")
	r.closedLoop(conns, env.in.cold, warm, 0, "warm")
	done()
	obs.overhead(a, env.in.cold[len(env.in.cold)/2:])

	obs.begin()
	phase, done := r.tr.open(0, "reads")
	reads := r.closedLoop(conns, env.in.cold, measured, phase, "read")
	done()
	reads.qps, reads.p50 = reads.done.slices(sliceWidth, 0, max(1, int(measured/sliceWidth)))
	obs.afterReads(len(reads.done))

	// Quality is read before the vote phase: behind the router, weight
	// sets reach the peer shard asynchronously, so rankings taken after
	// votes would depend on timing and not only on the seed.
	quality := r.heldoutMRR(env, a)
	if r.spec.routed {
		if err := r.compareWithUnsharded(env, a, obs); err != nil {
			return reads, voteResult{}, 0, err
		}
	}
	phase, done = r.tr.open(0, "votes")
	v := r.newVoter(a, env.in.train, obs.cpu)
	v.cast(r.voteTarget(), phase)
	done()
	obs.end()
	return reads, v.res, quality, nil
}

func (r *runner) voteTarget() int {
	seconds := r.seconds
	if r.traced {
		seconds /= 3
	}
	return r.spec.voteTarget(seconds)
}

// voteBesideReads is the shape of the two vote workloads: rounds of a window
// of cached reads followed by a block of votes. In a window both connections
// read the hot questions, closed loop, with nothing else on the machine:
// those reads are the workload's ask metrics, a cache hit's cost. In a block
// connection a is the closed-loop voter while b is an open-loop reader on a
// fixed schedule, so that the vote metrics are taken under read load; what a
// read costs there is a per-layer figure, not an end-to-end one, because on
// two cores a read issued during a flush waits for a processor far longer,
// and far less repeatably, than it takes to serve. Windows and blocks
// alternate so that both kinds of metric sample the whole run: the host slows
// down for seconds at a time, and a phase measured in one piece is either
// inside such an episode or outside it.
func (r *runner) voteBesideReads(env *environment, a, b *conn, obs *observer) (readResult, voteResult, float64, error) {
	hot := make([]question, len(env.in.picks))
	for i, p := range env.in.picks {
		hot[i] = env.in.hot[p]
	}
	fill := func() error { // every publish of a block drops the rank cache
		for _, q := range env.in.hot {
			if _, err := b.ask(q, false, ""); err != nil {
				return fmt.Errorf("warming the hot set: %w", err)
			}
		}
		return nil
	}
	if err := fill(); err != nil { // for the overhead probe; each round fills again
		return readResult{}, voteResult{}, 0, err
	}
	obs.overhead(b, env.in.hot)

	quiet := r.seconds / 3
	if r.traced {
		quiet /= 3
	}
	batches := r.voteTarget() / r.spec.batch
	windows := max(1, int(quiet/sliceWidth.Seconds()+0.5))
	rounds := min(r.spec.rounds, batches, windows)
	perRound := windows / rounds

	obs.begin()
	var reads readResult
	v := r.newVoter(a, env.in.train, obs.cpu)
	reader := &asker{c: b, tr: r.tr, label: "reader"}
	period := time.Second / time.Duration(r.spec.readRate)
	for round := 0; round < rounds; round++ {
		if err := fill(); err != nil {
			return reads, v.res, 0, err
		}
		// The first window of a round is warm-up: the daemon has just
		// finished a flush and its garbage.
		phase, done := r.tr.open(0, "hot-reads")
		w := r.closedLoop([]*conn{a, b}, hot, time.Duration(1+perRound)*sliceWidth, phase, "hot")
		done()
		qps, p50 := w.done.slices(sliceWidth, 1, perRound)
		reads.qps, reads.p50 = append(reads.qps, qps...), append(reads.p50, p50...)
		for _, s := range w.done {
			reads.done.add(reads.elapsed+s.at, s.latency)
		}
		reads.elapsed += w.elapsed
		reads.stages.merge(w.stages)
		reads.tally.add(w.tally)

		phase, done = r.tr.open(0, "votes-beside-reads")
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			reader.parent = phase
			beside, late, failed := openLoop(wallClock{}, period, stop.Load, func(i int) error {
				_, _, _, err := reader.ask(hot[i%len(hot)])
				if err != nil && reads.besideTally.firstErr == nil {
					reads.besideTally.firstErr = err
				}
				return err
			})
			reads.beside = append(reads.beside, beside...)
			reads.late = append(reads.late, late...)
			reads.besideTally.attempted += len(beside) + failed
			reads.besideTally.failed += failed
		}()
		blockBatches := batches / rounds
		if round < batches%rounds {
			blockBatches++
		}
		v.cast(blockBatches*r.spec.batch, phase)
		stop.Store(true)
		wg.Wait()
		done()
	}
	obs.end()

	r.count("reads beside votes", reads.besideTally)
	reads.stages.merge(reader.stages)
	return reads, v.res, r.heldoutMRR(env, a), nil
}

// compareWithUnsharded boots a single kgvoted on the same corpus and checks
// that the router returns bit-identical documents and scores for a sample of
// the questions. In a traced run it also asks each shard directly, which is
// where the router's overhead and the fan-out skew come from.
func (r *runner) compareWithUnsharded(env *environment, front *conn, obs *observer) error {
	dir := filepath.Join(r.tmp, "reference")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	corpusPath := filepath.Join(dir, "corpus.json")
	corpusBytes := env.in.corpus
	if r.refCorpus != nil {
		corpusBytes = r.refCorpus
	}
	if err := os.WriteFile(corpusPath, corpusBytes, 0o644); err != nil {
		return err
	}
	ref, err := r.fleet.spawn("reference", filepath.Join(r.bin, "kgvoted"), "-corpus", corpusPath)
	if err != nil {
		return err
	}
	defer ref.kill()
	if err := ref.awaitHealthy(bootTimeout); err != nil {
		return err
	}
	direct, err := dial(ref.addr)
	if err != nil {
		return err
	}
	defer direct.close()
	var t tally
	differ := 0
	for _, q := range env.in.cold[:routedProbes] {
		want, err1 := direct.ask(q, false, "")
		got, err2 := front.ask(q, false, "")
		if !t.op(err1) || !t.op(err2) {
			continue
		}
		if !sameRanking(want.Results, got.Results) {
			differ++
		}
	}
	r.count("router comparison", t)
	if differ > 0 {
		r.problem("router and unsharded daemon disagree on %d of %d sampled questions", differ, routedProbes)
	}
	if r.traced {
		return obs.routerOverhead(env, front)
	}
	return nil
}

// checkSheds fails the run if any daemon shed a vote: these workloads are
// sized so that admission never has to refuse.
func (r *runner) checkSheds(env *environment) error {
	for _, d := range env.graphs {
		c, err := dial(d.addr)
		if err != nil {
			return err
		}
		st, err := c.stats()
		c.close()
		if err != nil {
			return err
		}
		if st.Admission.Shed != 0 {
			return fmt.Errorf("%s shed %d votes", d.name, st.Admission.Shed)
		}
	}
	return nil
}

// restarts measures recovery_s on the durable workload: SIGKILL the daemon,
// start it again with the same command line on the same -data-dir, and poll
// /v1/healthz. Each time it must come back with every acknowledged vote and
// the same rankings.
func (r *runner) restarts(env *environment, acked int) (seconds []float64, replayed int) {
	d := env.front
	c, err := dial(d.addr)
	if err != nil {
		r.problem("restart: %v", err)
		return nil, 0
	}
	defer c.close()
	probes := env.in.hot[:restartProbes]
	var before [][]askResult
	for _, q := range probes {
		resp, err := c.ask(q, false, "")
		if err != nil {
			r.problem("restart probe: %v", err)
		}
		before = append(before, resp.Results)
	}
	var t tally
	for i := 0; i < restartRounds; i++ {
		_, done := r.tr.open(0, "restart")
		start := time.Now()
		d.kill()
		err := d.start()
		if err == nil {
			err = d.awaitHealthy(bootTimeout)
		}
		took := time.Since(start)
		done()
		if !t.op(err) {
			break
		}
		seconds = append(seconds, took.Seconds())
		if err := c.redial(); err != nil {
			r.problem("restart: %v", err)
			break
		}
		st, err := c.stats()
		if err != nil {
			r.problem("restart: %v", err)
			break
		}
		if st.Durability != nil {
			replayed = st.Durability.ReplayedRecords
		}
		if st.Serving.VotesAccepted != acked {
			r.problem("after restart %d the daemon reports %d accepted votes, %d were acknowledged", i+1, st.Serving.VotesAccepted, acked)
		}
		for j, q := range probes {
			resp, err := c.ask(q, false, "")
			if err != nil || !sameRanking(resp.Results, before[j]) {
				r.problem("after restart %d probe question %d ranks differently (err=%v)", i+1, j, err)
				break
			}
		}
	}
	r.count("restarts", t)
	return seconds, replayed
}
