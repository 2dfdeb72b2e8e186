package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// observer takes the readings that turn a traced run into per-layer numbers:
// /metrics and /v1/stats before and after the measured part, process CPU
// around it, and the two small side measurements (trace overhead, router
// overhead). In an untraced run every method returns at once, so the
// end-to-end numbers are taken with none of this running.
type observer struct {
	r   *runner
	env *environment

	before, after           scrape // summed over the kgvoted processes
	reads                   scrape // what moved during the closed-loop reads alone
	statsBefore, statsAfter []statsBody
	cpuBefore               float64 // every daemon, seconds
	ownBefore, ownAfter     float64 // the load generator itself
	wallBefore, wallAfter   time.Time

	cpuPerAskUs            float64 // daemon CPU per read, where reads have a phase of their own
	untracedP50, tracedP50 float64 // microseconds, from overhead()
	routerOverheadUs       float64
	fanoutSkewUs           float64
	shardStages            stageStats
	rssPeakMB              float64
	nodesEnd, edgesEnd     float64
}

func newObserver(r *runner, env *environment) *observer {
	return &observer{r: r, env: env}
}

// cpu is the CPU time of every daemon of the topology so far.
func (o *observer) cpu() float64 {
	if !o.r.traced {
		return 0
	}
	var sum float64
	for _, d := range o.env.all {
		sum += d.cpuSeconds()
	}
	return sum
}

func (o *observer) scrapeAll() (scrape, []statsBody) {
	sum := scrape{}
	var stats []statsBody
	for _, d := range o.env.graphs {
		c, err := dial(d.addr)
		if err != nil {
			o.r.problem("scrape %s: %v", d.name, err)
			continue
		}
		m, err := c.metrics()
		if err != nil {
			o.r.problem("scrape %s: %v", d.name, err)
		}
		for k, v := range m {
			sum[k] += v
		}
		st, err := c.stats()
		if err != nil {
			o.r.problem("stats %s: %v", d.name, err)
		}
		stats = append(stats, st)
		c.close()
	}
	return sum, stats
}

func (o *observer) begin() {
	if !o.r.traced {
		return
	}
	o.before, o.statsBefore = o.scrapeAll()
	o.cpuBefore, o.ownBefore, o.wallBefore = o.cpu(), procCPUSeconds(os.Getpid()), time.Now()
}

// afterReads closes the read phase of an ask workload, whose cache and CPU
// figures must not be diluted by the checks and votes that follow it.
func (o *observer) afterReads(asks int) {
	if !o.r.traced {
		return
	}
	o.cpuPerAskUs = ratio((o.cpu()-o.cpuBefore)*1e6, float64(asks))
	now, _ := o.scrapeAll()
	o.reads = now.since(o.before)
}

func (o *observer) end() {
	if !o.r.traced {
		return
	}
	o.ownAfter, o.wallAfter = procCPUSeconds(os.Getpid()), time.Now()
	o.after, o.statsAfter = o.scrapeAll()
}

// finish takes the readings that must precede the restarts: a restarted
// process has forgotten its peak memory and its graph's growth.
func (o *observer) finish() {
	if !o.r.traced {
		return
	}
	for _, d := range o.env.all {
		o.rssPeakMB = math.Max(o.rssPeakMB, d.rssPeakMB())
	}
	_, stats := o.scrapeAll()
	if len(stats) > 0 {
		o.nodesEnd, o.edgesEnd = float64(stats[0].Serving.Entities), float64(stats[0].Serving.Edges)
	}
}

// overhead measures what ?trace=1 costs a request: alternating blocks of
// plain and traced asks on one connection, medians compared. Alternation
// cancels drift between the two.
func (o *observer) overhead(c *conn, qs []question) {
	if !o.r.traced {
		return
	}
	const blocks, perBlock = 6, 200
	var plain, traced []float64
	n := 0
	for b := 0; b < blocks; b++ {
		for i := 0; i < perBlock; i++ {
			q := qs[n%len(qs)]
			n++
			start := time.Now()
			_, err := c.ask(q, b%2 == 1, "overhead")
			took := micros(time.Since(start))
			if err != nil {
				o.r.problem("trace-overhead ask: %v", err)
				return
			}
			if b%2 == 1 {
				traced = append(traced, took)
			} else {
				plain = append(plain, took)
			}
		}
	}
	o.untracedP50, o.tracedP50 = median(plain), median(traced)
}

// routerOverhead asks a sample of questions through the router and then,
// once the shards' rank caches have forgotten them, of each shard directly.
// The router's overhead is its latency minus the slower shard's for the same
// question; the skew is the gap between the two shards.
func (o *observer) routerOverhead(env *environment, front *conn) error {
	const sample = 256
	qs := env.in.cold[len(env.in.cold)/4:]
	routed := make([]float64, sample)
	for i := 0; i < sample; i++ {
		start := time.Now()
		if _, err := front.ask(qs[i], false, ""); err != nil {
			return fmt.Errorf("router sample: %w", err)
		}
		routed[i] = micros(time.Since(start))
	}
	// More distinct questions than a rank cache holds evict the sample.
	for _, q := range qs[sample : sample+1200] {
		if _, err := front.ask(q, false, ""); err != nil {
			return fmt.Errorf("router sample: %w", err)
		}
	}
	shardConns := make([]*conn, len(env.graphs))
	for i, d := range env.graphs {
		c, err := dial(d.addr)
		if err != nil {
			return err
		}
		defer c.close()
		shardConns[i] = c
	}
	var overhead, skew []float64
	for i := 0; i < sample; i++ {
		slowest, fastest := 0.0, math.Inf(1)
		for _, c := range shardConns {
			start := time.Now()
			resp, err := c.ask(qs[i], true, "direct")
			took := time.Since(start)
			if err != nil {
				return fmt.Errorf("direct shard sample: %w", err)
			}
			o.shardStages.observe(resp.Trace, took)
			slowest, fastest = math.Max(slowest, micros(took)), math.Min(fastest, micros(took))
		}
		overhead = append(overhead, routed[i]-slowest)
		skew = append(skew, slowest-fastest)
	}
	o.routerOverheadUs, o.fanoutSkewUs = median(overhead), median(skew)
	return nil
}

// shareTable is, for one end-to-end timing, each layer's part of it.
type shareTable map[string]float64

func normalise(parts map[string]float64) shareTable {
	var sum float64
	for _, v := range parts {
		if v > 0 {
			sum += v
		}
	}
	out := shareTable{}
	for k, v := range parts {
		if v > 0 && sum > 0 {
			out[k] = v / sum
		}
	}
	return out
}

// perLayer derives every per-layer metric of a traced run, runs the
// in-process replay for the layers the daemon's own surface cannot
// separate, and writes the spans out.
func (r *runner) perLayer(env *environment, obs *observer, reads readResult, votes voteResult, replayed int) error {
	m := obs.after.since(obs.before)
	set := r.set
	flushes := float64(len(votes.reports))
	acked := float64(votes.acked)

	// server, qa, pathidx: the ask path.
	stages := reads.stages
	if r.spec.routed {
		stages = obs.shardStages // the router does not forward ?trace=1
	}
	askSelf := median(stages.client) - median(stages.total)
	set("server.ask_self_us", askSelf)
	set("server.requests", m.sumWhere("kgvote_server_requests_total"))
	set("server.errors", m.sumWhere("kgvote_server_errors_total"))
	set("qa.seed_us", median(stages.seed))
	set("qa.resolve_us", median(stages.resolve))
	cache := m
	if obs.reads != nil {
		cache = obs.reads
	}
	hits, misses := cache.sumWhere("kgvote_qa_rank_cache_hits_total"), cache.sumWhere("kgvote_qa_rank_cache_misses_total")
	set("qa.rank_cache_hit_ratio", ratio(hits, hits+misses))
	set("pathidx.rank_us", median(stages.rank))
	beside := sortedCopy(latencyMicros(reads.beside))
	set("server.ask_beside_votes_p50_us", quantile(beside, 0.5))
	set("server.ask_beside_votes_p99_us", quantile(beside, 0.99))

	// The flush path, from the reports the flushing votes carried back.
	var rep flushReport
	for _, x := range votes.reports {
		rep.Votes += x.Votes
		rep.Discarded += x.Discarded
		rep.Clusters += x.Clusters
		rep.Variables += x.Variables
		rep.Constraints += x.Constraints
		rep.Satisfied += x.Satisfied
		rep.ChangedEdges += x.ChangedEdges
		rep.Outer += x.Outer
		rep.InnerIters += x.InnerIters
		rep.EnumSeconds += x.EnumSeconds
		rep.JudgeSeconds += x.JudgeSeconds
		rep.ClusterSeconds += x.ClusterSeconds
		rep.SolveSeconds += x.SolveSeconds
		rep.MergeSeconds += x.MergeSeconds
		rep.EnumCacheHits += x.EnumCacheHits
		rep.EnumCacheMisses += x.EnumCacheMisses
	}
	flushSum := m.sumWhere("kgvote_core_flush_seconds_sum")
	stageSum := rep.EnumSeconds + rep.JudgeSeconds + rep.ClusterSeconds + rep.SolveSeconds + rep.MergeSeconds
	set("pathidx.enum_ms_per_flush", ratio(rep.EnumSeconds*1e3, flushes))
	set("pathidx.enum_cache_hit_ratio", ratio(float64(rep.EnumCacheHits), float64(rep.EnumCacheHits+rep.EnumCacheMisses)))
	set("core.flush_s", m.histMean("kgvote_core_flush_seconds"))
	set("core.flush_other_ms", ratio((flushSum-stageSum)*1e3, flushes))
	set("core.merge_ms", ratio(rep.MergeSeconds*1e3, flushes))
	set("core.changed_edges_per_flush", ratio(float64(rep.ChangedEdges), flushes))
	var flushWall float64
	for _, ms := range votes.visible {
		flushWall += ms / 1e3
	}
	set("core.flush_cpu_per_wall", ratio(votes.flushCPU, flushWall))
	set("vote.judge_ms_per_flush", ratio(rep.JudgeSeconds*1e3, flushes))
	set("vote.discarded_share", ratio(float64(rep.Discarded), float64(rep.Votes)))
	set("cluster.ap_ms_per_flush", ratio(rep.ClusterSeconds*1e3, flushes))
	set("cluster.clusters_per_flush", ratio(float64(rep.Clusters), flushes))
	set("sgp.solve_s_per_vote", ratio(rep.SolveSeconds, float64(rep.Votes)))
	set("sgp.solve_share", ratio(rep.SolveSeconds, flushSum))
	set("sgp.variables_per_flush", ratio(float64(rep.Variables), flushes))
	set("sgp.constraints_per_flush", ratio(float64(rep.Constraints), flushes))
	set("sgp.satisfied_share", ratio(float64(rep.Satisfied), float64(rep.Constraints)))
	set("optimize.outer_iters_per_flush", ratio(float64(rep.Outer), flushes))
	set("optimize.inner_iters_per_flush", ratio(float64(rep.InnerIters), flushes))
	set("optimize.us_per_inner_iter", ratio(rep.SolveSeconds*1e6, float64(rep.InnerIters)))

	// admit, wal, durable: the vote path up to the acknowledgement.
	var admitted, shed float64
	for i := range obs.statsAfter {
		admitted += float64(obs.statsAfter[i].Admission.Admitted - obs.statsBefore[i].Admission.Admitted)
		shed += float64(obs.statsAfter[i].Admission.Shed - obs.statsBefore[i].Admission.Shed)
	}
	set("admit.shed_share", ratio(shed, admitted+shed))
	set("wal.append_us", m.histMean("kgvote_wal_append_seconds")*1e6)
	set("wal.fsync_us", m.histMean("kgvote_wal_fsync_seconds")*1e6)
	set("wal.syncs_per_vote", ratio(m.sumWhere("kgvote_wal_fsync_seconds_count"), acked))
	set("wal.bytes_per_vote", ratio(m.sumWhere("kgvote_wal_append_bytes_total"), acked))
	set("durable.checkpoint_ms", m.histMean("kgvote_durable_checkpoint_seconds")*1e3)
	set("durable.checkpoints", m.sumWhere("kgvote_durable_checkpoints_total"))
	set("durable.replayed_records", float64(replayed))

	// shard, graph, telemetry, process, loadgen.
	set("shard.router_overhead_us", obs.routerOverheadUs)
	set("shard.fanout_skew_us", obs.fanoutSkewUs)
	set("shard.partial_share", 0) // a partial reply is a failed ask, and failed asks fail the run
	set("graph.nodes_end", obs.nodesEnd)
	set("graph.edges_end", obs.edgesEnd)
	set("telemetry.trace_overhead_pct", ratio((obs.tracedP50-obs.untracedP50)*100, obs.untracedP50))
	set("process.rss_peak_mb", obs.rssPeakMB)
	set("process.cpu_per_ask_us", obs.cpuPerAskUs)
	lateness := make([]float64, len(reads.late))
	for i, d := range reads.late {
		lateness[i] = micros(d)
	}
	set("loadgen.late_p99_us", quantile(sortedCopy(lateness), 0.99))
	set("loadgen.cpu_share", ratio(obs.ownAfter-obs.ownBefore, obs.wallAfter.Sub(obs.wallBefore).Seconds()))

	replay, err := replayLayers(r, env)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	for k, v := range replay {
		set(k, v)
	}

	// Where the time goes: each timing split into the layers above. Parts
	// are medians and means of different samples, so they are normalised
	// to shares instead of being presented as an exact sum.
	askParts := map[string]float64{
		"server (http+json+socket)": askSelf,
		"qa.seed":                   median(stages.seed),
		"pathidx.rank":              mean(stages.rank) * ratio(float64(stages.misses), float64(stages.hits+stages.misses)),
		"qa.resolve":                median(stages.resolve),
		"shard (router)":            obs.routerOverheadUs,
	}
	ack := median(votes.acks)
	walUs := r.rec.Metrics["wal.append_us"]*ratio(m.sumWhere("kgvote_wal_append_seconds_count"), acked) +
		r.rec.Metrics["wal.fsync_us"]*r.rec.Metrics["wal.syncs_per_vote"]
	if walUs > ack {
		walUs = ack
	}
	ackParts := map[string]float64{
		"wal (append+fsync)":    walUs,
		"admit":                 replay["admit.admit_ns"] / 1e3,
		"server+durable+attach": ack - walUs - replay["admit.admit_ns"]/1e3,
	}
	visible := median(votes.visible)
	perFlush := func(seconds float64) float64 { return ratio(seconds*1e3, flushes) }
	core := ratio(flushSum*1e3, flushes)
	visibleParts := map[string]float64{
		"pathidx.enum":                   perFlush(rep.EnumSeconds),
		"vote.judge":                     perFlush(rep.JudgeSeconds),
		"cluster.ap":                     perFlush(rep.ClusterSeconds),
		"sgp+optimize+signomial (solve)": perFlush(rep.SolveSeconds),
		"core.merge":                     perFlush(rep.MergeSeconds),
		"core (publish, csr, normalise)": r.rec.Metrics["core.flush_other_ms"],
		"server+wal+durable (around it)": visible - core,
	}
	r.rec.Shares = map[string]shareTable{
		"ask_p50_us":          normalise(askParts),
		"vote_ack_p50_us":     normalise(ackParts),
		"vote_visible_p50_ms": normalise(visibleParts),
	}
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return err
	}
	return r.tr.write(filepath.Join(r.out, "trace-"+r.spec.name+".json"))
}

// printShares renders a record's where-the-time-goes tables as markdown.
func printShares(rec *record) {
	for _, timing := range []string{"ask_p50_us", "vote_ack_p50_us", "vote_visible_p50_ms"} {
		table := rec.Shares[timing]
		names := make([]string, 0, len(table))
		for k := range table {
			names = append(names, k)
		}
		sort.Slice(names, func(i, j int) bool { return table[names[i]] > table[names[j]] })
		fmt.Printf("| %s | %s |", rec.Workload, timing)
		for _, k := range names {
			fmt.Printf(" %s %.1f%% ·", k, table[k]*100)
		}
		fmt.Println(" |")
	}
}
