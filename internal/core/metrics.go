package core

import "kgvote/internal/telemetry"

// Metrics is the engine's optimization-path instrumentation: the hot
// stages the paper makes expensive — per-batch SGP solves and
// split-and-merge clustering — surfaced as registry series. All fields
// and methods are nil-safe, so an engine without metrics pays nothing.
type Metrics struct {
	// FlushSeconds times complete batch solves (judgment filter + encode
	// + SGP + weight application + snapshot republication).
	FlushSeconds *telemetry.Histogram
	// Flushes counts completed batch solves.
	Flushes *telemetry.Counter
	// VotesEncoded / VotesDiscarded split each batch by the judgment
	// algorithm's verdict (Section V).
	VotesEncoded   *telemetry.Counter
	VotesDiscarded *telemetry.Counter
	// VotesQuarantined counts votes excluded from flushes because their
	// voter was quarantined by the installed VoterPolicy.
	VotesQuarantined *telemetry.Counter
	// OuterIters / InnerIters accumulate SGP solver iterations.
	OuterIters *telemetry.Counter
	InnerIters *telemetry.Counter
	// ClusterSize records the vote count of each split-and-merge
	// affinity-propagation cluster.
	ClusterSize *telemetry.Histogram
	// EnumCacheHits / EnumCacheMisses count per-flush walk-enumeration
	// cache outcomes; misses equal the Enumerate DFS runs actually paid.
	EnumCacheHits   *telemetry.Counter
	EnumCacheMisses *telemetry.Counter
	// StageEnum through StageMerge time the flush pipeline's stages
	// (kgvote_core_flush_stage_seconds{stage=...}).
	StageEnum    *telemetry.Histogram
	StageJudge   *telemetry.Histogram
	StageCluster *telemetry.Histogram
	StageSolve   *telemetry.Histogram
	StageMerge   *telemetry.Histogram
	// RankCacheRetained / RankCacheDropped count cached rankings carried
	// into (or invalidated out of) each republished snapshot by the
	// delta-aware retention rule.
	RankCacheRetained *telemetry.Counter
	RankCacheDropped  *telemetry.Counter
}

// NewMetrics registers the engine series in reg (nil reg = nil
// metrics, all observations dropped).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		FlushSeconds: reg.Histogram("kgvote_core_flush_seconds",
			"Duration of one optimization batch solve (filter, encode, SGP, apply).", nil, nil),
		Flushes: reg.Counter("kgvote_core_flushes_total",
			"Completed optimization batch solves.", nil),
		VotesEncoded: reg.Counter("kgvote_core_votes_encoded_total",
			"Votes that produced SGP constraints.", nil),
		VotesDiscarded: reg.Counter("kgvote_core_votes_discarded_total",
			"Votes dropped by the judgment algorithm.", nil),
		VotesQuarantined: reg.Counter("kgvote_votes_quarantined_total",
			"Votes excluded from flushes because their voter was quarantined.", nil),
		OuterIters: reg.Counter("kgvote_core_sgp_outer_iterations_total",
			"SGP solver outer iterations.", nil),
		InnerIters: reg.Counter("kgvote_core_sgp_inner_iterations_total",
			"SGP solver inner iterations.", nil),
		ClusterSize: reg.Histogram("kgvote_core_cluster_size_votes",
			"Votes per split-and-merge affinity-propagation cluster.", nil, telemetry.CountBuckets),
		EnumCacheHits: reg.Counter("kgvote_enum_cache_hits_total",
			"Walk-enumeration cache lookups served without re-running the DFS.", nil),
		EnumCacheMisses: reg.Counter("kgvote_enum_cache_misses_total",
			"Walk-enumeration cache lookups that ran the Enumerate DFS.", nil),
		StageEnum:    stageHistogram(reg, "enumerate"),
		StageJudge:   stageHistogram(reg, "judge"),
		StageCluster: stageHistogram(reg, "cluster"),
		StageSolve:   stageHistogram(reg, "solve"),
		StageMerge:   stageHistogram(reg, "merge"),
		RankCacheRetained: reg.Counter("kgvote_core_rank_cache_retained_total",
			"Cached rankings carried across snapshot republishes by delta-aware retention.", nil),
		RankCacheDropped: reg.Counter("kgvote_core_rank_cache_dropped_total",
			"Cached rankings invalidated at republish because a seed could reach a changed edge.", nil),
	}
}

// stageHistogram registers one flush-pipeline stage latency series.
func stageHistogram(reg *telemetry.Registry, stage string) *telemetry.Histogram {
	return reg.Histogram("kgvote_core_flush_stage_seconds",
		"Wall-clock duration of one flush pipeline stage.",
		telemetry.Labels{"stage": stage}, nil)
}

// SetMetrics wires the engine's (and its streams') instrumentation;
// call it once after construction, before serving. nil disables.
func (e *Engine) SetMetrics(m *Metrics) { e.metrics = m }

// startFlush begins timing a batch solve.
func (m *Metrics) startFlush() func() {
	if m == nil {
		return func() {}
	}
	return m.FlushSeconds.Start()
}

// observeReport folds one solve report into the counters.
func (m *Metrics) observeReport(rep *Report) {
	if m == nil || rep == nil {
		return
	}
	m.Flushes.Inc()
	m.VotesEncoded.Add(int64(rep.Encoded))
	m.VotesDiscarded.Add(int64(rep.Discarded))
	m.VotesQuarantined.Add(int64(rep.Quarantined))
	m.OuterIters.Add(int64(rep.Outer))
	m.InnerIters.Add(int64(rep.InnerIters))
}

// observeCluster records one split-and-merge cluster's vote count.
func (m *Metrics) observeCluster(size int) {
	if m == nil {
		return
	}
	m.ClusterSize.Observe(float64(size))
}

// observeRankCacheCarry records one republish's retention outcome.
func (m *Metrics) observeRankCacheCarry(retained, dropped int) {
	if m == nil {
		return
	}
	m.RankCacheRetained.Add(int64(retained))
	m.RankCacheDropped.Add(int64(dropped))
}

// observeFlushStages publishes a flush report's stage durations and
// enumeration-cache counters.
func (m *Metrics) observeFlushStages(rep *Report) {
	if m == nil || rep == nil {
		return
	}
	m.EnumCacheHits.Add(int64(rep.EnumCacheHits))
	m.EnumCacheMisses.Add(int64(rep.EnumCacheMisses))
	m.StageEnum.Observe(rep.EnumSeconds)
	m.StageJudge.Observe(rep.JudgeSeconds)
	m.StageCluster.Observe(rep.ClusterSeconds)
	m.StageSolve.Observe(rep.SolveSeconds)
	m.StageMerge.Observe(rep.MergeSeconds)
}
