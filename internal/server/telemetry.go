package server

import (
	"log"
	"net/http"
	"time"

	"kgvote/internal/admit"
	"kgvote/internal/core"
	"kgvote/internal/qa"
	"kgvote/internal/telemetry"
	"kgvote/internal/vote"
)

// This file is the server's observability layer (DESIGN.md §10): every
// route is wrapped in a middleware that threads a request ID and span
// recorder through the context, measures latency into per-route
// histograms, tracks in-flight requests, and logs slow requests with
// their stage breakdown. The registry also carries scrape-time views of
// the serving state: snapshot epoch, per-snapshot rank-cache counters,
// the pending-query table, and the lock-free vote counters.

// routes every handler is registered (and instrumented) under.
var routes = []string{"/healthz", "/stats", "/ask", "/vote", "/flush", "/checkpoint", "/explain"}

// routeMetrics is one route's instrument set.
type routeMetrics struct {
	requests *telemetry.Counter
	errors   *telemetry.Counter
	latency  *telemetry.Histogram
	inflight *telemetry.Gauge
}

// serverMetrics is the HTTP layer's registry slice.
type serverMetrics struct {
	routes map[string]*routeMetrics
	slow   *telemetry.Counter
}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	if reg == nil {
		return nil
	}
	sm := &serverMetrics{routes: make(map[string]*routeMetrics, len(routes))}
	for _, route := range routes {
		l := telemetry.Labels{"route": route}
		sm.routes[route] = &routeMetrics{
			requests: reg.Counter("kgvote_server_requests_total",
				"HTTP requests served, by route.", l),
			errors: reg.Counter("kgvote_server_errors_total",
				"HTTP responses with status >= 400, by route.", l),
			latency: reg.Histogram("kgvote_server_request_seconds",
				"HTTP request latency, by route.", l, nil),
			inflight: reg.Gauge("kgvote_server_inflight_requests",
				"Requests currently being served, by route.", l),
		}
	}
	sm.slow = reg.Counter("kgvote_server_slow_requests_total",
		"Requests slower than the configured -slow-ms threshold.", nil)
	return sm
}

// registerCollectors wires the scrape-time series that read live server
// state instead of keeping parallel counters. Re-registration replaces
// the reader, so the newest server owns the series when a registry is
// shared (tests).
func (s *Server) registerCollectors(reg *telemetry.Registry) {
	reg.GaugeFunc("kgvote_core_epoch",
		"Epoch of the published serving snapshot.", nil,
		func() float64 { return float64(s.sys.Engine.Serving().Epoch()) })
	cacheStat := func(read func(h, m, e, l int64) int64) func() float64 {
		return func() float64 {
			st := s.sys.Engine.Serving().CacheStats()
			return float64(read(st.Hits, st.Misses, st.Evictions, int64(st.Len)))
		}
	}
	reg.GaugeFunc("kgvote_core_rank_cache_hits",
		"Rank-cache hits of the current snapshot (resets on epoch swap).", nil,
		cacheStat(func(h, _, _, _ int64) int64 { return h }))
	reg.GaugeFunc("kgvote_core_rank_cache_misses",
		"Rank-cache misses of the current snapshot (resets on epoch swap).", nil,
		cacheStat(func(_, m, _, _ int64) int64 { return m }))
	reg.GaugeFunc("kgvote_core_rank_cache_evictions",
		"Rank-cache evictions of the current snapshot (resets on epoch swap).", nil,
		cacheStat(func(_, _, e, _ int64) int64 { return e }))
	reg.GaugeFunc("kgvote_core_rank_cache_entries",
		"Entries cached by the current snapshot's rank cache.", nil,
		cacheStat(func(_, _, _, l int64) int64 { return l }))
	reg.CounterFunc("kgvote_server_votes_accepted_total",
		"Votes accepted into the stream.", nil,
		func() float64 { return float64(s.votesAccepted.Load()) })
	reg.GaugeFunc("kgvote_server_votes_pending",
		"Votes buffered awaiting the next flush.", nil,
		func() float64 { return float64(s.votesPending.Load()) })
	reg.CounterFunc("kgvote_server_flushes_total",
		"Optimization flushes completed by the stream.", nil,
		func() float64 { return float64(s.flushes.Load()) })
	reg.GaugeFunc("kgvote_server_pending_queries",
		"Asked-but-not-voted query handles held by the pending table.", nil,
		func() float64 { return float64(s.pending.Len()) })
	reg.CounterFunc("kgvote_server_pending_evicted_total",
		"Pending query handles evicted under capacity pressure.", nil,
		func() float64 { return float64(s.pending.Evictions()) })
	reg.GaugeFunc("kgvote_server_draining",
		"1 while the server is draining (writes rejected), else 0.", nil,
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	if s.admit != nil {
		shed := func(read func(admit.Stats) int64) func() float64 {
			return func() float64 { return float64(read(s.admit.Stats())) }
		}
		reg.CounterFunc("kgvote_server_votes_shed_total",
			"Votes shed by admission control, by reason.",
			telemetry.Labels{"reason": admit.ReasonQueueFull},
			shed(func(st admit.Stats) int64 { return st.ShedQueueFull }))
		reg.CounterFunc("kgvote_server_votes_shed_total",
			"Votes shed by admission control, by reason.",
			telemetry.Labels{"reason": admit.ReasonRate},
			shed(func(st admit.Stats) int64 { return st.ShedRate }))
		reg.CounterFunc("kgvote_server_votes_shed_total",
			"Votes shed by admission control, by reason.",
			telemetry.Labels{"reason": admit.ReasonFlush},
			shed(func(st admit.Stats) int64 { return st.ShedFlush }))
		reg.GaugeFunc("kgvote_server_admission_clients",
			"Clients tracked by the admission controller's bucket table.", nil,
			shed(func(st admit.Stats) int64 { return int64(st.Clients) }))
	}
	if s.rep != nil {
		rep := func(read func(vote.ReputationStats) int64) func() float64 {
			return func() float64 { return float64(read(s.rep.Stats())) }
		}
		reg.GaugeFunc("kgvote_vote_reputation_voters",
			"Distinct non-anonymous voters tracked by the reputation table.", nil,
			rep(func(st vote.ReputationStats) int64 { return int64(st.Voters) }))
		reg.GaugeFunc("kgvote_vote_reputation_quarantined_voters",
			"Voters currently quarantined by reputation.", nil,
			rep(func(st vote.ReputationStats) int64 { return int64(st.QuarantinedVoters) }))
		reg.CounterFunc("kgvote_vote_reputation_penalties_total",
			"Reputation penalties applied, by reason.",
			telemetry.Labels{"reason": vote.ReasonJudgmentRejected},
			rep(func(st vote.ReputationStats) int64 { return st.JudgmentRejections }))
		reg.CounterFunc("kgvote_vote_reputation_penalties_total",
			"Reputation penalties applied, by reason.",
			telemetry.Labels{"reason": vote.ReasonSelfContradiction},
			rep(func(st vote.ReputationStats) int64 { return st.SelfContradictions }))
		reg.CounterFunc("kgvote_vote_reputation_penalties_total",
			"Reputation penalties applied, by reason.",
			telemetry.Labels{"reason": vote.ReasonCrossContradiction},
			rep(func(st vote.ReputationStats) int64 { return st.CrossContradictions }))
		reg.CounterFunc("kgvote_vote_reputation_penalties_total",
			"Reputation penalties applied, by reason.",
			telemetry.Labels{"reason": vote.ReasonDuplicate},
			rep(func(st vote.ReputationStats) int64 { return st.DuplicateVotes }))
	}
}

// wireTelemetry builds the HTTP metrics and instruments the system and
// engine; called once from NewWithOptions when a registry is supplied.
func (s *Server) wireTelemetry(reg *telemetry.Registry) {
	s.tel = reg
	s.metrics = newServerMetrics(reg)
	s.sys.SetMetrics(qa.NewMetrics(reg))
	s.sys.Engine.SetMetrics(core.NewMetrics(reg))
	s.registerCollectors(reg)
}

// statusWriter captures the response code for the request counters.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a route handler with request-ID minting, trace
// threading, latency/in-flight accounting, and slow-request logging.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	var rm *routeMetrics
	if s.metrics != nil {
		rm = s.metrics.routes[route]
	}
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = telemetry.NewRequestID()
		}
		tr := s.tel.NewTrace(id)
		w.Header().Set("X-Request-ID", id)
		r = r.WithContext(telemetry.WithTrace(r.Context(), tr))
		if rm != nil {
			rm.inflight.Add(1)
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		d := tr.Elapsed()
		if rm != nil {
			rm.inflight.Add(-1)
			rm.requests.Inc()
			rm.latency.ObserveDuration(d)
			if sw.code >= 400 {
				rm.errors.Inc()
			}
		}
		if s.slow > 0 && d >= s.slow {
			if s.metrics != nil {
				s.metrics.slow.Inc()
			}
			log.Printf("server: slow request route=%s id=%s code=%d took=%s trace:%s",
				route, id, sw.code, d.Round(time.Microsecond), tr)
		}
	}
}
