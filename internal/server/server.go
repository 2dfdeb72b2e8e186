// Package server exposes a Q&A system over a versioned JSON HTTP API: ask
// a question, vote on the answers, and let the engine re-optimize the
// knowledge graph in batches — the paper's interactive loop as a service.
// Request and response bodies live in the public api package; every route
// is mounted under /v1 only.
//
// The serving path is single-writer/many-reader. Reads (/v1/ask,
// /v1/explain, /v1/stats) never take the writer gate: they rank against
// the engine's epoch-stamped immutable graph snapshot
// (core.GraphSnapshot), so any number of questions are answered
// concurrently and keep being answered from the previous epoch while an
// optimization batch is in flight. Writes (/v1/vote, /v1/flush) serialize
// behind one writer gate — a one-slot channel rather than a mutex, so a
// write whose deadline expires while a solve holds the gate degrades into
// a 503/timeout instead of queueing forever.
//
// Overload protection (DESIGN.md §12): when Options.Admission sets a
// capacity, /v1/vote runs every request through the admission controller —
// bounded pending queue, flush watermark, per-client token buckets — and
// sheds excess load as 429 envelopes with Retry-After hints. The check is
// advisory (lock-free counters) plus an authoritative re-check under the
// gate, so the queue bound is exact. BeginDrain/Drain implement graceful
// shutdown: admission stops, reads continue, queued votes are solved, and
// a final checkpoint lands before exit.
//
// /v1/ask does not attach a query node to the shared graph. It scores the
// question as a virtual source against the snapshot and returns a negative
// opaque query handle; the query node is materialized lazily — under the
// writer gate — only if a /v1/vote references the handle. Ask-only traffic
// therefore leaves the graph untouched.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kgvote/api"
	"kgvote/internal/admit"
	"kgvote/internal/core"
	"kgvote/internal/durable"
	"kgvote/internal/graph"
	"kgvote/internal/lru"
	"kgvote/internal/qa"
	"kgvote/internal/shard"
	"kgvote/internal/telemetry"
	"kgvote/internal/vote"
)

// The wire DTOs are defined once in the api package; these aliases keep
// the server's internal code (and its tests) on the short names.
type (
	StatsBody       = api.StatsBody
	AskRequest      = api.AskRequest
	AskResult       = api.AskResult
	AskResponse     = api.AskResponse
	TraceBody       = api.TraceBody
	VoteRequest     = api.VoteRequest
	VoteResponse    = api.VoteResponse
	ExplainRequest  = api.ExplainRequest
	ExplainResponse = api.ExplainResponse
	ExplainPath     = api.ExplainPath
)

// pendingQueryCap bounds the table of asked-but-not-yet-voted query
// handles; the oldest handles expire first.
const pendingQueryCap = 1 << 16

// pendingQuery is a served question awaiting a possible vote. node stays
// graph.None until a vote materializes the query node; both fields are
// guarded by the server's writer gate after insertion.
type pendingQuery struct {
	q    qa.Question
	node graph.NodeID
}

// Options configures a Server beyond the system itself.
type Options struct {
	// BatchSize is the number of votes per optimization batch (1 =
	// optimize on every vote).
	BatchSize int
	// Solver selects the per-batch solving mode.
	Solver core.StreamSolver
	// Durable, when non-nil, is the durability layer: accepted votes are
	// logged to its WAL before entering the stream, flushes log their
	// applied weight sets, and checkpoints run through it. The manager
	// must already be Recovered or Bootstrapped for the same system.
	Durable *durable.Manager
	// Recovered carries crash-recovered stream state to restore (pending
	// votes and counters); nil for a fresh boot.
	Recovered *durable.Recovered
	// CheckpointEvery checkpoints after every N completed flushes
	// (0 = never automatically; POST /v1/checkpoint and shutdown still
	// work).
	CheckpointEvery int
	// PendingCap bounds the asked-but-not-voted handle table
	// (0 = the 2^16 default; used by tests to force evictions).
	PendingCap int
	// Admission, when Capacity > 0, bounds the pending-vote queue and
	// sheds excess /v1/vote load (429 + Retry-After). Zero Capacity
	// disables admission control entirely.
	Admission admit.Config
	// Reputation, when non-nil, enables voter reputation tracking:
	// attributed votes (VoteRequest.Voter) are scored, low-reputation
	// voters are quarantined, and quarantined voters' votes are excluded
	// from batch solves until their reputation recovers. Nil disables
	// tracking entirely; anonymous votes are never tracked either way.
	Reputation *vote.ReputationConfig
	// AsyncFlush moves batch solves off the vote path onto a background
	// scheduler: /v1/vote enqueues and returns immediately, and
	// VoteResponse.Flushed stays false. Off by default — votes flush
	// inline when the batch fills, which is what the response's
	// Flushed/Report fields and the crash-recovery tests assume.
	AsyncFlush bool
	// FlushTimeout bounds each flush solve (background flushes always;
	// inline flushes only through the request's own deadline). When it
	// fires mid-solve the solver stops at its best-so-far iterate and the
	// report is marked Partial. 0 = no bound.
	FlushTimeout time.Duration
	// Telemetry, when non-nil, instruments every layer the server
	// touches — HTTP routes, the qa serving path, the engine's solves —
	// and is served at GET /metrics in the Prometheus text format.
	// Construct the durable.Manager with the same registry (see
	// durable.NewMetrics) for WAL and checkpoint series.
	Telemetry *telemetry.Registry
	// SlowThreshold logs any request slower than this, with its stage
	// trace (0 = disabled).
	SlowThreshold time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// ReadOnly serves a snapshot replica: every write route (/v1/vote,
	// /v1/flush, /v1/checkpoint, /v1/weights) answers 501/read_only while
	// the read routes keep serving; the snapshot follower feeds the
	// graph through ImportSnapshot.
	ReadOnly bool
	// Shard, when non-nil, runs this server as one shard of a
	// partitioned cluster (DESIGN.md §14): /v1/ask ranks only the
	// documents the shard owns, /v1/vote rejects documents owned
	// elsewhere with 421/misrouted, /v1/weights accepts peer replication
	// pushes, and each flush's applied weight set is handed to OnFlush
	// for replication.
	Shard *ShardConfig
	// Tenant names the tenant this server serves inside a multi-tenant
	// registry (DESIGN.md §17). It labels /v1/stats and, for every
	// tenant other than "default", maps admission sheds to the
	// tenant_quota_exceeded envelope (the default tenant keeps the
	// legacy per-reason codes so un-scoped clients see unchanged
	// responses). Empty on un-tenanted daemons.
	Tenant string
	// Tenants, when non-nil, is read at /v1/stats time to embed the
	// tenant registry's summary section; the multi-tenant daemon wires
	// it on the default tenant's server only.
	Tenants func() *api.TenantsStats
}

// DefaultTenant is the tenant every un-scoped /v1 request resolves to
// in a multi-tenant daemon. It always exists, cannot be created or
// deleted, and keeps the legacy shed codes for bit-compatibility with
// single-tenant deployments.
const DefaultTenant = "default"

// ShardConfig wires a server into a sharded cluster.
type ShardConfig struct {
	// Map is the cluster's document→shard assignment; every process must
	// load the same map file.
	Map *shard.Map
	// Index is this shard's position in the map.
	Index int
	// OnFlush, when non-nil, is invoked under the writer gate after each
	// completed flush with the flush sequence and the applied weight set
	// filtered to the replicated region (entity and answer edges only).
	// It must not block: the pusher enqueues and returns.
	OnFlush func(seq uint64, set []core.WeightChange)
}

// Server wires a qa.System and a vote stream into an http.Handler.
type Server struct {
	// mu is the single-writer gate: it guards the mutable graph (query
	// attachment, batch solves), the vote stream, and the durability log.
	// Read handlers never acquire it.
	mu     writerGate
	sys    *qa.System
	stream *core.Stream
	dur    *durable.Manager

	// Admission control (nil = unbounded legacy behavior) and the flags
	// its fast path reads without the gate.
	admit    *admit.Controller
	flushing atomic.Bool
	draining atomic.Bool

	// Voter reputation tracking (nil unless Options.Reputation). The
	// tracker is internally synchronized; the stream consults it as its
	// VoterPolicy at flush time under the writer gate.
	rep *vote.Reputation

	// Background flush scheduling (nil unless Options.AsyncFlush).
	flusher      *flusher
	asyncFlush   bool
	flushTimeout time.Duration

	// checkpointEvery/flushesSinceCkpt drive automatic checkpoints; both
	// are touched under mu only.
	checkpointEvery  int
	flushesSinceCkpt int

	pending    *lru.Cache[graph.NodeID, *pendingQuery]
	nextHandle atomic.Int32 // decrements; first handle is -2 (None is -1)

	// Lock-free mirrors of the stream counters for /stats and the
	// admission fast path.
	votesAccepted atomic.Int64
	votesPending  atomic.Int64
	flushes       atomic.Int64

	// Observability (nil when Options.Telemetry is nil; every use is
	// nil-safe).
	tel     *telemetry.Registry
	metrics *serverMetrics
	slow    time.Duration
	pprof   bool

	// Multi-tenant identity (DESIGN.md §17): tenant labels stats and
	// selects the quota shed code; tenantsFn embeds the registry summary
	// in the default tenant's /v1/stats.
	tenant    string
	tenantsFn func() *api.TenantsStats

	// Sharded serving (DESIGN.md §14). boundary is the first runtime
	// node ID: entity and answer nodes below it are corpus-stable across
	// processes and form the replicated region; query nodes above it are
	// process-local and never travel. remoteSeqs is the replication gap
	// detector — it gets its own small mutex (not the writer gate) so
	// /v1/stats can read it without queueing behind a solve; writers
	// mutate it under the gate as well, so gate-holders read it safely.
	// replicaStats is published by the snapshot follower on read replicas.
	readOnly      bool
	shardCfg      *ShardConfig
	boundary      graph.NodeID
	remoteMu      sync.Mutex
	remoteSeqs    map[uint32]uint64
	remoteApplied atomic.Int64
	replicaStats  atomic.Pointer[api.ReplicaStats]

	// flushTotals accumulates per-flush pipeline telemetry for /v1/stats
	// (the /metrics histograms in core.Metrics carry the same data as
	// distributions; stats wants plain cumulative numbers). Written under
	// the writer gate in flushLocked; its own small mutex lets handleStats
	// read without queueing behind a solve.
	flushTotals struct {
		sync.Mutex
		api.FlushStats
	}
}

// New returns a server over the system whose votes flush every batchSize
// votes (1 = optimize on every vote).
func New(sys *qa.System, batchSize int, solver core.StreamSolver) (*Server, error) {
	return NewWithOptions(sys, Options{BatchSize: batchSize, Solver: solver})
}

// NewWithOptions returns a server over the system, optionally wired to a
// durability manager and primed with crash-recovered stream state.
func NewWithOptions(sys *qa.System, o Options) (*Server, error) {
	st, err := sys.Engine.NewStream(o.BatchSize, o.Solver)
	if err != nil {
		return nil, err
	}
	if o.Recovered != nil {
		if err := st.Restore(o.Recovered.Pending, o.Recovered.TotalVotes, o.Recovered.Flushes); err != nil {
			return nil, err
		}
	}
	cap := o.PendingCap
	if cap == 0 {
		cap = pendingQueryCap
	}
	s := &Server{
		mu:              newWriterGate(),
		sys:             sys,
		stream:          st,
		dur:             o.Durable,
		checkpointEvery: o.CheckpointEvery,
		pending:         lru.New[graph.NodeID, *pendingQuery](cap),
		asyncFlush:      o.AsyncFlush,
		flushTimeout:    o.FlushTimeout,
		slow:            o.SlowThreshold,
		pprof:           o.Pprof,
		readOnly:        o.ReadOnly,
		shardCfg:        o.Shard,
		tenant:          o.Tenant,
		tenantsFn:       o.Tenants,
		boundary:        graph.NodeID(sys.Aug.Entities + len(sys.Aug.Answers)),
		remoteSeqs:      make(map[uint32]uint64),
	}
	if sc := o.Shard; sc != nil {
		if sc.Map == nil {
			return nil, fmt.Errorf("server: shard config without a map")
		}
		if sc.Index < 0 || sc.Index >= sc.Map.Shards {
			return nil, fmt.Errorf("server: shard index %d out of range for %d shards", sc.Index, sc.Map.Shards)
		}
		if n := sys.RestrictServing(func(doc int) bool { return sc.Map.Owns(sc.Index, doc) }); n == 0 {
			return nil, fmt.Errorf("server: shard %d/%d owns no documents", sc.Index, sc.Map.Shards)
		}
	}
	if o.Recovered != nil {
		for src, seq := range o.Recovered.RemoteSeqs {
			s.remoteSeqs[src] = seq
		}
	}
	if o.Admission.Capacity > 0 {
		s.admit = admit.New(o.Admission)
	}
	if o.Reputation != nil {
		s.rep = vote.NewReputation(*o.Reputation)
		st.SetVoterPolicy(s.rep)
		if o.Recovered != nil {
			// Re-observe the recovered pending votes so a crash does not
			// reset in-flight voters to a clean slate. The original entity
			// signatures are gone, so these observations key on the query
			// node id — contradiction detection across a restart is
			// coarser, but scores and quarantine state re-accumulate.
			for _, v := range o.Recovered.Pending {
				s.rep.Observe(v.Voter, uint64(uint32(v.Query)), v.Best)
			}
		}
	}
	if o.Telemetry != nil {
		s.wireTelemetry(o.Telemetry)
	}
	s.nextHandle.Store(int32(graph.None))
	s.votesAccepted.Store(int64(st.TotalVotes))
	s.votesPending.Store(int64(st.Pending()))
	s.flushes.Store(int64(st.Flushes))
	if o.AsyncFlush {
		s.flusher = newFlusher(s)
		if st.NeedsFlush() {
			// A recovered pending queue can already be at the batch
			// threshold; without a nudge the flusher would sleep until the
			// next incoming vote, delaying an already-due flush.
			s.flusher.wake()
		}
	}
	return s, nil
}

// Route is one method+path of the versioned API surface. The table
// behind Routes() is the same one Handler() registers from, so the
// docs-drift test (TestAPIDocsRoutesExist) checks the real mux.
type Route struct {
	Method string
	// Path is the /v1-prefixed path.
	Path string
}

// routeTable binds every versioned route to its handler. Handler() and
// Routes() both derive from it so the two can never disagree.
var routeTable = []struct {
	method, path string
	h            func(*Server) http.HandlerFunc
}{
	{"GET", "/healthz", func(s *Server) http.HandlerFunc { return s.handleHealth }},
	{"GET", "/stats", func(s *Server) http.HandlerFunc { return s.handleStats }},
	{"POST", "/ask", func(s *Server) http.HandlerFunc { return s.handleAsk }},
	{"POST", "/askbatch", func(s *Server) http.HandlerFunc { return s.handleAskBatch }},
	{"POST", "/vote", func(s *Server) http.HandlerFunc { return s.handleVote }},
	{"POST", "/flush", func(s *Server) http.HandlerFunc { return s.handleFlush }},
	{"POST", "/checkpoint", func(s *Server) http.HandlerFunc { return s.handleCheckpoint }},
	{"POST", "/explain", func(s *Server) http.HandlerFunc { return s.handleExplain }},
	{"POST", "/weights", func(s *Server) http.HandlerFunc { return s.handleWeights }},
	{"GET", "/snapshot", func(s *Server) http.HandlerFunc { return s.handleSnapshot }},
}

// Routes lists every versioned route a Server mounts, /v1-prefixed.
func Routes() []Route {
	out := make([]Route, len(routeTable))
	for i, rt := range routeTable {
		out[i] = Route{Method: rt.method, Path: "/v1" + rt.path}
	}
	return out
}

// Handler returns the route mux: every route under /v1, instrumented
// under its unversioned route label. The scrape and profiling endpoints
// are mounted uninstrumented.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routeTable {
		mux.HandleFunc(rt.method+" /v1"+rt.path, s.instrument(rt.path, rt.h(s)))
	}
	if s.tel != nil {
		mux.Handle("GET /metrics", s.tel.Handler())
	}
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// apiErr builds an envelope error carrying its HTTP status.
func apiErr(status int, code, format string, args ...any) *api.Error {
	return &api.Error{Code: code, Message: fmt.Sprintf(format, args...), HTTPStatus: status}
}

// writeAPIErr writes the uniform error envelope; a retry hint is mirrored
// into the Retry-After header (rounded up to whole seconds).
func writeAPIErr(w http.ResponseWriter, e *api.Error) {
	if e.RetryAfterMS > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((e.RetryAfterMS+999)/1000, 10))
	}
	status := e.HTTPStatus
	if status == 0 {
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, api.ErrorBody{Error: *e})
}

func writeErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeAPIErr(w, apiErr(status, code, format, args...))
}

// writeShed surfaces an admission decision as a 429 envelope. The
// un-tenanted daemon and the default tenant keep the legacy per-reason
// codes (queue_full / rate_limited / flush_backpressure) so un-scoped
// clients see unchanged responses; every other tenant maps sheds to the
// single tenant_quota_exceeded code with the shed reason preserved in
// the message (DESIGN.md §17).
func (s *Server) writeShed(w http.ResponseWriter, d admit.Decision) {
	e := &api.Error{
		Code:         d.Reason,
		Message:      "vote shed: " + d.Reason,
		RetryAfterMS: d.RetryAfter.Milliseconds(),
		HTTPStatus:   http.StatusTooManyRequests,
	}
	if s.tenant != "" && s.tenant != DefaultTenant {
		e.Code = api.CodeTenantQuota
		e.Tenant = s.tenant
		e.Message = fmt.Sprintf("tenant %q quota exceeded: %s", s.tenant, d.Reason)
	}
	writeAPIErr(w, e)
}

// isCtxErr reports a context cancellation or deadline expiry, however
// deeply wrapped.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// clientID is the admission fairness key: the X-Client-ID header when the
// client supplies one, else the remote host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, api.HealthBody{Status: status})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats assembles the /v1/stats body: the named sections (serving,
// admission, reputation, durability, flush, shard, replica, tenants).
func (s *Server) Stats() StatsBody {
	body := s.StatsLocal()
	if s.tenantsFn != nil {
		body.Tenants = s.tenantsFn()
	}
	return body
}

// StatsLocal is Stats without the tenants section. The tenant registry
// builds per-tenant summaries from it — going through Stats there would
// recurse on the default tenant, whose tenants hook is the registry
// summary itself.
func (s *Server) StatsLocal() StatsBody {
	snap := s.sys.Engine.Serving()
	body := StatsBody{Tenant: s.tenant, Serving: &api.ServingStats{
		Entities:       s.sys.Aug.Entities,
		Edges:          snap.NumEdges(),
		Documents:      len(s.sys.Answers()),
		VotesAccepted:  int(s.votesAccepted.Load()),
		VotesPending:   int(s.votesPending.Load()),
		Flushes:        int(s.flushes.Load()),
		Epoch:          snap.Epoch(),
		PendingEvicted: s.pending.Evictions(),
		Draining:       s.draining.Load(),
	}}
	s.flushTotals.Lock()
	ft := s.flushTotals.FlushStats
	s.flushTotals.Unlock()
	if body.Serving.Flushes > 0 {
		body.Flush = &ft
	}
	if s.admit != nil {
		st := s.admit.Stats()
		body.Admission = &api.AdmissionStats{
			QueueCapacity: st.Capacity,
			Admitted:      st.Admitted,
			Shed:          st.Shed,
			ShedQueueFull: st.ShedQueueFull,
			ShedRate:      st.ShedRate,
			ShedFlush:     st.ShedFlush,
			Clients:       st.Clients,
		}
	}
	if s.rep != nil {
		rs := s.rep.Stats()
		body.Reputation = &rs
	}
	if s.dur != nil {
		ds := s.dur.Stats()
		body.Durability = &ds
	}
	if sc := s.shardCfg; sc != nil {
		st := &api.ShardStats{
			Index:         sc.Index,
			Shards:        sc.Map.Shards,
			OwnedDocs:     len(s.sys.ServingAnswers()),
			MapChecksum:   fmt.Sprintf("%08x", sc.Map.Checksum()),
			RemoteApplied: s.remoteApplied.Load(),
		}
		s.remoteMu.Lock()
		if len(s.remoteSeqs) > 0 {
			st.RemoteSeqs = make(map[uint32]uint64, len(s.remoteSeqs))
			for src, seq := range s.remoteSeqs {
				st.RemoteSeqs[src] = seq
			}
		}
		s.remoteMu.Unlock()
		body.Shard = st
	}
	if rs := s.replicaStats.Load(); rs != nil {
		cp := *rs
		body.Replica = &cp
	}
	return body
}

func (s *Server) handleAsk(w http.ResponseWriter, r *http.Request) {
	var req AskRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err)
		return
	}
	ents := req.Entities
	if len(ents) == 0 && req.Text != "" {
		ents = qa.ExtractEntities(req.Text, s.sys.Vocabulary())
	}
	if len(ents) == 0 {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "no entities: provide text with known entities or an entities map")
		return
	}
	tr := telemetry.FromContext(r.Context())
	q := qa.Question{ID: -1, Entities: ents}
	snap, ranked, cacheHit, err := s.sys.RankSnapshotTracedCtx(r.Context(), q, tr)
	if err != nil {
		if isCtxErr(err) {
			writeErr(w, http.StatusServiceUnavailable, api.CodeTimeout, "ask: %v", err)
			return
		}
		writeErr(w, http.StatusUnprocessableEntity, api.CodeUnprocessable, "ask: %v", err)
		return
	}
	stopResolve := tr.Stage("resolve")
	handle := graph.NodeID(s.nextHandle.Add(-1))
	s.pending.Add(handle, &pendingQuery{q: q, node: graph.None})
	resp := AskResponse{Query: handle, Epoch: snap.Epoch()}
	if s.shardCfg != nil {
		// Echo the resolved entities so the router can forward a later
		// vote to the owning shard even if that shard never saw this ask.
		resp.Entities = ents
	}
	for _, a := range ranked {
		doc := s.sys.DocOf(a.Node)
		resp.Results = append(resp.Results, AskResult{Doc: doc, Title: s.sys.TitleOf(doc), Score: a.Score})
	}
	stopResolve()
	if r.URL.Query().Get("trace") == "1" && tr != nil {
		resp.Trace = &TraceBody{
			RequestID:   tr.ID(),
			CacheHit:    cacheHit,
			Stages:      tr.Stages(),
			TotalMicros: float64(tr.Elapsed().Microseconds()),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// queryNode resolves a client query reference to a graph node,
// materializing the query node of a pending handle on first use. When the
// handle is unknown (expired, or minted by a router whose ask another
// shard answered) and the vote carried its question's entities, the query
// is materialized one-shot from those entities instead of failing — the
// node is not entered into the pending table, since the handle is not
// this server's to reuse. The caller must hold the writer gate. The
// context is consulted only before materialization: once the node is
// attached (and WAL-logged) the operation is committed to.
func (s *Server) queryNode(ctx context.Context, ref graph.NodeID, entities map[string]int) (graph.NodeID, *api.Error) {
	if ref >= 0 {
		if !s.sys.Aug.IsQuery(ref) {
			return graph.None, apiErr(http.StatusBadRequest, api.CodeBadRequest, "node %d is not a query node", ref)
		}
		return ref, nil
	}
	pq, ok := s.pending.Get(ref)
	if !ok {
		if len(entities) == 0 {
			return graph.None, apiErr(http.StatusBadRequest, api.CodeBadRequest, "unknown or expired query handle %d", ref)
		}
		pq = &pendingQuery{q: qa.Question{ID: -1, Entities: entities}, node: graph.None}
	}
	if pq.node == graph.None {
		// Last exit before mutating the graph: a dead request must not
		// attach a node whose WAL record would then be skipped.
		if err := ctx.Err(); err != nil {
			return graph.None, apiErr(http.StatusServiceUnavailable, api.CodeTimeout, "vote: %v", err)
		}
		qn, err := s.sys.AttachQuestion(pq.q)
		if err != nil {
			return graph.None, apiErr(http.StatusUnprocessableEntity, api.CodeUnprocessable, "vote: %v", err)
		}
		pq.node = qn
		// Log the attachment the moment it happens so every later vote
		// record references a node the WAL can reproduce. A log failure
		// poisons the manager (the in-memory graph now has a node the log
		// does not), so subsequent votes are rejected until restart.
		if s.dur != nil {
			if err := s.dur.LogAttach(durable.Attach{Node: qn, Question: pq.q}); err != nil {
				return graph.None, apiErr(http.StatusServiceUnavailable, api.CodeUnavailable, "durability: %v", err)
			}
		}
	}
	return pq.node, nil
}

func (s *Server) handleVote(w http.ResponseWriter, r *http.Request) {
	if s.readOnly {
		writeErr(w, http.StatusNotImplemented, api.CodeReadOnly, "this process is a read replica; send votes to its writer")
		return
	}
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, api.CodeDraining, "server is draining; votes are no longer admitted")
		return
	}
	var req VoteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err)
		return
	}
	if sc := s.shardCfg; sc != nil && !sc.Map.Owns(sc.Index, req.BestDoc) {
		writeErr(w, http.StatusMisdirectedRequest, api.CodeMisrouted,
			"document %d is owned by shard %d, not shard %d", req.BestDoc, sc.Map.Owner(req.BestDoc), sc.Index)
		return
	}
	if len(req.Voter) > maxVoterLen {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest,
			"voter id exceeds %d bytes", maxVoterLen)
		return
	}
	ranked := make([]graph.NodeID, 0, len(req.Ranked))
	for _, doc := range req.Ranked {
		a, err := s.sys.AnswerOf(doc)
		if err != nil {
			writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "unknown document %d", doc)
			return
		}
		ranked = append(ranked, a)
	}
	best, err := s.sys.AnswerOf(req.BestDoc)
	if err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "unknown best document %d", req.BestDoc)
		return
	}
	// Advisory fast path: shed before touching the writer gate, so a
	// flood is repelled at the cost of two atomic loads, not a lock
	// acquisition behind an in-flight solve.
	client := clientID(r)
	if s.admit != nil {
		d := s.admit.Admit(client, int(s.votesPending.Load()), s.flushing.Load())
		if !d.OK {
			s.writeShed(w, d)
			return
		}
	}
	if err := s.mu.LockCtx(r.Context()); err != nil {
		if s.admit != nil {
			s.admit.Cancel(client)
		}
		writeErr(w, http.StatusServiceUnavailable, api.CodeTimeout, "vote: %v", err)
		return
	}
	defer s.mu.Unlock()
	// Authoritative re-check under the gate: the advisory depth may have
	// raced with other admissions, but the queue bound is exact.
	if s.admit != nil && s.stream.Pending() >= s.admit.Capacity() {
		s.writeShed(w, s.admit.Reject(client))
		return
	}
	if s.draining.Load() { // drain began while this request waited at the gate
		if s.admit != nil {
			s.admit.Cancel(client)
		}
		writeErr(w, http.StatusServiceUnavailable, api.CodeDraining, "server is draining; votes are no longer admitted")
		return
	}
	qn, aerr := s.queryNode(r.Context(), req.Query, req.Entities)
	if aerr != nil {
		if s.admit != nil {
			s.admit.Cancel(client)
		}
		writeAPIErr(w, aerr)
		return
	}
	v, err := vote.FromRanking(qn, ranked, best)
	if err != nil {
		if s.admit != nil {
			s.admit.Cancel(client)
		}
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "vote: %v", err)
		return
	}
	v.Weight = req.Weight
	v.Voter = req.Voter
	if err := v.Validate(); err != nil {
		if s.admit != nil {
			s.admit.Cancel(client)
		}
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "vote: %v", err)
		return
	}
	// WAL-first: the vote is logged before it enters the stream, so a
	// crash after this point replays it. The context is checked one last
	// time inside LogVoteCtx; past it, the vote is committed to and the
	// remaining stages run regardless of the client's deadline.
	if s.dur != nil {
		if err := s.dur.LogVoteCtx(r.Context(), v); err != nil {
			if s.admit != nil {
				s.admit.Cancel(client)
			}
			if isCtxErr(err) {
				writeErr(w, http.StatusServiceUnavailable, api.CodeTimeout, "vote: %v", err)
				return
			}
			writeErr(w, http.StatusServiceUnavailable, api.CodeUnavailable, "durability: %v", err)
			return
		}
	}
	if err := s.stream.PushQueue(v); err != nil {
		// The vote validated above, so this cannot be a client error; if
		// it is in the WAL, memory and disk now disagree.
		if s.dur != nil {
			s.dur.Fail()
			writeErr(w, http.StatusInternalServerError, api.CodeInternal,
				"enqueue failed after the vote was logged; durability halted, restart to recover: %v", err)
			return
		}
		writeErr(w, http.StatusInternalServerError, api.CodeInternal, "enqueue: %v", err)
		return
	}
	s.votesAccepted.Add(1)
	s.votesPending.Store(int64(s.stream.Pending()))
	var quarantined bool
	if s.rep != nil {
		verdict := s.rep.Observe(v.Voter, s.voteQueryKey(req.Query, req.Entities, qn), v.Best)
		quarantined = verdict.Quarantined
	}
	var rep *core.Report
	if s.stream.NeedsFlush() {
		if s.asyncFlush {
			s.flusher.wake()
		} else {
			var ferr *api.Error
			rep, ferr = s.flushLocked(r.Context())
			if ferr != nil && ferr.Code != api.CodeTimeout {
				writeAPIErr(w, ferr)
				return
			}
			// A timeout here means the solve never started and the batch
			// was restored to the queue: the vote itself is accepted, and
			// the flush will run on the next trigger.
		}
	}
	if s.dur != nil {
		if err := s.dur.Commit(); err != nil {
			writeErr(w, http.StatusServiceUnavailable, api.CodeUnavailable, "durability: %v", err)
			return
		}
	}
	writeJSON(w, http.StatusOK, VoteResponse{
		Kind:        v.Kind.String(),
		Pending:     s.stream.Pending(),
		Flushed:     rep != nil,
		Report:      rep,
		Quarantined: quarantined,
	})
}

// maxVoterLen bounds VoteRequest.Voter: long ids bloat WAL records and
// the reputation table for no legitimate reason.
const maxVoterLen = 64

// voteQueryKey derives the stable question identity a vote's reputation
// observation is keyed on: the entity signature of the served question
// when the handle (or the vote itself) still carries one, else the query
// node id. Entity signatures are what let the tracker recognize the same
// question across separate asks — every ask mints a fresh node.
func (s *Server) voteQueryKey(ref graph.NodeID, entities map[string]int, qn graph.NodeID) uint64 {
	if pq, ok := s.pending.Get(ref); ok && len(pq.q.Entities) > 0 {
		return entitiesKey(pq.q.Entities)
	}
	if len(entities) > 0 {
		return entitiesKey(entities)
	}
	return uint64(uint32(qn))
}

// entitiesKey hashes an entity multiset into a stable 64-bit key.
func entitiesKey(ents map[string]int) uint64 {
	names := make([]string, 0, len(ents))
	for n := range ents {
		names = append(names, n)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, n := range names {
		fmt.Fprintf(h, "%s=%d;", n, ents[n])
	}
	return h.Sum64()
}

// flushLocked runs one flush with durability logging and the periodic
// checkpoint policy; the caller holds the writer gate and commits the WAL
// afterwards. The flushing flag it raises is what the admission watermark
// reads. Cancellation before the solve applied anything restores the
// votes to the queue and reports a timeout; a solver failure after the
// WAL logged the batch's votes poisons durability (recovery replays
// them).
func (s *Server) flushLocked(ctx context.Context) (*core.Report, *api.Error) {
	s.flushing.Store(true)
	rep, err := s.stream.FlushCtx(ctx)
	s.flushing.Store(false)
	s.votesPending.Store(int64(s.stream.Pending()))
	s.flushes.Store(int64(s.stream.Flushes))
	if err != nil {
		if isCtxErr(err) {
			return nil, apiErr(http.StatusServiceUnavailable, api.CodeTimeout, "flush: %v", err)
		}
		if s.dur != nil {
			s.dur.Fail()
			return nil, apiErr(http.StatusInternalServerError, api.CodeInternal,
				"optimize failed after its votes were logged; durability halted, restart to recover: %v", err)
		}
		return nil, apiErr(http.StatusUnprocessableEntity, api.CodeUnprocessable, "optimize: %v", err)
	}
	if rep == nil {
		return nil, nil
	}
	s.flushTotals.Lock()
	s.flushTotals.EnumCacheHits += rep.EnumCacheHits
	s.flushTotals.EnumCacheMisses += rep.EnumCacheMisses
	s.flushTotals.EnumSeconds += rep.EnumSeconds
	s.flushTotals.JudgeSeconds += rep.JudgeSeconds
	s.flushTotals.ClusterSeconds += rep.ClusterSeconds
	s.flushTotals.SolveSeconds += rep.SolveSeconds
	s.flushTotals.MergeSeconds += rep.MergeSeconds
	s.flushTotals.Unlock()
	if s.dur != nil {
		if err := s.dur.LogFlush(rep.Applied); err != nil {
			return rep, apiErr(http.StatusServiceUnavailable, api.CodeUnavailable, "durability: %v", err)
		}
		if rep.Consumed < rep.Votes {
			// A cancelled single-vote flush requeued its unprocessed tail
			// (the only votes pending right now — the writer gate is held).
			// The flush record above is the WAL's batch boundary and erased
			// them from the replay window, so re-log them behind it or a
			// crash before the next flush would lose admitted votes.
			for _, v := range s.stream.PendingVotes() {
				if err := s.dur.LogRequeue(v); err != nil {
					return rep, apiErr(http.StatusServiceUnavailable, api.CodeUnavailable, "durability: %v", err)
				}
			}
		}
	}
	if err := s.afterFlushLocked(); err != nil {
		return rep, apiErr(http.StatusInternalServerError, api.CodeInternal, "flush applied but checkpoint failed: %v", err)
	}
	if sc := s.shardCfg; sc != nil && sc.OnFlush != nil {
		// Replicate this flush's applied weights to the peer shards. Only
		// the corpus-stable region travels: query-node IDs diverge across
		// processes. Still under the gate, so the sequence (the flush
		// counter) and the weight set are handed over consistently.
		sc.OnFlush(uint64(s.stream.Flushes), filterBelow(rep.Applied, s.boundary))
	}
	return rep, nil
}

// filterBelow keeps the weight changes whose endpoints both precede the
// runtime-node boundary — the replicable entity/answer region.
func filterBelow(ws []core.WeightChange, boundary graph.NodeID) []core.WeightChange {
	out := make([]core.WeightChange, 0, len(ws))
	for _, wc := range ws {
		if wc.From < boundary && wc.To < boundary {
			out = append(out, wc)
		}
	}
	return out
}

// afterFlushLocked runs the periodic checkpoint policy after a completed
// flush. The caller must hold the writer gate.
func (s *Server) afterFlushLocked() error {
	if s.dur == nil || s.checkpointEvery <= 0 {
		return nil
	}
	s.flushesSinceCkpt++
	if s.flushesSinceCkpt < s.checkpointEvery {
		return nil
	}
	s.flushesSinceCkpt = 0
	return s.dur.Checkpoint(s.sys, s.stream.TotalVotes, s.stream.Flushes)
}

// Checkpoint persists a full-state checkpoint now, independent of the
// periodic policy. It backs POST /v1/checkpoint and graceful shutdown.
func (s *Server) Checkpoint() error {
	if s.dur == nil {
		return fmt.Errorf("no durability layer configured")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.dur.Checkpoint(s.sys, s.stream.TotalVotes, s.stream.Flushes)
	if err == nil {
		s.flushesSinceCkpt = 0
	}
	return err
}

// BeginDrain irreversibly stops admitting writes: /v1/vote, /v1/flush,
// and /v1/checkpoint answer 503/draining envelopes from this moment on,
// while reads keep serving from the snapshot. It is safe to call from a
// signal handler before shutting the HTTP listener down.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain completes graceful shutdown after BeginDrain (which it also calls
// for stragglers): the background flusher stops, every queued vote is
// solved, and — when durability is configured — the WAL commits and a
// final checkpoint lands. If ctx expires mid-solve the flush applies its
// best-so-far weights; if it expires before the solve starts the queued
// votes remain in the WAL, so the next boot recovers them. Either way no
// admitted vote is lost.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	if s.flusher != nil {
		s.flusher.stop()
	}
	if err := s.mu.LockCtx(ctx); err != nil {
		return fmt.Errorf("server: drain: %w", err)
	}
	defer s.mu.Unlock()
	if s.stream.Pending() > 0 {
		if _, ferr := s.flushLocked(ctx); ferr != nil && ferr.Code != api.CodeTimeout {
			return fmt.Errorf("server: drain flush: %s", ferr.Message)
		}
	}
	if s.dur != nil {
		if err := s.dur.Commit(); err != nil {
			return fmt.Errorf("server: drain commit: %w", err)
		}
		if err := s.dur.Checkpoint(s.sys, s.stream.TotalVotes, s.stream.Flushes); err != nil {
			return fmt.Errorf("server: drain checkpoint: %w", err)
		}
		s.flushesSinceCkpt = 0
	}
	return nil
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.readOnly {
		writeErr(w, http.StatusNotImplemented, api.CodeReadOnly, "this process is a read replica; checkpoints run on its writer")
		return
	}
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, api.CodeDraining, "server is draining; shutdown takes its own checkpoint")
		return
	}
	if s.dur == nil {
		writeErr(w, http.StatusNotImplemented, api.CodeNotImplemented, "checkpoint: daemon is running without a data directory")
		return
	}
	if err := s.mu.LockCtx(r.Context()); err != nil {
		writeErr(w, http.StatusServiceUnavailable, api.CodeTimeout, "checkpoint: %v", err)
		return
	}
	err := s.dur.Checkpoint(s.sys, s.stream.TotalVotes, s.stream.Flushes)
	if err == nil {
		// Only a successful checkpoint restarts the periodic clock; a
		// failed one must not stretch the automatic interval.
		s.flushesSinceCkpt = 0
	}
	s.mu.Unlock()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, api.CodeInternal, "checkpoint: %v", err)
		return
	}
	ds := s.dur.Stats()
	writeJSON(w, http.StatusOK, api.CheckpointResponse{
		Checkpoints: int(ds.Checkpoints),
		WalSeq:      ds.LastCheckpointSeq,
		WalSegments: ds.Wal.Segments,
	})
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if s.readOnly {
		writeErr(w, http.StatusNotImplemented, api.CodeReadOnly, "this process is a read replica; flushes run on its writer")
		return
	}
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, api.CodeDraining, "server is draining; shutdown flushes the queue itself")
		return
	}
	if err := s.mu.LockCtx(r.Context()); err != nil {
		writeErr(w, http.StatusServiceUnavailable, api.CodeTimeout, "flush: %v", err)
		return
	}
	defer s.mu.Unlock()
	rep, ferr := s.flushLocked(r.Context())
	if ferr != nil {
		writeAPIErr(w, ferr)
		return
	}
	if s.dur != nil && rep != nil {
		if err := s.dur.Commit(); err != nil {
			writeErr(w, http.StatusServiceUnavailable, api.CodeUnavailable, "durability: %v", err)
			return
		}
	}
	writeJSON(w, http.StatusOK, VoteResponse{Pending: s.stream.Pending(), Flushed: rep != nil, Report: rep})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req ExplainRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err)
		return
	}
	ans, err := s.sys.AnswerOf(req.Doc)
	if err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "unknown document %d", req.Doc)
		return
	}
	top := req.Top
	if top == 0 {
		top = 5
	}
	if req.Query < 0 {
		// A query handle from /ask: explain lock-free against the snapshot,
		// enumerating the virtual query's walks over the immutable CSR.
		pq, ok := s.pending.Get(req.Query)
		if !ok {
			writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "unknown or expired query handle %d", req.Query)
			return
		}
		ids, ws, _, err := s.sys.Seed(pq.q)
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, api.CodeUnprocessable, "explain: %v", err)
			return
		}
		snap := s.sys.Engine.Serving()
		ex, err := snap.ExplainSeeded(ids, ws, ans, top)
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, api.CodeUnprocessable, "explain: %v", err)
			return
		}
		writeJSON(w, http.StatusOK, renderExplanation(ex, func(n graph.NodeID) string {
			if n == graph.None {
				return "q"
			}
			return snap.CSR().Name(n)
		}))
		return
	}
	// A materialized query node: walk the mutable graph under the writer
	// gate (legacy path, used for persisted/attached queries).
	if err := s.mu.LockCtx(r.Context()); err != nil {
		writeErr(w, http.StatusServiceUnavailable, api.CodeTimeout, "explain: %v", err)
		return
	}
	defer s.mu.Unlock()
	if !s.sys.Aug.IsQuery(req.Query) {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "node %d is not a query node", req.Query)
		return
	}
	ex, err := s.sys.Engine.Explain(req.Query, ans, top)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, api.CodeUnprocessable, "explain: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, renderExplanation(ex, s.sys.Aug.Name))
}

// renderExplanation converts an Explanation into the response shape,
// resolving node IDs through name.
func renderExplanation(ex *core.Explanation, name func(graph.NodeID) string) ExplainResponse {
	resp := ExplainResponse{Similarity: ex.Similarity, TotalPaths: ex.TotalPaths}
	for _, pc := range ex.Paths {
		names := make([]string, len(pc.Path.Nodes))
		for i, n := range pc.Path.Nodes {
			if nm := name(n); nm != "" {
				names[i] = nm
			} else {
				names[i] = fmt.Sprintf("#%d", n)
			}
		}
		resp.Paths = append(resp.Paths, ExplainPath{Nodes: names, Score: pc.Score, Fraction: pc.Fraction})
	}
	return resp
}
