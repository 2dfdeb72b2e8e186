// Package api defines the wire contract of the kgvote HTTP service: the
// request and response bodies of every /v1 endpoint, the uniform error
// envelope, and the machine-readable error codes. It is the single source
// of truth shared by the server (internal/server), the benchmark's load
// generator (bench/), the thin HTTP client (api/client), and the examples.
//
// Versioning: every route is mounted under the /v1 prefix (and, on a
// multi-tenant daemon, under /v1/t/{tenant}); there are no unprefixed
// paths. See API.md.
package api

import (
	"kgvote/internal/core"
	"kgvote/internal/durable"
	"kgvote/internal/graph"
	"kgvote/internal/telemetry"
	"kgvote/internal/vote"
)

// QueryHandle identifies a served question for a follow-up /vote or
// /explain call. Handles from /ask are negative and opaque; non-negative
// values name materialized query nodes (persisted systems only).
type QueryHandle = graph.NodeID

// HealthBody is the GET /v1/healthz response.
type HealthBody struct {
	Status string `json:"status"`
}

// StatsBody is the GET /v1/stats response, organized as named sections
// behind stable keys: serving (always), durability / admission /
// reputation / flush / shard / replica (when configured), and tenants
// (multi-tenant daemons, un-scoped stats only).
type StatsBody struct {
	// Tenant names the tenant this stats body describes; empty on
	// un-tenanted daemons.
	Tenant    string          `json:"tenant,omitempty"`
	Serving   *ServingStats   `json:"serving,omitempty"`
	Tenants   *TenantsStats   `json:"tenants,omitempty"`
	Admission *AdmissionStats `json:"admission,omitempty"`
	// Reputation is present when the server runs with voter reputation
	// tracking enabled.
	Reputation *vote.ReputationStats `json:"reputation,omitempty"`
	Durability *durable.Stats        `json:"durability,omitempty"`
	Shard      *ShardStats           `json:"shard,omitempty"`
	Replica    *ReplicaStats         `json:"replica,omitempty"`
	// Flush carries cumulative flush-pipeline telemetry (enum-cache
	// effectiveness and per-stage wall-clock totals).
	Flush *FlushStats `json:"flush,omitempty"`
}

// ServingStats is the serving section of /v1/stats: the graph and vote
// counters every daemon reports.
type ServingStats struct {
	Entities       int    `json:"entities"`
	Edges          int    `json:"edges"`
	Documents      int    `json:"documents"`
	VotesAccepted  int    `json:"votes_accepted"`
	VotesPending   int    `json:"votes_pending"`
	Flushes        int    `json:"flushes"`
	Epoch          uint64 `json:"epoch"`
	PendingEvicted int64  `json:"pending_evicted"`
	Draining       bool   `json:"draining,omitempty"`
}

// TenantsStats is the tenants section of the un-scoped /v1/stats on a
// multi-tenant daemon: one summary row per hosted tenant plus the
// tenants that failed to recover at boot.
type TenantsStats struct {
	Count   int             `json:"count"`
	Failed  int             `json:"failed"`
	Tenants []TenantSummary `json:"tenants"`
}

// TenantSummary is one tenant's row in the tenants section and the
// admin list.
type TenantSummary struct {
	ID string `json:"id"`
	// State is "serving" or "failed" (boot recovery error; see Error).
	State string `json:"state"`
	// Error carries the recovery failure of a failed tenant.
	Error         string `json:"error,omitempty"`
	Documents     int    `json:"documents,omitempty"`
	VotesAccepted int    `json:"votes_accepted,omitempty"`
	VotesPending  int    `json:"votes_pending,omitempty"`
	Flushes       int    `json:"flushes,omitempty"`
	Epoch         uint64 `json:"epoch,omitempty"`
	Draining      bool   `json:"draining,omitempty"`
}

// TenantCreateRequest is the POST /v1/admin/tenants body.
type TenantCreateRequest struct {
	ID string `json:"id"`
}

// TenantListResponse is the GET /v1/admin/tenants response.
type TenantListResponse struct {
	Tenants []TenantSummary `json:"tenants"`
}

// TenantDeleteResponse is the DELETE /v1/admin/tenants/{id} response.
type TenantDeleteResponse struct {
	ID string `json:"id"`
	// Purged reports whether the tenant's data directory was removed
	// (?purge=1); otherwise the WAL and checkpoints stay on disk and the
	// next boot re-hosts the tenant.
	Purged bool `json:"purged"`
}

// FlushStats is the flush-pipeline section of /v1/stats: cumulative
// walk-enumeration cache counters and stage wall-clock totals across
// every flush since boot (the same data /metrics exposes as the
// kgvote_core_flush_stage_seconds histograms and enum-cache counters).
type FlushStats struct {
	EnumCacheHits   uint64  `json:"enum_cache_hits"`
	EnumCacheMisses uint64  `json:"enum_cache_misses"`
	EnumSeconds     float64 `json:"enum_seconds"`
	JudgeSeconds    float64 `json:"judge_seconds"`
	ClusterSeconds  float64 `json:"cluster_seconds"`
	SolveSeconds    float64 `json:"solve_seconds"`
	MergeSeconds    float64 `json:"merge_seconds"`
}

// ShardStats is the sharded-serving section of /v1/stats, present when
// the process runs as one shard of a partitioned cluster.
type ShardStats struct {
	// Index/Shards locate this process in the cluster.
	Index  int `json:"index"`
	Shards int `json:"shards"`
	// OwnedDocs is how many documents this shard serves and accepts
	// votes for.
	OwnedDocs int `json:"owned_docs"`
	// MapChecksum fingerprints the loaded shard map (hex CRC-32C);
	// processes disagreeing here are running split-brain.
	MapChecksum string `json:"map_checksum"`
	// RemoteApplied counts peer weight sets applied via POST /v1/weights.
	RemoteApplied int64 `json:"remote_applied"`
	// RemoteSeqs is the last applied replication sequence per source
	// shard.
	RemoteSeqs map[uint32]uint64 `json:"remote_seqs,omitempty"`
}

// ReplicaStats is the read-replica section of /v1/stats, present when
// the process runs with -replica, reported by the snapshot follower.
type ReplicaStats struct {
	// Following is the writer base URL this replica polls.
	Following string `json:"following"`
	// Epoch is the writer epoch of the last imported snapshot.
	Epoch uint64 `json:"epoch"`
	// Syncs counts imported snapshots since boot.
	Syncs int64 `json:"syncs"`
}

// AdmissionStats reports the admission controller's counters.
type AdmissionStats struct {
	QueueCapacity int   `json:"queue_capacity"`
	Admitted      int64 `json:"admitted"`
	Shed          int64 `json:"shed"`
	ShedQueueFull int64 `json:"shed_queue_full"`
	ShedRate      int64 `json:"shed_rate_limited"`
	ShedFlush     int64 `json:"shed_flush_backpressure"`
	Clients       int   `json:"clients"`
}

// AskRequest is the POST /v1/ask request body. Either Text (entity
// extraction) or Entities may be given.
type AskRequest struct {
	Text     string         `json:"text,omitempty"`
	Entities map[string]int `json:"entities,omitempty"`
}

// AskResult is one ranked answer.
type AskResult struct {
	Doc   int     `json:"doc"`
	Title string  `json:"title"`
	Score float64 `json:"score"`
}

// AskResponse is the POST /v1/ask response body. Query is an opaque
// handle identifying the served question for the follow-up /vote or
// /explain call; Epoch identifies the graph snapshot the ranking was
// computed from. Trace is present only when the request asked for it
// (?trace=1).
type AskResponse struct {
	Query   QueryHandle `json:"query"`
	Epoch   uint64      `json:"epoch"`
	Results []AskResult `json:"results"`
	// Entities are the resolved question entities the ranking was seeded
	// with. The router stores them with its handle so a later /v1/vote
	// can be forwarded to the owning shard even when that shard never saw
	// the ask.
	Entities map[string]int `json:"entities,omitempty"`
	// Partial is set by the router when one or more shards failed to
	// answer within the deadline: the results cover only the answering
	// shards' documents. Mirrored in the X-KG-Shards-Answered header.
	Partial bool `json:"partial,omitempty"`
	// ShardsAnswered/ShardsTotal detail the fan-out behind a routed
	// response (router only).
	ShardsAnswered int        `json:"shards_answered,omitempty"`
	ShardsTotal    int        `json:"shards_total,omitempty"`
	Trace          *TraceBody `json:"trace,omitempty"`
}

// AskBatchRequest is the POST /v1/askbatch request body: a read-only
// batch ranking. Batch results carry no vote handles; use /v1/ask when a
// follow-up vote is expected.
type AskBatchRequest struct {
	Questions []AskRequest `json:"questions"`
}

// AskBatchResponse is positional: Results[i] ranks Questions[i].
type AskBatchResponse struct {
	Epoch   uint64        `json:"epoch"`
	Results [][]AskResult `json:"results"`
	// Partial/ShardsAnswered/ShardsTotal mirror AskResponse (router only).
	Partial        bool `json:"partial,omitempty"`
	ShardsAnswered int  `json:"shards_answered,omitempty"`
	ShardsTotal    int  `json:"shards_total,omitempty"`
}

// TraceBody is the inline per-stage timing report of one /v1/ask?trace=1
// request.
type TraceBody struct {
	RequestID   string            `json:"request_id"`
	CacheHit    bool              `json:"cache_hit"`
	Stages      []telemetry.Stage `json:"stages"`
	TotalMicros float64           `json:"total_us"`
}

// VoteRequest is the POST /v1/vote request body: the query handle and
// ranked list from a prior /ask, plus the document the user found best.
type VoteRequest struct {
	Query   QueryHandle `json:"query"`
	Ranked  []int       `json:"ranked"` // document IDs in served order
	BestDoc int         `json:"best_doc"`
	Weight  float64     `json:"weight,omitempty"`
	// Voter identifies the vote's author for reputation scoring (at most
	// 64 bytes). Empty means anonymous: the vote is accepted but exempt
	// from reputation tracking and quarantine.
	Voter string `json:"voter,omitempty"`
	// Entities, when present, let the server materialize the query node
	// directly when Query is graph.None or names an expired/foreign
	// handle. The router always forwards votes with the entities of the
	// original ask, so a vote lands on the owning shard even though that
	// shard may never have served the ask.
	Entities map[string]int `json:"entities,omitempty"`
}

// VoteResponse reports what happened to the vote. In asynchronous-flush
// mode Flushed is always false: the background scheduler runs the solve
// after the response is written.
type VoteResponse struct {
	Kind    string       `json:"kind,omitempty"`
	Pending int          `json:"pending"`
	Flushed bool         `json:"flushed"`
	Report  *core.Report `json:"report,omitempty"`
	// Quarantined is advisory: the vote was accepted and logged, but its
	// voter is currently quarantined, so it will be excluded from batch
	// solves unless the voter's reputation recovers by flush time.
	Quarantined bool `json:"quarantined,omitempty"`
}

// ExplainRequest is the POST /v1/explain request body.
type ExplainRequest struct {
	Query QueryHandle `json:"query"`
	Doc   int         `json:"doc"`
	Top   int         `json:"top,omitempty"`
}

// ExplainResponse decomposes the similarity into walks rendered as node
// name sequences.
type ExplainResponse struct {
	Similarity float64       `json:"similarity"`
	TotalPaths int           `json:"total_paths"`
	Paths      []ExplainPath `json:"paths"`
}

// ExplainPath is one walk with its contribution.
type ExplainPath struct {
	Nodes    []string `json:"nodes"`
	Score    float64  `json:"score"`
	Fraction float64  `json:"fraction"`
}

// CheckpointResponse is the POST /v1/checkpoint response body.
type CheckpointResponse struct {
	Checkpoints int    `json:"checkpoints"`
	WalSeq      uint64 `json:"wal_seq"`
	WalSegments int    `json:"wal_segments"`
}

// WeightEdge is one absolute edge weight on the wire (replication push).
// The weight is a float64 whose JSON round-trips bit-exactly (Go emits
// the shortest representation that parses back to the same bits).
type WeightEdge struct {
	From   int32   `json:"from"`
	To     int32   `json:"to"`
	Weight float64 `json:"w"`
}

// WeightEdgesFromCore converts an applied weight set to wire form.
func WeightEdgesFromCore(ws []core.WeightChange) []WeightEdge {
	out := make([]WeightEdge, len(ws))
	for i, wc := range ws {
		out[i] = WeightEdge{From: int32(wc.From), To: int32(wc.To), Weight: wc.Weight}
	}
	return out
}

// WeightEdgesToCore converts wire edges back to core form.
func WeightEdgesToCore(ws []WeightEdge) []core.WeightChange {
	out := make([]core.WeightChange, len(ws))
	for i, we := range ws {
		out[i] = core.WeightChange{From: graph.NodeID(we.From), To: graph.NodeID(we.To), Weight: we.Weight}
	}
	return out
}

// WeightPushRequest is the POST /v1/weights body: one shard replicating
// an applied absolute weight set to a peer. Seq is a per-source
// monotonic sequence; the receiver applies Seq == last+1, answers
// already-applied sequences idempotently, and rejects gaps with a 409
// weights_gap envelope — the source then re-sends a Full export, which
// supersedes every missed delta because the weights are absolute.
type WeightPushRequest struct {
	Source int          `json:"source"`
	Seq    uint64       `json:"seq"`
	Full   bool         `json:"full,omitempty"`
	Set    []WeightEdge `json:"set"`
}

// WeightPushResponse acknowledges an applied (or skipped) push.
type WeightPushResponse struct {
	Applied int    `json:"applied"` // edges written (0 = stale duplicate)
	Seq     uint64 `json:"seq"`     // receiver's sequence for the source after this call
}

// RouterShard is one shard's view in the router's GET /v1/stats.
type RouterShard struct {
	Index   int        `json:"index"`
	Addr    string     `json:"addr"`
	Replica bool       `json:"replica,omitempty"`
	Healthy bool       `json:"healthy"`
	Stats   *StatsBody `json:"stats,omitempty"` // absent when unreachable
}

// RouterStats is the router's GET /v1/stats response: the cluster map
// plus each endpoint's own stats.
type RouterStats struct {
	Shards        int           `json:"shards"`
	ShardsHealthy int           `json:"shards_healthy"` // shards with >= 1 healthy endpoint
	MapChecksum   string        `json:"map_checksum"`
	Endpoints     []RouterShard `json:"endpoints"`
}

// ShardFlush is one shard's outcome in a routed POST /v1/flush.
type ShardFlush struct {
	Index   int    `json:"index"`
	Pending int    `json:"pending"`
	Flushed bool   `json:"flushed"`
	Error   string `json:"error,omitempty"`
}

// ClusterFlushResponse is the router's POST /v1/flush response: the
// flush fanned out to every shard writer.
type ClusterFlushResponse struct {
	Shards []ShardFlush `json:"shards"`
}
