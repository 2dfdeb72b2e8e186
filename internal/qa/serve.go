package qa

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"kgvote/internal/core"
	"kgvote/internal/graph"
	"kgvote/internal/pathidx"
	"kgvote/internal/telemetry"
)

// Metrics instruments the lock-free serving path. All fields are
// nil-safe: a system without metrics observes nothing.
type Metrics struct {
	// AskSeconds times one question end to end (seed + rank).
	AskSeconds *telemetry.Histogram
	// BatchSeconds times whole AskBatch calls.
	BatchSeconds *telemetry.Histogram
	// CacheHits / CacheMisses count rank-cache outcomes across
	// snapshots (process-lifetime totals; per-snapshot numbers live on
	// the snapshot's own cache, see core.GraphSnapshot.CacheStats).
	CacheHits   *telemetry.Counter
	CacheMisses *telemetry.Counter
}

// NewMetrics registers the qa serving series in reg (nil reg = nil
// metrics).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		AskSeconds: reg.Histogram("kgvote_qa_ask_seconds",
			"End-to-end latency of ranking one question against the serving snapshot.", nil, nil),
		BatchSeconds: reg.Histogram("kgvote_qa_askbatch_seconds",
			"Latency of whole AskBatch calls.", nil, nil),
		CacheHits: reg.Counter("kgvote_qa_rank_cache_hits_total",
			"Questions answered from the snapshot rank cache.", nil),
		CacheMisses: reg.Counter("kgvote_qa_rank_cache_misses_total",
			"Questions that required a fresh sparse sweep.", nil),
	}
}

// SetMetrics wires serving-path instrumentation; call once before
// serving. nil disables.
func (s *System) SetMetrics(m *Metrics) { s.metrics = m }

// This file is the system's lock-free serving path: questions are ranked
// against the engine's published GraphSnapshot as virtual query nodes
// (seed vectors) instead of being attached to the shared mutable graph.
// Any number of goroutines may call Seed, RankSnapshot, and AskBatch
// concurrently with a single writer voting and flushing — Build-time maps
// (vocabulary, entity IDs, document tables, answer list) are never
// mutated afterwards, and the graph itself is only read through the
// immutable snapshot.

// RankedDoc is one answer of a snapshot ranking resolved to its document.
type RankedDoc struct {
	Doc   int
	Title string
	Score float64
}

// Seed converts a question into the virtual-query seed vector that
// AttachQuestion would have produced as edge weights: entities in sorted
// name order, counts normalized to sum to 1. The returned key is a
// canonical cache key for the question (identical questions map to
// identical keys, so the snapshot rank cache can skip rescoring).
func (s *System) Seed(q Question) (ids []graph.NodeID, ws []float64, key string, err error) {
	ids, counts := entityVector(s, q.Entities)
	if len(ids) == 0 {
		return nil, nil, "", fmt.Errorf("qa: question %d has no known entities", q.ID)
	}
	var total float64
	for _, c := range counts {
		total += c
	}
	if total <= 0 {
		return nil, nil, "", fmt.Errorf("qa: question %d has all-zero entity counts", q.ID)
	}
	var b strings.Builder
	for i := range counts {
		counts[i] /= total
		b.WriteString(strconv.Itoa(int(ids[i])))
		b.WriteByte(':')
		b.WriteString(strconv.FormatFloat(counts[i], 'g', -1, 64))
		b.WriteByte(';')
	}
	return ids, counts, b.String(), nil
}

// RankSnapshot ranks every answer for the question against the engine's
// current serving snapshot, without attaching a query node or otherwise
// mutating the graph. It returns the snapshot used (for its epoch) and
// the top-K ranked answers; the slice may be shared with the snapshot's
// rank cache and must be treated as immutable.
func (s *System) RankSnapshot(q Question) (*core.GraphSnapshot, []pathidx.Ranked, error) {
	snap, ranked, _, err := s.RankSnapshotTraced(q, nil)
	return snap, ranked, err
}

// RankSnapshotTraced is RankSnapshot with per-stage span recording and
// a cache-hit report: the seed and rank stages land on tr (nil = no
// tracing), and serving metrics — ask latency, cache hit/miss — are
// observed when SetMetrics has wired them. This is the server's
// /ask path.
func (s *System) RankSnapshotTraced(q Question, tr *telemetry.Trace) (snap *core.GraphSnapshot, ranked []pathidx.Ranked, cacheHit bool, err error) {
	return s.RankSnapshotTracedCtx(context.Background(), q, tr)
}

// RankSnapshotTracedCtx is RankSnapshotTraced with deadline awareness: a
// context that expired before the rank stage (the expensive walk
// enumeration) aborts with the context error instead of burning snapshot
// scorer time on a request nobody is waiting for.
func (s *System) RankSnapshotTracedCtx(ctx context.Context, q Question, tr *telemetry.Trace) (snap *core.GraphSnapshot, ranked []pathidx.Ranked, cacheHit bool, err error) {
	m := s.metrics
	var stopAsk func()
	if m != nil {
		stopAsk = m.AskSeconds.Start()
	}
	stopSeed := tr.Stage("seed")
	ids, ws, key, err := s.Seed(q)
	stopSeed()
	if err != nil {
		return nil, nil, false, err
	}
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, nil, false, fmt.Errorf("qa: rank aborted: %w", cerr)
		}
	}
	snap = s.Engine.Serving()
	stopRank := tr.Stage("rank")
	ranked, cacheHit, err = snap.RankSeededCached(key, ids, ws, s.ServingAnswers(), s.Engine.Options().K)
	stopRank()
	if err != nil {
		return nil, nil, false, err
	}
	if m != nil {
		if cacheHit {
			m.CacheHits.Inc()
		} else {
			m.CacheMisses.Inc()
		}
		stopAsk()
	}
	return snap, ranked, cacheHit, nil
}

// AskBatch ranks a batch of questions concurrently, fanning the queries
// across the snapshot's scorer pool with the given number of workers
// (≤ 0 = GOMAXPROCS). Results are positional: out[i] is the top-K ranked
// document list of qs[i]. The first question error aborts the batch.
func (s *System) AskBatch(qs []Question, workers int) ([][]RankedDoc, error) {
	out := make([][]RankedDoc, len(qs))
	if len(qs) == 0 {
		return out, nil
	}
	if m := s.metrics; m != nil {
		defer m.BatchSeconds.Start()()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(qs) {
		workers = len(qs)
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		firstEr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				_, ranked, err := s.RankSnapshot(qs[i])
				if err != nil {
					errOnce.Do(func() { firstEr = fmt.Errorf("qa: batch question %d: %w", i, err) })
					return
				}
				docs := make([]RankedDoc, len(ranked))
				for j, r := range ranked {
					d := s.DocOf(r.Node)
					docs[j] = RankedDoc{Doc: d, Title: s.TitleOf(d), Score: r.Score}
				}
				out[i] = docs
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	return out, nil
}
