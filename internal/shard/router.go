package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kgvote/api"
	"kgvote/internal/graph"
	"kgvote/internal/lru"
)

// The router is the cluster's stateless front door: it fans /v1/ask (and
// /v1/askbatch) out to every shard, merges the per-shard ranked lists
// into one global top-k, and routes /v1/vote to the shard that owns the
// voted document. Per-shard reads are hedged — the writer is tried
// first (its answer carries a reusable vote handle), and if it has not
// answered within HedgeAfter the request is raced against the shard's
// snapshot replicas — and a shard that answers nothing within the
// deadline degrades the response to Partial instead of failing it.
//
// The router's only state is soft: endpoint health bits (passive
// mark-down on transport errors, active /v1/healthz probe revival) and
// an LRU of served ask handles, kept so a follow-up vote can travel
// with the original question's entities. Losing a router loses nothing.

// routerHandleCap bounds the served-ask handle table.
const routerHandleCap = 1 << 16

// ShardEndpoints names one shard's processes: the single writer and any
// read-only snapshot replicas, each as host:port or base URL.
type ShardEndpoints struct {
	Writer   string
	Replicas []string
}

// RouterOptions configures a Router.
type RouterOptions struct {
	// Map is the cluster's shard map; len(Shards) must equal Map.Shards.
	Map *Map
	// Shards lists each shard's endpoints, indexed by shard.
	Shards []ShardEndpoints
	// TopK is the merged result length (0 = 10).
	TopK int
	// Timeout bounds each per-shard fan-out leg (0 = 5s).
	Timeout time.Duration
	// HedgeAfter is how long the first endpoint may stay silent before
	// the request is raced against the next one (0 = 75ms).
	HedgeAfter time.Duration
	// ProbeEvery is the health-probe interval for marked-down endpoints
	// (0 = 2s).
	ProbeEvery time.Duration
	// Client is the HTTP client for all shard traffic (nil = a default
	// with the fan-out timeout).
	Client *http.Client
	// HandleCap bounds the served-ask handle table (0 = 2^16).
	HandleCap int
}

// endpoint is one shard process plus its health bit.
type endpoint struct {
	addr    string
	index   int // owning shard
	replica bool
	healthy atomic.Bool
}

// shardClient is one shard's endpoint set, writer first.
type shardClient struct {
	index  int
	writer *endpoint
	eps    []*endpoint
}

// ordered returns the endpoints to try, healthy before marked-down,
// writer before replicas within each class.
func (sc *shardClient) ordered() []*endpoint {
	out := make([]*endpoint, 0, len(sc.eps))
	for _, ep := range sc.eps {
		if ep.healthy.Load() {
			out = append(out, ep)
		}
	}
	for _, ep := range sc.eps {
		if !ep.healthy.Load() {
			out = append(out, ep)
		}
	}
	return out
}

// routedAsk is what the router remembers about one served ask: the
// resolved entities (so a vote can be forwarded to a shard that never
// saw the ask) and, per shard whose *writer* answered, that writer's own
// handle (so the owner resolves the vote exactly as a single process
// would).
type routedAsk struct {
	entities map[string]int
	handles  map[int]graph.NodeID
}

// Router fans the /v1 read surface out across the cluster and routes
// writes to document owners. Create with NewRouter, serve Handler(),
// Close when done.
type Router struct {
	opt        RouterOptions
	client     *http.Client
	shards     []*shardClient
	handles    *lru.Cache[graph.NodeID, *routedAsk]
	nextHandle atomic.Int32
	stop       chan struct{}
	wg         sync.WaitGroup
}

// NewRouter validates the topology and starts the health-probe loop.
func NewRouter(opt RouterOptions) (*Router, error) {
	if opt.Map == nil {
		return nil, fmt.Errorf("shard: router needs a shard map")
	}
	if len(opt.Shards) != opt.Map.Shards {
		return nil, fmt.Errorf("shard: router has %d endpoint sets for %d shards", len(opt.Shards), opt.Map.Shards)
	}
	if opt.TopK <= 0 {
		opt.TopK = 10
	}
	if opt.Timeout <= 0 {
		opt.Timeout = 5 * time.Second
	}
	if opt.HedgeAfter <= 0 {
		opt.HedgeAfter = 75 * time.Millisecond
	}
	if opt.ProbeEvery <= 0 {
		opt.ProbeEvery = 2 * time.Second
	}
	if opt.HandleCap <= 0 {
		opt.HandleCap = routerHandleCap
	}
	client := opt.Client
	if client == nil {
		client = &http.Client{Timeout: opt.Timeout}
	}
	rt := &Router{
		opt:     opt,
		client:  client,
		handles: lru.New[graph.NodeID, *routedAsk](opt.HandleCap),
		stop:    make(chan struct{}),
	}
	for i, se := range opt.Shards {
		if se.Writer == "" {
			return nil, fmt.Errorf("shard: shard %d has no writer endpoint", i)
		}
		sc := &shardClient{index: i}
		w := &endpoint{addr: baseURL(se.Writer), index: i}
		w.healthy.Store(true)
		sc.writer = w
		sc.eps = append(sc.eps, w)
		for _, addr := range se.Replicas {
			rep := &endpoint{addr: baseURL(addr), index: i, replica: true}
			rep.healthy.Store(true)
			sc.eps = append(sc.eps, rep)
		}
		rt.shards = append(rt.shards, sc)
	}
	rt.nextHandle.Store(int32(graph.None))
	rt.wg.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// Close stops the health-probe loop.
func (rt *Router) Close() {
	close(rt.stop)
	rt.wg.Wait()
}

// probeLoop revives marked-down endpoints (and demotes silently dead
// ones) by polling /v1/healthz. Passive traffic marks endpoints down the
// moment a transport error surfaces; the probe is how they come back.
func (rt *Router) probeLoop() {
	defer rt.wg.Done()
	tick := time.NewTicker(rt.opt.ProbeEvery)
	defer tick.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-tick.C:
			for _, sc := range rt.shards {
				for _, ep := range sc.eps {
					ep.healthy.Store(rt.probe(ep))
				}
			}
		}
	}
}

func (rt *Router) probe(ep *endpoint) bool {
	ctx, cancel := context.WithTimeout(context.Background(), rt.opt.ProbeEvery)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ep.addr+"/v1/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// Handler returns the router's mux: the /v1 read-and-vote surface, fanned
// across the cluster.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", rt.handleHealth)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.HandleFunc("POST /v1/ask", rt.handleAsk)
	mux.HandleFunc("POST /v1/askbatch", rt.handleAskBatch)
	mux.HandleFunc("POST /v1/vote", rt.handleVote)
	mux.HandleFunc("POST /v1/flush", rt.handleFlush)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, api.ErrorBody{Error: api.Error{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// postJSON posts body to ep and decodes a 2xx response into out. A non-2xx
// envelope comes back as *api.Error (terminal: the peer answered, it just
// said no); a transport failure marks the endpoint down and comes back as
// a plain error (retriable on another endpoint).
func (rt *Router) postJSON(ctx context.Context, ep *endpoint, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, "POST", ep.addr+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		ep.healthy.Store(false)
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var envelope api.ErrorBody
		if derr := json.NewDecoder(resp.Body).Decode(&envelope); derr != nil || envelope.Error.Code == "" {
			return fmt.Errorf("shard %d (%s): http %d", ep.index, ep.addr, resp.StatusCode)
		}
		envelope.Error.HTTPStatus = resp.StatusCode
		return &envelope.Error
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// hedged runs do against eps in order, racing a new attempt whenever the
// previous ones have been silent for hedgeAfter (or failed outright).
// The first success wins; an *api.Error is terminal (the shard answered).
func hedged[T any](ctx context.Context, eps []*endpoint, hedgeAfter time.Duration,
	do func(context.Context, *endpoint) (T, error)) (T, *endpoint, error) {
	var zero T
	type attempt struct {
		v   T
		ep  *endpoint
		err error
	}
	results := make(chan attempt, len(eps))
	launch := func(ep *endpoint) {
		go func() {
			v, err := do(ctx, ep)
			results <- attempt{v, ep, err}
		}()
	}
	launch(eps[0])
	inflight, next := 1, 1
	var lastErr error
	for {
		var hedge <-chan time.Time
		var tm *time.Timer
		if next < len(eps) {
			tm = time.NewTimer(hedgeAfter)
			hedge = tm.C
		}
		select {
		case a := <-results:
			if tm != nil {
				tm.Stop()
			}
			inflight--
			if a.err == nil {
				return a.v, a.ep, nil
			}
			if apiErr := (*api.Error)(nil); asAPIError(a.err, &apiErr) {
				return zero, a.ep, apiErr
			}
			lastErr = a.err
			if next < len(eps) {
				launch(eps[next])
				next++
				inflight++
			}
			if inflight == 0 {
				return zero, nil, lastErr
			}
		case <-hedge:
			launch(eps[next])
			next++
			inflight++
		case <-ctx.Done():
			if tm != nil {
				tm.Stop()
			}
			return zero, nil, ctx.Err()
		}
	}
}

// asAPIError is errors.As for *api.Error without importing errors twice
// in hot paths — the router never wraps, so a direct type check is exact.
func asAPIError(err error, out **api.Error) bool {
	e, ok := err.(*api.Error)
	if ok {
		*out = e
	}
	return ok
}

// shardAsk is one shard's contribution to a fanned-out ask.
type shardAsk struct {
	index int
	resp  *api.AskResponse
	ep    *endpoint
	err   error
}

// fanAsk sends payload to every shard's /v1/ask with hedging and collects
// the per-shard outcomes.
func (rt *Router) fanAsk(ctx context.Context, path string, payload []byte) []shardAsk {
	out := make([]shardAsk, len(rt.shards))
	var wg sync.WaitGroup
	for i, sc := range rt.shards {
		wg.Add(1)
		go func(i int, sc *shardClient) {
			defer wg.Done()
			legCtx, cancel := context.WithTimeout(ctx, rt.opt.Timeout)
			defer cancel()
			resp, ep, err := hedged(legCtx, sc.ordered(), rt.opt.HedgeAfter,
				func(ctx context.Context, ep *endpoint) (*api.AskResponse, error) {
					var r api.AskResponse
					if err := rt.postJSON(ctx, ep, path, payload, &r); err != nil {
						return nil, err
					}
					return &r, nil
				})
			out[i] = shardAsk{index: i, resp: resp, ep: ep, err: err}
		}(i, sc)
	}
	wg.Wait()
	return out
}

func (rt *Router) handleAsk(w http.ResponseWriter, r *http.Request) {
	var req api.AskRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err)
		return
	}
	payload, err := json.Marshal(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err)
		return
	}
	answers := rt.fanAsk(r.Context(), "/v1/ask", payload)
	var (
		lists    [][]api.AskResult
		answered int
		epoch    uint64
		firstErr error
	)
	ra := &routedAsk{handles: make(map[int]graph.NodeID)}
	for _, a := range answers {
		if a.err != nil {
			if firstErr == nil {
				firstErr = a.err
			}
			continue
		}
		answered++
		lists = append(lists, a.resp.Results)
		if a.resp.Epoch > epoch {
			epoch = a.resp.Epoch
		}
		if ra.entities == nil && len(a.resp.Entities) > 0 {
			ra.entities = a.resp.Entities
		}
		if a.ep != nil && !a.ep.replica {
			// Only a writer's handle is reusable for the follow-up vote:
			// a replica's pending table is not visible to its writer.
			ra.handles[a.index] = a.resp.Query
		}
	}
	if answered == 0 {
		// A terminal per-shard envelope (bad question) beats a generic
		// unavailable: every shard would have said the same thing.
		if apiErr := (*api.Error)(nil); asAPIError(firstErr, &apiErr) {
			status := apiErr.HTTPStatus
			if status == 0 {
				status = http.StatusServiceUnavailable
			}
			writeJSON(w, status, api.ErrorBody{Error: *apiErr})
			return
		}
		writeErr(w, http.StatusServiceUnavailable, api.CodeUnavailable, "ask: no shard answered: %v", firstErr)
		return
	}
	handle := graph.NodeID(rt.nextHandle.Add(-1))
	rt.handles.Add(handle, ra)
	resp := api.AskResponse{
		Query:          handle,
		Epoch:          epoch,
		Results:        MergeTopK(lists, rt.opt.TopK),
		Entities:       ra.entities,
		Partial:        answered < len(rt.shards),
		ShardsAnswered: answered,
		ShardsTotal:    len(rt.shards),
	}
	w.Header().Set("X-KG-Shards-Answered", fmt.Sprintf("%d/%d", answered, len(rt.shards)))
	writeJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleAskBatch(w http.ResponseWriter, r *http.Request) {
	var req api.AskBatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Questions) == 0 {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "askbatch: empty batch")
		return
	}
	payload, err := json.Marshal(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err)
		return
	}
	out := make([]shardBatch, len(rt.shards))
	var wg sync.WaitGroup
	for i, sc := range rt.shards {
		wg.Add(1)
		go func(i int, sc *shardClient) {
			defer wg.Done()
			legCtx, cancel := context.WithTimeout(r.Context(), rt.opt.Timeout)
			defer cancel()
			resp, _, err := hedged(legCtx, sc.ordered(), rt.opt.HedgeAfter,
				func(ctx context.Context, ep *endpoint) (*api.AskBatchResponse, error) {
					var b api.AskBatchResponse
					if err := rt.postJSON(ctx, ep, "/v1/askbatch", payload, &b); err != nil {
						return nil, err
					}
					return &b, nil
				})
			out[i] = shardBatch{resp: resp, err: err}
		}(i, sc)
	}
	wg.Wait()
	var (
		answered int
		epoch    uint64
		firstErr error
	)
	for _, b := range out {
		if b.err != nil {
			if firstErr == nil {
				firstErr = b.err
			}
			continue
		}
		answered++
		if b.resp.Epoch > epoch {
			epoch = b.resp.Epoch
		}
	}
	if answered == 0 {
		if apiErr := (*api.Error)(nil); asAPIError(firstErr, &apiErr) {
			status := apiErr.HTTPStatus
			if status == 0 {
				status = http.StatusServiceUnavailable
			}
			writeJSON(w, status, api.ErrorBody{Error: *apiErr})
			return
		}
		writeErr(w, http.StatusServiceUnavailable, api.CodeUnavailable, "askbatch: no shard answered: %v", firstErr)
		return
	}
	resp := api.AskBatchResponse{
		Epoch:          epoch,
		Results:        make([][]api.AskResult, len(req.Questions)),
		Partial:        answered < len(rt.shards),
		ShardsAnswered: answered,
		ShardsTotal:    len(rt.shards),
	}
	for qi := range req.Questions {
		var lists [][]api.AskResult
		for _, b := range out {
			if b.err == nil && qi < len(b.resp.Results) {
				lists = append(lists, b.resp.Results[qi])
			}
		}
		resp.Results[qi] = MergeTopK(lists, rt.opt.TopK)
	}
	w.Header().Set("X-KG-Shards-Answered", fmt.Sprintf("%d/%d", answered, len(rt.shards)))
	writeJSON(w, http.StatusOK, resp)
}

type shardBatch struct {
	resp *api.AskBatchResponse
	err  error
}

// handleVote routes the vote to the shard owning the voted document,
// rewriting the router handle into either the owner writer's own handle
// (when that writer answered the ask — exact single-process semantics)
// or graph.None plus the original question's entities (the owner
// materializes the query one-shot). The owner's response — success or
// envelope, including Retry-After — is passed through verbatim.
func (rt *Router) handleVote(w http.ResponseWriter, r *http.Request) {
	var req api.VoteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err)
		return
	}
	owner := rt.opt.Map.Owner(req.BestDoc)
	if req.Query < 0 {
		if ra, ok := rt.handles.Get(req.Query); ok {
			if h, ok := ra.handles[owner]; ok {
				req.Query = h
			} else {
				req.Query = graph.None
			}
			if len(req.Entities) == 0 {
				req.Entities = ra.entities
			}
		} else if len(req.Entities) == 0 {
			writeErr(w, http.StatusBadRequest, api.CodeBadRequest,
				"unknown or expired query handle %d (and no entities to re-materialize from)", req.Query)
			return
		} else {
			req.Query = graph.None
		}
	}
	payload, err := json.Marshal(req)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, api.CodeInternal, "vote: %v", err)
		return
	}
	ep := rt.shards[owner].writer
	ctx, cancel := context.WithTimeout(r.Context(), rt.opt.Timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, "POST", ep.addr+"/v1/vote", bytes.NewReader(payload))
	if err != nil {
		writeErr(w, http.StatusInternalServerError, api.CodeInternal, "vote: %v", err)
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	if id := r.Header.Get("X-Client-ID"); id != "" {
		hreq.Header.Set("X-Client-ID", id) // preserve admission fairness keys
	}
	resp, err := rt.client.Do(hreq)
	if err != nil {
		ep.healthy.Store(false)
		writeErr(w, http.StatusServiceUnavailable, api.CodeUnavailable, "vote: shard %d writer unreachable: %v", owner, err)
		return
	}
	defer resp.Body.Close()
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// handleFlush fans the flush to every shard writer and reports each
// outcome; a single dead shard does not fail the cluster flush.
func (rt *Router) handleFlush(w http.ResponseWriter, r *http.Request) {
	resp := api.ClusterFlushResponse{Shards: make([]api.ShardFlush, len(rt.shards))}
	var wg sync.WaitGroup
	for i, sc := range rt.shards {
		wg.Add(1)
		go func(i int, sc *shardClient) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), rt.opt.Timeout)
			defer cancel()
			sf := api.ShardFlush{Index: i}
			var vr api.VoteResponse
			if err := rt.postJSON(ctx, sc.writer, "/v1/flush", []byte("{}"), &vr); err != nil {
				sf.Error = err.Error()
			} else {
				sf.Pending = vr.Pending
				sf.Flushed = vr.Flushed
			}
			resp.Shards[i] = sf
		}(i, sc)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := api.RouterStats{
		Shards:      len(rt.shards),
		MapChecksum: fmt.Sprintf("%08x", rt.opt.Map.Checksum()),
	}
	type slot struct {
		sh api.RouterShard
	}
	var (
		mu    sync.Mutex
		wg    sync.WaitGroup
		slots []*slot
	)
	for _, sc := range rt.shards {
		for _, ep := range sc.eps {
			s := &slot{sh: api.RouterShard{Index: ep.index, Addr: ep.addr, Replica: ep.replica}}
			slots = append(slots, s)
			wg.Add(1)
			go func(ep *endpoint, s *slot) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(r.Context(), rt.opt.Timeout)
				defer cancel()
				req, err := http.NewRequestWithContext(ctx, "GET", ep.addr+"/v1/stats", nil)
				if err != nil {
					return
				}
				resp, err := rt.client.Do(req)
				if err != nil {
					return
				}
				defer resp.Body.Close()
				var body api.StatsBody
				if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&body) == nil {
					mu.Lock()
					s.sh.Healthy = true
					s.sh.Stats = &body
					mu.Unlock()
				}
			}(ep, s)
		}
	}
	wg.Wait()
	healthyShards := make(map[int]bool)
	for _, s := range slots {
		stats.Endpoints = append(stats.Endpoints, s.sh)
		if s.sh.Healthy {
			healthyShards[s.sh.Index] = true
		}
	}
	stats.ShardsHealthy = len(healthyShards)
	writeJSON(w, http.StatusOK, stats)
}

func (rt *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	healthy := 0
	for _, sc := range rt.shards {
		for _, ep := range sc.eps {
			if ep.healthy.Load() {
				healthy++
				break
			}
		}
	}
	status := "ok"
	if healthy < len(rt.shards) {
		status = "degraded"
	}
	w.Header().Set("X-KG-Shards-Answered", strconv.Itoa(healthy)+"/"+strconv.Itoa(len(rt.shards)))
	writeJSON(w, http.StatusOK, api.HealthBody{Status: status})
}
