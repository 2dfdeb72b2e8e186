// Command kgvoted serves a Q&A system over HTTP: POST /v1/ask ranks
// answers, POST /v1/vote records feedback (optimizing the knowledge
// graph in batches), POST /v1/explain decomposes a score into its graph
// walks, and GET /v1/stats reports counters. Every route lives under
// /v1; see API.md for the wire contract.
//
// With -data-dir the daemon is durable: every accepted vote is written to
// a write-ahead log before it is applied, full-state checkpoints are taken
// periodically and on shutdown, and a restart after a crash — including
// SIGKILL — reconstructs the exact pre-crash state (rankings, counters,
// and votes still pending in the current batch). See DESIGN.md §9.
//
// The write path is overload-protected (DESIGN.md §12): -queue-cap
// bounds the pending-vote queue, -vote-rate/-vote-burst rate-limit each
// client, and excess load is shed with 429 + Retry-After. SIGINT/SIGTERM
// triggers a graceful drain: admission stops (writes answer
// 503/draining, reads keep serving), in-flight requests finish, queued
// votes are flushed, and — when durable — a final checkpoint lands
// before exit, so no admitted vote is ever lost.
//
// Usage:
//
//	kgvoted -addr :8080 -corpus corpus.json -batch 10
//	kgvoted -addr :8080 -docs 200            # synthetic corpus
//	kgvoted -addr :8080 -data-dir /var/lib/kgvote -fsync always
//	kgvoted -addr :8080 -queue-cap 1024 -vote-rate 50 -async-flush
//
// With -tenants the process hosts one such stack per tenant behind
// /v1/t/{tenant} (DESIGN.md §17); -queue-cap and -vote-rate then bound
// each tenant's stack. With -shard-map it serves one shard of a
// partitioned cluster, and -follow <writer> makes it a read-only replica
// of that shard's writer (DESIGN.md §14).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"kgvote/api"
	"kgvote/internal/admit"
	"kgvote/internal/core"
	"kgvote/internal/durable"
	"kgvote/internal/qa"
	"kgvote/internal/server"
	"kgvote/internal/shard"
	"kgvote/internal/synth"
	"kgvote/internal/telemetry"
	"kgvote/internal/tenant"
	"kgvote/internal/vote"
	"kgvote/internal/wal"
)

type config struct {
	addr       string
	corpusPath string
	docs       int
	batch      int
	k, l       int
	seed       int64
	solverName string
	workers    int

	dataDir         string
	fsync           string
	syncEvery       time.Duration
	checkpointEvery int

	queueCap     int
	voteRate     float64
	voteBurst    float64
	reputation   bool
	asyncFlush   bool
	flushTimeout time.Duration
	drainTimeout time.Duration

	shardMap    string
	shardIndex  int
	shardInit   int
	peers       string
	follow      string
	followEvery time.Duration

	tenants string

	metrics bool
	slowMS  int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.corpusPath, "corpus", "", "corpus JSON path (default: synthesize)")
	flag.IntVar(&cfg.docs, "docs", 200, "synthetic corpus size when -corpus is not given")
	flag.IntVar(&cfg.batch, "batch", 10, "votes per optimization batch")
	flag.IntVar(&cfg.k, "k", 10, "answer-list length")
	flag.IntVar(&cfg.l, "l", 4, "path-length pruning threshold")
	flag.Int64Var(&cfg.seed, "seed", 1, "random seed for the synthetic corpus")
	flag.StringVar(&cfg.solverName, "solver", "multi", "batch solver: multi, sm, or single")
	flag.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "flush-pipeline concurrency: enumeration, judgment, clustering, and per-cluster solves fan out over this many goroutines")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "durability directory: WAL + checkpoints + crash recovery")
	flag.StringVar(&cfg.fsync, "fsync", "always", "WAL fsync policy with -data-dir: always, interval, or never")
	flag.DurationVar(&cfg.syncEvery, "sync-every", 50*time.Millisecond, "fsync staleness bound under -fsync interval")
	flag.IntVar(&cfg.checkpointEvery, "checkpoint-every", 16, "checkpoint after every N optimization flushes (0 disables periodic checkpoints)")
	flag.IntVar(&cfg.queueCap, "queue-cap", 4096, "pending-vote queue bound; excess /v1/vote load is shed with 429 (0 disables admission control)")
	flag.Float64Var(&cfg.voteRate, "vote-rate", 0, "per-client votes/sec admitted in steady state (0 disables per-client rate limiting)")
	flag.Float64Var(&cfg.voteBurst, "vote-burst", 0, "per-client vote burst size (0 = max(1, -vote-rate))")
	flag.BoolVar(&cfg.reputation, "reputation", false, "track per-voter reputation and exclude quarantined voters' votes from batch solves (DESIGN.md §15)")
	flag.BoolVar(&cfg.asyncFlush, "async-flush", false, "solve batches on a background scheduler instead of inline on the filling vote")
	flag.DurationVar(&cfg.flushTimeout, "flush-timeout", 10*time.Second, "deadline per background flush solve; on expiry the best-so-far weights apply (0 = unbounded)")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "graceful-shutdown budget: in-flight requests, the final flush, and the shutdown checkpoint must finish within this")
	flag.StringVar(&cfg.shardMap, "shard-map", "", "shard map file: run as one shard of a partitioned cluster (DESIGN.md §14)")
	flag.IntVar(&cfg.shardIndex, "shard-index", 0, "this process's shard index within -shard-map")
	flag.IntVar(&cfg.shardInit, "shard-init", 0, "create -shard-map for N shards if the file does not exist (seeded by -seed; all processes must agree)")
	flag.StringVar(&cfg.peers, "peers", "", "comma-separated peer shard writer base URLs: replicate each flush's weight set to them")
	flag.StringVar(&cfg.follow, "follow", "", "writer base URL this replica polls for snapshots")
	flag.DurationVar(&cfg.followEvery, "follow-every", 500*time.Millisecond, "replica snapshot poll interval")
	flag.StringVar(&cfg.tenants, "tenants", "", "comma-separated tenant ids: host each as an independent stack behind /v1/t/{tenant} (DESIGN.md §17); a default tenant serving the un-prefixed /v1 routes always exists")
	flag.BoolVar(&cfg.metrics, "metrics", true, "serve Prometheus metrics at GET /metrics and profiling at /debug/pprof/")
	flag.IntVar(&cfg.slowMS, "slow-ms", 1000, "log requests slower than this many milliseconds, with their stage trace (0 disables)")
	flag.Parse()
	if err := serve(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "kgvoted:", err)
		os.Exit(1)
	}
}

// serve checks cfg, builds the single stack or (with -tenants) the
// tenant registry, and runs it until SIGINT/SIGTERM. Every bad flag
// combination is rejected before anything is built or bound.
func serve(cfg config) error {
	var solver core.StreamSolver
	switch cfg.solverName {
	case "multi":
		solver = core.StreamMulti
	case "sm":
		solver = core.StreamSplitMerge
	case "single":
		solver = core.StreamSingle
	default:
		return fmt.Errorf("unknown solver %q (multi, sm, single)", cfg.solverName)
	}
	ids := splitAddrs(cfg.tenants)
	if cfg.tenants != "" && (cfg.shardMap != "" || cfg.peers != "" || cfg.follow != "") {
		return errors.New("-tenants excludes -shard-map, -peers, and -follow (shard a tenant by running it as its own cluster)")
	}
	for _, id := range ids {
		if !tenant.ValidID(id) || id == "admin" {
			return fmt.Errorf("-tenants: invalid tenant id %q (want ^[a-z0-9][a-z0-9_-]{0,63}$, not \"admin\")", id)
		}
	}
	if cfg.follow != "" {
		if cfg.shardMap == "" {
			return errors.New("-follow requires -shard-map (the replica serves its writer's document slice)")
		}
		if cfg.dataDir != "" || cfg.peers != "" {
			return errors.New("-follow state is ephemeral (re-synced from the writer); it excludes -data-dir and -peers")
		}
	}
	if cfg.peers != "" && cfg.shardMap == "" {
		return errors.New("-peers requires -shard-map")
	}
	smap, err := loadShardMap(cfg)
	if err != nil {
		return err
	}

	var reg *telemetry.Registry
	if cfg.metrics {
		reg = telemetry.NewRegistry()
	}
	var repCfg *vote.ReputationConfig
	if cfg.reputation {
		repCfg = &vote.ReputationConfig{}
	}
	base := server.Options{
		BatchSize:       cfg.batch,
		Solver:          solver,
		CheckpointEvery: cfg.checkpointEvery,
		Admission: admit.Config{
			Capacity:       cfg.queueCap,
			PerClientRate:  cfg.voteRate,
			PerClientBurst: cfg.voteBurst,
		},
		Reputation:    repCfg,
		AsyncFlush:    cfg.asyncFlush,
		FlushTimeout:  cfg.flushTimeout,
		Telemetry:     reg,
		SlowThreshold: time.Duration(cfg.slowMS) * time.Millisecond,
	}

	if cfg.tenants != "" {
		// Each tenant gets its own stack under <data-dir>/tenants/<id>,
		// with a tenant-labelled view of the shared telemetry registry.
		// Only the default tenant mounts the process-wide /metrics and
		// pprof, and embeds the registry summary (late-bound treg) in
		// its stats.
		var treg *tenant.Registry
		factory := func(id, dir string) (*server.Server, func() error, error) {
			o := base
			o.Tenant = id
			o.Telemetry = reg.WithLabels(telemetry.Labels{"tenant": id})
			if id == server.DefaultTenant {
				o.Pprof = cfg.metrics
				o.Tenants = func() *api.TenantsStats {
					s := treg.Summary()
					return &s
				}
			}
			return newStack(cfg, dir, o)
		}
		treg = tenant.New(tenant.Options{Factory: factory, DataDir: cfg.dataDir, Telemetry: reg})
		if err := treg.Open(ids); err != nil {
			return err
		}
		log.Printf("kgvoted: serving %d tenants (%s) on %s", len(treg.IDs()), strings.Join(treg.IDs(), ", "), cfg.addr)
		for _, t := range treg.Summary().Tenants {
			if t.State == "failed" {
				log.Printf("kgvoted: tenant %q quarantined: %s", t.ID, t.Error)
			}
		}
		return run(cfg, treg.Handler(), treg.BeginDrain, treg.Close)
	}

	// The pusher needs the server's export hook and the server needs the
	// pusher's publish hook; break the cycle with a late-bound srv.
	var srv *server.Server
	o := base
	o.Pprof = cfg.metrics
	o.ReadOnly = cfg.follow != ""
	if smap != nil {
		o.Shard = &server.ShardConfig{Map: smap, Index: cfg.shardIndex}
		if cfg.peers != "" {
			pusher, err := shard.NewPusher(shard.PusherOptions{
				Source: cfg.shardIndex,
				Peers:  splitAddrs(cfg.peers),
				Export: func() ([]core.WeightChange, uint64) { return srv.ExportReplicated() },
			})
			if err != nil {
				return err
			}
			defer pusher.Close()
			o.Shard.OnFlush = pusher.Publish
			log.Printf("kgvoted: shard %d/%d replicating flushes to %s", cfg.shardIndex, smap.Shards, cfg.peers)
		}
	}
	srv, closeStack, err := newStack(cfg, cfg.dataDir, o)
	if err != nil {
		return err
	}
	defer closeStack()
	if cfg.follow != "" {
		follower, err := shard.NewFollower(shard.FollowerOptions{
			Writer: cfg.follow,
			Every:  cfg.followEvery,
			Apply:  srv.ImportSnapshot,
			OnSync: srv.ReportReplica,
		})
		if err != nil {
			return err
		}
		defer follower.Close()
		log.Printf("kgvoted: replica of %s (shard %d/%d), polling every %s", cfg.follow, cfg.shardIndex, smap.Shards, cfg.followEvery)
	}
	st := srv.StatsLocal().Serving
	log.Printf("kgvoted: %d documents, %d entities, %d edges; batch=%d solver=%s; listening on %s",
		st.Documents, st.Entities, st.Edges, cfg.batch, cfg.solverName, cfg.addr)
	return run(cfg, srv.Handler(), srv.BeginDrain, srv.Drain)
}

// loadShardMap loads -shard-map (creating it first under -shard-init)
// and checks -shard-index against it; nil without -shard-map.
func loadShardMap(cfg config) (*shard.Map, error) {
	if cfg.shardMap == "" {
		return nil, nil
	}
	if cfg.shardInit > 0 {
		if _, err := os.Stat(cfg.shardMap); errors.Is(err, os.ErrNotExist) {
			m, err := shard.NewMap(cfg.shardInit, uint64(cfg.seed))
			if err != nil {
				return nil, err
			}
			// Concurrent creators race benignly: the file content is
			// deterministic in (N, seed) and the write is atomic.
			if err := m.WriteFile(cfg.shardMap); err != nil {
				return nil, err
			}
			log.Printf("kgvoted: wrote shard map %s (%d shards, seed %d)", cfg.shardMap, cfg.shardInit, cfg.seed)
		}
	}
	smap, err := shard.LoadFile(cfg.shardMap)
	if err != nil {
		return nil, err
	}
	if cfg.shardIndex < 0 || cfg.shardIndex >= smap.Shards {
		return nil, fmt.Errorf("-shard-index %d out of range for %d shards", cfg.shardIndex, smap.Shards)
	}
	return smap, nil
}

// newStack builds one serving stack over dir: durable when dir is set,
// ephemeral otherwise. The returned closer releases the durable manager
// once the server has drained; it is never nil.
func newStack(cfg config, dir string, o server.Options) (*server.Server, func() error, error) {
	engine := core.Options{K: cfg.k, L: cfg.l, Workers: cfg.workers}
	closer := func() error { return nil }
	if dir != "" {
		policy, err := wal.ParseSyncPolicy(cfg.fsync)
		if err != nil {
			return nil, nil, err
		}
		mgr, err := durable.Open(durable.Options{
			Dir:       dir,
			Fsync:     policy,
			SyncEvery: cfg.syncEvery,
			Engine:    engine,
			Metrics:   durable.NewMetrics(o.Telemetry),
		})
		if err != nil {
			return nil, nil, err
		}
		o.Durable, closer = mgr, mgr.Close
	}
	srv, err := bootServer(cfg, dir, engine, o)
	if err != nil {
		closer()
		return nil, nil, err
	}
	return srv, closer, nil
}

// bootServer recovers o.Durable's state or, on first boot (and always
// without durability), builds the corpus and bootstraps o.Durable with
// it, then returns a server over the result.
func bootServer(cfg config, dir string, engine core.Options, o server.Options) (*server.Server, error) {
	if o.Durable != nil {
		rec, err := o.Durable.Recover()
		if err != nil {
			return nil, err
		}
		if rec != nil {
			log.Printf("kgvoted: recovered from %s: checkpoint at wal seq %d, %d records replayed, %d pending votes",
				dir, rec.CheckpointSeq, rec.Records, len(rec.Pending))
			o.Recovered = rec
			return server.NewWithOptions(rec.Sys, o)
		}
	}
	sys, err := loadOrBuild(cfg.corpusPath, cfg.docs, cfg.seed, engine)
	if err != nil {
		return nil, err
	}
	if o.Durable != nil {
		if err := o.Durable.Bootstrap(sys); err != nil {
			return nil, err
		}
		log.Printf("kgvoted: initialized data directory %s", dir)
	}
	return server.NewWithOptions(sys, o)
}

// run serves h on cfg.addr until SIGINT/SIGTERM, then drains gracefully
// (DESIGN.md §12): stop admitting writes first so in-flight requests and
// the listener shutdown race nothing, then let the HTTP server finish
// what it already accepted, then flush the queued remainder and
// checkpoint. Reads keep serving throughout the listener's grace period.
func run(cfg config, h http.Handler, beginDrain func(), drain func(context.Context) error) error {
	httpSrv := &http.Server{Addr: cfg.addr, Handler: h}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("kgvoted: draining (writes rejected, %s budget)", cfg.drainTimeout)
	beginDrain()
	dctx := context.Background()
	if cfg.drainTimeout > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(dctx, cfg.drainTimeout)
		defer cancel()
	}
	if err := httpSrv.Shutdown(dctx); err != nil {
		log.Printf("kgvoted: listener shutdown: %v (closing)", err)
		_ = httpSrv.Close()
	}
	if err := drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if cfg.dataDir != "" {
		log.Printf("kgvoted: drained and checkpointed to %s", cfg.dataDir)
	}
	return nil
}

// splitAddrs parses a comma-separated list, tolerating spaces and empty items.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// loadOrBuild builds a fresh system from the corpus (file or synthetic).
func loadOrBuild(corpusPath string, docs int, seed int64, opts core.Options) (*qa.System, error) {
	var (
		corpus *qa.Corpus
		err    error
	)
	if corpusPath != "" {
		f, err := os.Open(corpusPath)
		if err != nil {
			return nil, err
		}
		corpus, err = qa.ReadCorpus(f)
		f.Close()
		if err != nil {
			return nil, err
		}
	} else {
		corpus, err = synth.GenerateCorpus(synth.CorpusConfig{Docs: docs, Seed: seed})
		if err != nil {
			return nil, err
		}
	}
	return qa.Build(corpus, opts)
}
