// Command kgvoted serves a Q&A system over HTTP: POST /v1/ask ranks
// answers, POST /v1/vote records feedback (optimizing the knowledge
// graph in batches), POST /v1/explain decomposes a score into its graph
// walks, and GET /v1/stats reports counters. Unversioned paths still
// work as deprecated aliases. See API.md for the wire contract.
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

	"kgvote/internal/admit"
	"kgvote/internal/core"
	"kgvote/internal/durable"
	"kgvote/internal/qa"
	"kgvote/internal/server"
	"kgvote/internal/shard"
	"kgvote/internal/synth"
	"kgvote/internal/telemetry"
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
	replica     bool
	follow      string
	followEvery time.Duration

	tenants        string
	tenantQueueCap int
	tenantVoteRate float64

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
	flag.BoolVar(&cfg.replica, "replica", false, "run as a read-only snapshot replica of -follow (requires -shard-map; excludes -data-dir, -peers)")
	flag.StringVar(&cfg.follow, "follow", "", "writer base URL this replica polls for snapshots")
	flag.DurationVar(&cfg.followEvery, "follow-every", 500*time.Millisecond, "replica snapshot poll interval")
	flag.StringVar(&cfg.tenants, "tenants", "", "comma-separated tenant ids: host each as an independent stack behind /v1/t/{tenant} (DESIGN.md §17); a default tenant serving the un-prefixed /v1 routes always exists")
	flag.IntVar(&cfg.tenantQueueCap, "tenant-queue-cap", 0, "per-tenant pending-vote queue bound with -tenants (0 = inherit -queue-cap)")
	flag.Float64Var(&cfg.tenantVoteRate, "tenant-vote-rate", 0, "per-tenant per-client votes/sec with -tenants (0 = inherit -vote-rate)")
	flag.BoolVar(&cfg.metrics, "metrics", true, "serve Prometheus metrics at GET /metrics and profiling at /debug/pprof/")
	flag.IntVar(&cfg.slowMS, "slow-ms", 1000, "log requests slower than this many milliseconds, with their stage trace (0 disables)")
	flag.Parse()
	run := serve
	if cfg.tenants != "" || cfg.tenantQueueCap > 0 || cfg.tenantVoteRate > 0 {
		run = serveTenants
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "kgvoted:", err)
		os.Exit(1)
	}
}

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
	opts := core.Options{K: cfg.k, L: cfg.l, Workers: cfg.workers}
	if cfg.replica {
		if cfg.follow == "" {
			return errors.New("-replica requires -follow (the writer to poll snapshots from)")
		}
		if cfg.shardMap == "" {
			return errors.New("-replica requires -shard-map (the replica serves its writer's document slice)")
		}
		if cfg.dataDir != "" || cfg.peers != "" {
			return errors.New("-replica state is ephemeral (re-synced from the writer); it excludes -data-dir and -peers")
		}
	}
	if cfg.peers != "" && cfg.shardMap == "" {
		return errors.New("-peers requires -shard-map")
	}

	var smap *shard.Map
	if cfg.shardMap != "" {
		var err error
		if cfg.shardInit > 0 {
			if _, serr := os.Stat(cfg.shardMap); errors.Is(serr, os.ErrNotExist) {
				m, merr := shard.NewMap(cfg.shardInit, uint64(cfg.seed))
				if merr != nil {
					return merr
				}
				// Concurrent creators race benignly: the file content is
				// deterministic in (N, seed) and the write is atomic.
				if werr := m.WriteFile(cfg.shardMap); werr != nil {
					return werr
				}
				log.Printf("kgvoted: wrote shard map %s (%d shards, seed %d)", cfg.shardMap, cfg.shardInit, cfg.seed)
			}
		}
		smap, err = shard.LoadFile(cfg.shardMap)
		if err != nil {
			return err
		}
		if cfg.shardIndex < 0 || cfg.shardIndex >= smap.Shards {
			return fmt.Errorf("-shard-index %d out of range for %d shards", cfg.shardIndex, smap.Shards)
		}
	}

	var reg *telemetry.Registry
	if cfg.metrics {
		reg = telemetry.NewRegistry()
	}

	var (
		mgr *durable.Manager
		rec *durable.Recovered
		sys *qa.System
		err error
	)
	if cfg.dataDir != "" {
		policy, err := wal.ParseSyncPolicy(cfg.fsync)
		if err != nil {
			return err
		}
		mgr, err = durable.Open(durable.Options{
			Dir:       cfg.dataDir,
			Fsync:     policy,
			SyncEvery: cfg.syncEvery,
			Engine:    opts,
			Metrics:   durable.NewMetrics(reg),
		})
		if err != nil {
			return err
		}
		defer mgr.Close()
		rec, err = mgr.Recover()
		if err != nil {
			return err
		}
	}
	if rec != nil {
		sys = rec.Sys
		log.Printf("kgvoted: recovered from %s: checkpoint at wal seq %d, %d records replayed, %d pending votes",
			cfg.dataDir, rec.CheckpointSeq, rec.Records, len(rec.Pending))
	} else {
		sys, err = loadOrBuild(cfg.corpusPath, cfg.docs, cfg.seed, opts)
		if err != nil {
			return err
		}
		if mgr != nil {
			if err := mgr.Bootstrap(sys); err != nil {
				return err
			}
			log.Printf("kgvoted: initialized data directory %s", cfg.dataDir)
		}
	}
	// The pusher needs the server's export hook and the server needs the
	// pusher's publish hook; break the cycle with a late-bound srv.
	var srv *server.Server
	var shardCfg *server.ShardConfig
	if smap != nil {
		shardCfg = &server.ShardConfig{Map: smap, Index: cfg.shardIndex}
		if !cfg.replica && cfg.peers != "" {
			peers := splitAddrs(cfg.peers)
			for i, p := range peers {
				peers[i] = normalizeURL(p)
			}
			pusher, err := shard.NewPusher(shard.PusherOptions{
				Source: cfg.shardIndex,
				Peers:  peers,
				Export: func() ([]core.WeightChange, uint64) { return srv.ExportReplicated() },
			})
			if err != nil {
				return err
			}
			defer pusher.Close()
			shardCfg.OnFlush = pusher.Publish
			log.Printf("kgvoted: shard %d/%d replicating flushes to %s", cfg.shardIndex, smap.Shards, strings.Join(peers, ", "))
		}
	}
	var repCfg *vote.ReputationConfig
	if cfg.reputation {
		repCfg = &vote.ReputationConfig{}
	}
	srv, err = server.NewWithOptions(sys, server.Options{
		BatchSize:       cfg.batch,
		Solver:          solver,
		Durable:         mgr,
		Recovered:       rec,
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
		Pprof:         cfg.metrics,
		ReadOnly:      cfg.replica,
		Shard:         shardCfg,
	})
	if err != nil {
		return err
	}
	if cfg.replica {
		follower, err := shard.NewFollower(shard.FollowerOptions{
			Writer: normalizeURL(cfg.follow),
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
	log.Printf("kgvoted: %d documents, %d entities, %d edges; batch=%d solver=%s; listening on %s",
		len(sys.Corpus.Docs), sys.Aug.Entities, sys.Aug.NumEdges(), cfg.batch, cfg.solverName, cfg.addr)

	httpSrv := &http.Server{Addr: cfg.addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful drain (DESIGN.md §12): stop admitting writes first so
	// in-flight requests and the listener shutdown race nothing, then let
	// the HTTP server finish what it already accepted, then flush the
	// queued remainder and checkpoint. Reads keep serving throughout the
	// listener's grace period.
	log.Printf("kgvoted: draining (writes rejected, %s budget)", cfg.drainTimeout)
	srv.BeginDrain()
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
	if err := srv.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if mgr != nil {
		log.Printf("kgvoted: drained and checkpointed to %s", cfg.dataDir)
	}
	return nil
}

// normalizeURL defaults a scheme-less address to http://.
func normalizeURL(s string) string {
	if !strings.Contains(s, "://") {
		return "http://" + s
	}
	return strings.TrimRight(s, "/")
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
