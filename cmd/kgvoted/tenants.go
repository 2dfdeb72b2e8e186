package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"kgvote/api"
	"kgvote/internal/admit"
	"kgvote/internal/core"
	"kgvote/internal/durable"
	"kgvote/internal/qa"
	"kgvote/internal/server"
	"kgvote/internal/telemetry"
	"kgvote/internal/tenant"
	"kgvote/internal/vote"
	"kgvote/internal/wal"
)

// serveTenants runs the multi-tenant daemon (DESIGN.md §17): one
// registry of independent server stacks, each with its own engine,
// vote stream, admission quota, and — with -data-dir — its own WAL
// namespace under <data-dir>/tenants/<id>, recovered independently at
// boot. Requests route by path: /v1/t/{tenant}/... to that tenant,
// /v1/admin/tenants to the admin API, and everything else to the
// default tenant exactly as a single-tenant daemon would serve it.
func serveTenants(cfg config) error {
	if cfg.replica || cfg.shardMap != "" || cfg.peers != "" {
		return errors.New("-tenants excludes -replica, -shard-map, and -peers (shard a tenant by running it as its own cluster)")
	}
	for _, id := range splitAddrs(cfg.tenants) {
		if !tenant.ValidID(id) || id == "admin" {
			return fmt.Errorf("-tenants: invalid tenant id %q (want ^[a-z0-9][a-z0-9_-]{0,63}$, not \"admin\")", id)
		}
	}
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
	var reg *telemetry.Registry
	if cfg.metrics {
		reg = telemetry.NewRegistry()
	}
	queueCap := cfg.tenantQueueCap
	if queueCap <= 0 {
		queueCap = cfg.queueCap
	}
	voteRate := cfg.tenantVoteRate
	if voteRate <= 0 {
		voteRate = cfg.voteRate
	}

	// The factory builds one tenant's full stack. Its telemetry is a
	// tenant-labeled view of the shared registry, so /metrics carries
	// every tenant's series as kgvote_*{tenant="..."}. treg is late-bound:
	// the default tenant's stats hook reads the registry summary.
	var treg *tenant.Registry
	factory := func(id, dir string) (*server.Server, func() error, error) {
		scoped := reg.WithLabels(telemetry.Labels{"tenant": id})
		var (
			mgr *durable.Manager
			rec *durable.Recovered
			sys *qa.System
		)
		if dir != "" {
			policy, err := wal.ParseSyncPolicy(cfg.fsync)
			if err != nil {
				return nil, nil, err
			}
			mgr, err = durable.Open(durable.Options{
				Dir:       dir,
				Fsync:     policy,
				SyncEvery: cfg.syncEvery,
				Engine:    opts,
				Metrics:   durable.NewMetrics(scoped),
			})
			if err != nil {
				return nil, nil, err
			}
			if rec, err = mgr.Recover(); err != nil {
				mgr.Close()
				return nil, nil, err
			}
		}
		if rec != nil {
			sys = rec.Sys
			log.Printf("kgvoted: tenant %q recovered from %s: checkpoint at wal seq %d, %d records replayed, %d pending votes",
				id, dir, rec.CheckpointSeq, rec.Records, len(rec.Pending))
		} else {
			var err error
			if sys, err = loadOrBuild(cfg.corpusPath, cfg.docs, cfg.seed, opts); err != nil {
				if mgr != nil {
					mgr.Close()
				}
				return nil, nil, err
			}
			if mgr != nil {
				if err := mgr.Bootstrap(sys); err != nil {
					mgr.Close()
					return nil, nil, err
				}
			}
		}
		var repCfg *vote.ReputationConfig
		if cfg.reputation {
			repCfg = &vote.ReputationConfig{}
		}
		sopts := server.Options{
			BatchSize:       cfg.batch,
			Solver:          solver,
			Durable:         mgr,
			Recovered:       rec,
			CheckpointEvery: cfg.checkpointEvery,
			Admission: admit.Config{
				Capacity:       queueCap,
				PerClientRate:  voteRate,
				PerClientBurst: cfg.voteBurst,
			},
			Reputation:    repCfg,
			AsyncFlush:    cfg.asyncFlush,
			FlushTimeout:  cfg.flushTimeout,
			Telemetry:     scoped,
			SlowThreshold: time.Duration(cfg.slowMS) * time.Millisecond,
			Tenant:        id,
		}
		if id == server.DefaultTenant {
			// Only the default tenant mounts /metrics and pprof (they are
			// process-wide) and embeds the registry summary in its stats.
			sopts.Pprof = cfg.metrics
			sopts.Tenants = func() *api.TenantsStats {
				s := treg.Summary()
				return &s
			}
		}
		srv, err := server.NewWithOptions(sys, sopts)
		if err != nil {
			if mgr != nil {
				mgr.Close()
			}
			return nil, nil, err
		}
		closer := func() error {
			if mgr != nil {
				return mgr.Close()
			}
			return nil
		}
		return srv, closer, nil
	}

	treg = tenant.New(tenant.Options{Factory: factory, DataDir: cfg.dataDir, Telemetry: reg})
	if err := treg.Open(splitAddrs(cfg.tenants)); err != nil {
		return err
	}
	ids := treg.IDs()
	log.Printf("kgvoted: serving %d tenants (%s) on %s", len(ids), strings.Join(ids, ", "), cfg.addr)
	for _, t := range treg.Summary().Tenants {
		if t.State == "failed" {
			log.Printf("kgvoted: tenant %q quarantined: %s", t.ID, t.Error)
		}
	}

	httpSrv := &http.Server{Addr: cfg.addr, Handler: treg.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("kgvoted: draining %d tenants (writes rejected, %s budget)", len(treg.IDs()), cfg.drainTimeout)
	treg.BeginDrain()
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
	if err := treg.Close(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if cfg.dataDir != "" {
		log.Printf("kgvoted: drained and checkpointed to %s", cfg.dataDir)
	}
	return nil
}
