// Command kgrouter is the stateless front door of a sharded kgvote
// cluster (DESIGN.md §14): it fans POST /v1/ask and /v1/askbatch out to
// every shard, merges the per-shard ranked lists into one global top-k,
// and routes POST /v1/vote to the shard that owns the voted document.
// Reads are hedged against each shard's snapshot replicas, endpoint
// health is probed continuously, and when a shard stays silent past the
// deadline the response degrades to Partial (X-KG-Shards-Answered
// header) instead of failing.
//
// Usage:
//
//	kgrouter -addr :8090 -map cluster.map \
//	    -shards localhost:8081,localhost:8082,localhost:8083 \
//	    -replicas 0=localhost:9081
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"kgvote/internal/shard"
)

func main() {
	var (
		addr       = flag.String("addr", ":8090", "listen address")
		mapPath    = flag.String("map", "", "shard map file (required; same file every shard loaded)")
		shardsFlag = flag.String("shards", "", "comma-separated shard writer addresses, in shard order (required)")
		replicas   = flag.String("replicas", "", "comma-separated index=addr read-replica endpoints, e.g. 0=host:9081,0=host:9082")
		topK       = flag.Int("k", 10, "merged answer-list length")
		timeout    = flag.Duration("timeout", 5*time.Second, "per-shard fan-out deadline; a shard past it degrades the response to partial")
		hedgeAfter = flag.Duration("hedge-after", 75*time.Millisecond, "silence before a read is raced against the shard's next endpoint")
		probeEvery = flag.Duration("probe-every", 2*time.Second, "endpoint health-probe interval")
	)
	flag.Parse()
	if err := run(*addr, *mapPath, *shardsFlag, *replicas, *topK, *timeout, *hedgeAfter, *probeEvery); err != nil {
		fmt.Fprintln(os.Stderr, "kgrouter:", err)
		os.Exit(1)
	}
}

func run(addr, mapPath, shardsFlag, replicasFlag string, topK int, timeout, hedgeAfter, probeEvery time.Duration) error {
	if mapPath == "" {
		return fmt.Errorf("-map is required")
	}
	if shardsFlag == "" {
		return fmt.Errorf("-shards is required")
	}
	smap, err := shard.LoadFile(mapPath)
	if err != nil {
		return err
	}
	var endpoints []shard.ShardEndpoints
	for _, w := range strings.Split(shardsFlag, ",") {
		if w = strings.TrimSpace(w); w != "" {
			endpoints = append(endpoints, shard.ShardEndpoints{Writer: w})
		}
	}
	if len(endpoints) != smap.Shards {
		return fmt.Errorf("-shards lists %d writers but the map has %d shards", len(endpoints), smap.Shards)
	}
	if replicasFlag != "" {
		for _, item := range strings.Split(replicasFlag, ",") {
			if item = strings.TrimSpace(item); item == "" {
				continue
			}
			idxStr, rAddr, ok := strings.Cut(item, "=")
			if !ok {
				return fmt.Errorf("-replicas item %q is not index=addr", item)
			}
			idx, err := strconv.Atoi(idxStr)
			if err != nil || idx < 0 || idx >= smap.Shards {
				return fmt.Errorf("-replicas item %q names an invalid shard index", item)
			}
			endpoints[idx].Replicas = append(endpoints[idx].Replicas, rAddr)
		}
	}
	rt, err := shard.NewRouter(shard.RouterOptions{
		Map:        smap,
		Shards:     endpoints,
		TopK:       topK,
		Timeout:    timeout,
		HedgeAfter: hedgeAfter,
		ProbeEvery: probeEvery,
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	nReplicas := 0
	for _, se := range endpoints {
		nReplicas += len(se.Replicas)
	}
	log.Printf("kgrouter: %d shards (+%d replicas), map %08x, k=%d; listening on %s",
		smap.Shards, nReplicas, smap.Checksum(), topK, addr)
	httpSrv := &http.Server{Addr: addr, Handler: rt.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("kgrouter: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return httpSrv.Shutdown(sctx)
}
