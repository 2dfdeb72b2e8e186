package shard

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"kgvote/api"
	"kgvote/internal/core"
)

// The follower is the replica side of snapshot shipping: a read-only
// kgvoted polls its writer's GET /v1/snapshot?since=<epoch> and, when
// the writer's serving epoch has advanced, imports the returned absolute
// weight export at the writer's epoch. Polling (rather than writer push)
// keeps the writer entirely ignorant of its replicas: replicas can be
// added, killed, and lag arbitrarily without the writer carrying state
// for them.

// maxSnapshotBody bounds one snapshot download.
const maxSnapshotBody = 256 << 20

// FollowerOptions configures a Follower.
type FollowerOptions struct {
	// Writer is the followed writer's address, host:port or base URL.
	Writer string
	// Every is the poll interval (0 = 500ms).
	Every time.Duration
	// Client is the HTTP client for polls (nil = 30s-timeout default).
	Client *http.Client
	// Apply installs an imported weight set at the writer's epoch
	// (server.ImportSnapshot).
	Apply func(ws []core.WeightChange, epoch uint64) error
	// OnSync, when non-nil, observes each successful import
	// (server.ReportReplica).
	OnSync func(api.ReplicaStats)
}

// Follower polls a writer's snapshot endpoint and feeds imports into a
// read-only server. Create with NewFollower, Close on shutdown.
type Follower struct {
	opt       FollowerOptions
	client    *http.Client
	lastEpoch atomic.Uint64
	syncs     atomic.Int64
	stop      chan struct{}
	wg        sync.WaitGroup
}

// NewFollower validates the options and starts the poll loop.
func NewFollower(opt FollowerOptions) (*Follower, error) {
	if opt.Writer == "" {
		return nil, fmt.Errorf("shard: follower needs a writer URL")
	}
	if opt.Apply == nil {
		return nil, fmt.Errorf("shard: follower needs an Apply hook")
	}
	opt.Writer = baseURL(opt.Writer)
	if opt.Every <= 0 {
		opt.Every = 500 * time.Millisecond
	}
	if opt.Client == nil {
		opt.Client = &http.Client{Timeout: 30 * time.Second}
	}
	f := &Follower{opt: opt, client: opt.Client, stop: make(chan struct{})}
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// Close stops the poll loop.
func (f *Follower) Close() {
	close(f.stop)
	f.wg.Wait()
}

func (f *Follower) run() {
	defer f.wg.Done()
	// Sync immediately so a fresh replica serves real weights as soon as
	// the writer is reachable, then poll.
	_ = f.SyncOnce()
	tick := time.NewTicker(f.opt.Every)
	defer tick.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-tick.C:
			_ = f.SyncOnce() // transient failures retry next tick
		}
	}
}

// SyncOnce performs one poll-and-import cycle: a no-op when the writer's
// epoch has not advanced past the last import.
func (f *Follower) SyncOnce() error {
	since := f.lastEpoch.Load()
	url := fmt.Sprintf("%s/v1/snapshot?since=%d", f.opt.Writer, since)
	resp, err := f.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("shard: snapshot poll: http %d", resp.StatusCode)
	}
	frame, err := io.ReadAll(io.LimitReader(resp.Body, maxSnapshotBody))
	if err != nil {
		return err
	}
	epoch, ws, err := DecodeSnapshot(frame)
	if err != nil {
		return fmt.Errorf("shard: snapshot poll: %w", err)
	}
	if epoch <= f.lastEpoch.Load() {
		return nil // raced with a concurrent sync; nothing newer
	}
	if err := f.opt.Apply(ws, epoch); err != nil {
		return fmt.Errorf("shard: snapshot import: %w", err)
	}
	f.lastEpoch.Store(epoch)
	n := f.syncs.Add(1)
	if f.opt.OnSync != nil {
		f.opt.OnSync(api.ReplicaStats{Following: f.opt.Writer, Epoch: epoch, Syncs: n})
	}
	return nil
}

// Epoch reports the last imported writer epoch.
func (f *Follower) Epoch() uint64 { return f.lastEpoch.Load() }
