package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"kgvote/api"
	"kgvote/internal/core"
)

// The pusher is the writer side of flush replication: after each local
// flush the server hands it (seq, applied weight set) and it delivers
// the set to every peer shard's POST /v1/weights, in order, one
// goroutine per peer so a slow peer never blocks the flush path or the
// other peers. Delivery is at-least-once: the receiver's per-source
// sequence dedupes retries, and any gap — a queue overflow here, a 409
// from a receiver that missed a delta, a peer that restarted from an
// older checkpoint — is healed by re-sending a Full absolute export,
// which supersedes every missed delta.

// PusherOptions configures a Pusher.
type PusherOptions struct {
	// Source is this shard's index, stamped into every push.
	Source int
	// Peers are the peer shard writers' addresses, host:port or base URL
	// (self excluded).
	Peers []string
	// Export returns the current replicable weight set and its flush
	// sequence, atomically (the server takes the writer gate). It backs
	// the full-sync fallback.
	Export func() ([]core.WeightChange, uint64)
	// Client is the HTTP client for pushes (nil = 10s-timeout default).
	Client *http.Client
	// QueueCap bounds each peer's delivery queue; overflow converts the
	// backlog into one full sync (0 = 64).
	QueueCap int
	// RetryBackoff spaces delivery retries (0 = 250ms).
	RetryBackoff time.Duration
}

type push struct {
	seq uint64
	set []core.WeightChange
}

type peerPusher struct {
	addr     string
	ch       chan push
	needFull atomic.Bool
	// synced counts successful deliveries (tests poll it).
	synced atomic.Int64
}

// Pusher replicates flushed weight sets to peer shards. Create with
// NewPusher, hand Publish to server.ShardConfig.OnFlush, Close on
// shutdown.
type Pusher struct {
	opt    PusherOptions
	client *http.Client
	peers  []*peerPusher
	stop   chan struct{}
	wg     sync.WaitGroup
}

// NewPusher starts one delivery goroutine per peer.
func NewPusher(opt PusherOptions) (*Pusher, error) {
	if opt.Export == nil {
		return nil, fmt.Errorf("shard: pusher needs an Export hook for full syncs")
	}
	if opt.QueueCap <= 0 {
		opt.QueueCap = 64
	}
	if opt.RetryBackoff <= 0 {
		opt.RetryBackoff = 250 * time.Millisecond
	}
	client := opt.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	p := &Pusher{opt: opt, client: client, stop: make(chan struct{})}
	for _, addr := range opt.Peers {
		pp := &peerPusher{addr: baseURL(addr), ch: make(chan push, opt.QueueCap)}
		p.peers = append(p.peers, pp)
		p.wg.Add(1)
		go p.run(pp)
	}
	return p, nil
}

// Close stops every delivery goroutine; queued pushes are abandoned
// (peers heal via the gap protocol on the next boot's first push).
func (p *Pusher) Close() {
	close(p.stop)
	p.wg.Wait()
}

// Publish enqueues one flush's weight set for every peer without
// blocking — it is called on the vote path, under the writer gate. A
// peer whose queue is full is switched to full-sync mode: the backlog
// is superseded by one absolute export.
func (p *Pusher) Publish(seq uint64, set []core.WeightChange) {
	for _, pp := range p.peers {
		if pp.needFull.Load() {
			continue // already owes a full sync, which will cover this set
		}
		select {
		case pp.ch <- push{seq: seq, set: set}:
		default:
			pp.needFull.Store(true)
		}
	}
}

func (p *Pusher) run(pp *peerPusher) {
	defer p.wg.Done()
	for {
		if pp.needFull.Load() {
			if !p.fullSync(pp) {
				return // stopped
			}
			continue
		}
		select {
		case <-p.stop:
			return
		case ps := <-pp.ch:
			if pp.needFull.Load() {
				continue // superseded by the pending full sync
			}
			if !p.send(pp, ps) {
				return
			}
		}
	}
}

// send delivers one delta push, retrying transport failures a few times
// before escalating to a full sync. Returns false only when stopped.
func (p *Pusher) send(pp *peerPusher, ps push) bool {
	for attempt := 0; attempt < 3; attempt++ {
		done, gap := p.post(pp, api.WeightPushRequest{
			Source: p.opt.Source,
			Seq:    ps.seq,
			Set:    api.WeightEdgesFromCore(ps.set),
		})
		if done {
			pp.synced.Add(1)
			return true
		}
		if gap {
			pp.needFull.Store(true)
			return true
		}
		if !p.sleep(p.opt.RetryBackoff) {
			return false
		}
	}
	pp.needFull.Store(true)
	return true
}

// fullSync exports the current absolute weight set and delivers it with
// Full set, retrying until it lands. Returns false only when stopped.
func (p *Pusher) fullSync(pp *peerPusher) bool {
	for {
		// Drain deltas that the export below will supersede.
		for {
			select {
			case <-pp.ch:
				continue
			default:
			}
			break
		}
		set, seq := p.opt.Export()
		done, _ := p.post(pp, api.WeightPushRequest{
			Source: p.opt.Source,
			Seq:    seq,
			Full:   true,
			Set:    api.WeightEdgesFromCore(set),
		})
		if done {
			pp.needFull.Store(false)
			pp.synced.Add(1)
			return true
		}
		if !p.sleep(p.opt.RetryBackoff) {
			return false
		}
	}
}

// post delivers one push. done reports delivery (including idempotent
// duplicates and terminal 4xx rejections — retrying those verbatim can
// never succeed, the gap protocol heals instead); gap reports a 409.
func (p *Pusher) post(pp *peerPusher, req api.WeightPushRequest) (done, gap bool) {
	body, err := json.Marshal(req)
	if err != nil {
		return true, false // cannot serialize: dropping is the only option
	}
	resp, err := p.client.Post(pp.addr+"/v1/weights", "application/json", bytes.NewReader(body))
	if err != nil {
		return false, false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode <= 299:
		return true, false
	case resp.StatusCode == http.StatusConflict:
		return false, true
	case resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusRequestTimeout:
		return false, false // retriable
	default:
		// A terminal rejection (draining peer, validation): the next
		// successful push or full sync re-establishes the sequence.
		return true, false
	}
}

// sleep waits d unless the pusher is stopped first.
func (p *Pusher) sleep(d time.Duration) bool {
	select {
	case <-p.stop:
		return false
	case <-time.After(d):
		return true
	}
}
