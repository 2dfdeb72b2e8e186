package pathidx

import (
	"sync"

	"kgvote/internal/graph"
)

// ScorerPool is a free-list of CSRScorers bound to one immutable snapshot.
// Each scorer owns dense scratch buffers sized to the snapshot, so the
// pool lets any number of goroutines rank concurrently with zero
// steady-state allocation: a worker Gets a scorer, runs any number of
// queries, and Puts it back.
//
// A pool is bound to exactly one CSR; when a new snapshot is published a
// new pool is created alongside it and the old one is dropped wholesale
// (scorers still checked out of the old pool keep working against the old
// snapshot — it is immutable).
type ScorerPool struct {
	csr  *graph.CSR
	opt  Options
	pool sync.Pool
}

// NewPool returns a pool over the snapshot.
func NewPool(c *graph.CSR, opt Options) (*ScorerPool, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	p := &ScorerPool{csr: c, opt: opt.withDefaults()}
	p.pool.New = func() any {
		// opt was validated above, so construction cannot fail.
		s, _ := NewCSRScorer(p.csr, p.opt)
		return s
	}
	return p, nil
}

// CSR returns the snapshot the pool serves.
func (p *ScorerPool) CSR() *graph.CSR { return p.csr }

// Options returns the pool's effective scoring options.
func (p *ScorerPool) Options() Options { return p.opt }

// Get checks a scorer out of the pool, creating one if none is free.
func (p *ScorerPool) Get() *CSRScorer { return p.pool.Get().(*CSRScorer) }

// Put returns a scorer to the pool. Scorers bound to a different snapshot
// (checked out before an epoch swap) are silently dropped.
func (p *ScorerPool) Put(s *CSRScorer) {
	if s == nil || s.c != p.csr {
		return
	}
	p.pool.Put(s)
}
