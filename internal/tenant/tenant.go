// Package tenant hosts N fully independent serving stacks — engine,
// vote stream, reputation tracker, rank cache, admission controller,
// and durability manager — inside one kgvoted process (DESIGN.md §17).
//
// Each tenant is a complete *server.Server built by a caller-supplied
// Factory, so every isolation property of the single-tenant daemon
// (single-writer gate, epoch-published snapshots, WAL-first votes)
// holds per tenant with zero shared mutable state between them. The
// only process-wide resources are the listener, the telemetry family
// table (tenants separate their series with a tenant="..." label via
// telemetry.WithLabels), and the OS page cache.
//
// Durability is namespaced: tenant state lives under
// <data-dir>/tenants/<id>/, each directory recovered independently at
// boot. A tenant whose log fails recovery is quarantined in a failed
// set — it answers 503 while every other tenant keeps serving — so one
// corrupt WAL never poisons its neighbors.
package tenant

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"kgvote/api"
	"kgvote/internal/server"
	"kgvote/internal/telemetry"
)

// DefaultID is the tenant every un-scoped /v1 request resolves to. It
// always exists, cannot be created or deleted, and keeps the legacy
// shed codes (server.DefaultTenant re-exported to avoid an import for
// callers that only deal in tenants).
const DefaultID = server.DefaultTenant

// MaxIDLen caps tenant ids at 64 bytes, matching the voter-id cap.
const MaxIDLen = 64

// Registry errors; the HTTP layer maps them onto the error envelope
// (tenant_not_found, tenant_exists, bad_request).
var (
	ErrNotFound  = errors.New("tenant not found")
	ErrExists    = errors.New("tenant already exists")
	ErrInvalidID = errors.New("invalid tenant id")
	ErrReserved  = errors.New("tenant id is reserved")
)

// ValidID reports whether id is a well-formed tenant id:
// ^[a-z0-9][a-z0-9_-]{0,63}$. Reserved names (admin) are well-formed
// but rejected at creation; ValidID only checks shape.
func ValidID(id string) bool {
	if len(id) == 0 || len(id) > MaxIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case c == '_' || c == '-':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// reserved ids can never be created as tenants: admin is the admin API
// namespace under /v1/admin, default is created implicitly at Open.
func reserved(id string) bool {
	return id == "admin"
}

// Factory builds one tenant's complete server stack rooted at dir
// (empty dir = no durability, for tests and ephemeral tenants). It
// returns the server plus a closer that releases the tenant's
// resources (durable manager, background flushers) after the server
// has drained; the closer may be nil.
type Factory func(id, dir string) (*server.Server, func() error, error)

// Options configures a Registry.
type Options struct {
	// Factory builds each tenant's stack. Required.
	Factory Factory
	// DataDir is the daemon's data root; tenant state is namespaced
	// under DataDir/tenants/<id>. Empty disables durability.
	DataDir string
	// Telemetry, when non-nil, registers registry-level gauges
	// (kgvote_tenants, kgvote_tenants_failed_total).
	Telemetry *telemetry.Registry
}

// Tenant is one hosted serving stack.
type Tenant struct {
	ID      string
	srv     *server.Server
	handler http.Handler
	close   func() error
}

// Server returns the tenant's server (tests and stats use it).
func (t *Tenant) Server() *server.Server { return t.srv }

// Registry owns the tenant map. Reads (request routing) take an
// RLock; tenant creation builds the stack outside the lock with the id
// reserved in a building set, so a slow recovery never blocks serving
// traffic for other tenants.
type Registry struct {
	factory Factory
	dataDir string

	mu       sync.RWMutex
	tenants  map[string]*Tenant
	failed   map[string]error
	building map[string]bool
}

// New returns an empty registry. Call Open to boot tenants; the
// factory is not invoked until then, so callers can capture the
// registry in factory closures (the default tenant's stats hook needs
// it) before any tenant exists.
func New(o Options) *Registry {
	g := &Registry{
		factory:  o.Factory,
		dataDir:  o.DataDir,
		tenants:  make(map[string]*Tenant),
		failed:   make(map[string]error),
		building: make(map[string]bool),
	}
	if o.Telemetry != nil {
		o.Telemetry.GaugeFunc("kgvote_tenants", "Live tenants hosted by the registry.", nil, func() float64 {
			g.mu.RLock()
			defer g.mu.RUnlock()
			return float64(len(g.tenants))
		})
		o.Telemetry.GaugeFunc("kgvote_tenants_failed", "Tenants quarantined by a boot recovery failure.", nil, func() float64 {
			g.mu.RLock()
			defer g.mu.RUnlock()
			return float64(len(g.failed))
		})
	}
	return g
}

// Dir returns the durability directory for tenant id, or "" when the
// registry runs without a data dir.
func (g *Registry) Dir(id string) string {
	if g.dataDir == "" {
		return ""
	}
	return filepath.Join(g.dataDir, "tenants", id)
}

// Open boots the registry: the default tenant, every id in ids, and —
// when a data dir is configured — every tenant directory already on
// disk (so tenants created at runtime come back after a restart). Each
// tenant recovers independently; a recovery failure quarantines that
// tenant in the failed set and never aborts the others. Open returns
// an error only if the default tenant cannot be built, since the
// un-scoped /v1 routes cannot work without it.
func (g *Registry) Open(ids []string) error {
	want := map[string]bool{DefaultID: true}
	for _, id := range ids {
		if id != "" {
			want[id] = true
		}
	}
	if g.dataDir != "" {
		entries, err := os.ReadDir(filepath.Join(g.dataDir, "tenants"))
		if err == nil {
			for _, e := range entries {
				if e.IsDir() && ValidID(e.Name()) && !reserved(e.Name()) {
					want[e.Name()] = true
				}
			}
		}
	}
	order := make([]string, 0, len(want))
	for id := range want {
		order = append(order, id)
	}
	sort.Strings(order)
	for _, id := range order {
		if !ValidID(id) || reserved(id) {
			g.mu.Lock()
			g.failed[id] = fmt.Errorf("%w: %q", ErrInvalidID, id)
			g.mu.Unlock()
			continue
		}
		if err := g.boot(id); err != nil {
			if id == DefaultID {
				return fmt.Errorf("tenant %q: %w", id, err)
			}
			g.mu.Lock()
			g.failed[id] = err
			g.mu.Unlock()
		}
	}
	return nil
}

// boot builds one tenant and inserts it.
func (g *Registry) boot(id string) error {
	dir := g.Dir(id)
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	srv, closer, err := g.factory(id, dir)
	if err != nil {
		return err
	}
	t := &Tenant{ID: id, srv: srv, handler: srv.Handler(), close: closer}
	g.mu.Lock()
	g.tenants[id] = t
	delete(g.failed, id)
	g.mu.Unlock()
	return nil
}

// Get returns the live tenant for id.
func (g *Registry) Get(id string) (*Tenant, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	t, ok := g.tenants[id]
	return t, ok
}

// FailedErr returns the quarantine error for id, or nil if id is not
// quarantined.
func (g *Registry) FailedErr(id string) error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.failed[id]
}

// IDs returns the live tenant ids, sorted.
func (g *Registry) IDs() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.tenants))
	for id := range g.tenants {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Create provisions a new tenant at runtime. The id is reserved in a
// building set while the factory runs outside the lock, so concurrent
// creates of the same id collide with ErrExists and other tenants keep
// serving. A quarantined id may be re-created; success clears the
// quarantine.
func (g *Registry) Create(id string) (*Tenant, error) {
	if !ValidID(id) {
		return nil, fmt.Errorf("%w: %q", ErrInvalidID, id)
	}
	if reserved(id) {
		return nil, fmt.Errorf("%w: %q", ErrReserved, id)
	}
	g.mu.Lock()
	if _, ok := g.tenants[id]; ok {
		g.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrExists, id)
	}
	if g.building[id] {
		g.mu.Unlock()
		return nil, fmt.Errorf("%w: %q (creation in flight)", ErrExists, id)
	}
	g.building[id] = true
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.building, id)
		g.mu.Unlock()
	}()
	if err := g.boot(id); err != nil {
		return nil, err
	}
	t, _ := g.Get(id)
	return t, nil
}

// Delete removes a tenant: it leaves the map immediately (requests see
// tenant_not_found), then drains and closes outside the lock. With
// purge, the tenant's durability directory is removed; otherwise the
// WAL stays on disk and the next Open resurrects the tenant. The
// default tenant cannot be deleted. Deleting a quarantined tenant
// clears the quarantine (purge also removes its directory).
func (g *Registry) Delete(id string, purge bool) error {
	if id == DefaultID {
		return fmt.Errorf("%w: %q", ErrReserved, id)
	}
	g.mu.Lock()
	t, ok := g.tenants[id]
	delete(g.tenants, id)
	_, wasFailed := g.failed[id]
	delete(g.failed, id)
	g.mu.Unlock()
	if !ok && !wasFailed {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if t != nil {
		t.srv.BeginDrain()
		_ = t.srv.Drain(context.Background())
		if t.close != nil {
			_ = t.close()
		}
	}
	if purge {
		if dir := g.Dir(id); dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}
	return nil
}

// Summary builds the tenants section of /v1/stats and the admin list:
// one row per live tenant (from its server's stats) plus one row per
// quarantined tenant, sorted by id.
func (g *Registry) Summary() api.TenantsStats {
	g.mu.RLock()
	live := make([]*Tenant, 0, len(g.tenants))
	for _, t := range g.tenants {
		live = append(live, t)
	}
	failed := make(map[string]error, len(g.failed))
	for id, err := range g.failed {
		failed[id] = err
	}
	g.mu.RUnlock()

	out := api.TenantsStats{Count: len(live), Failed: len(failed)}
	for _, t := range live {
		st := t.srv.StatsLocal().Serving
		out.Tenants = append(out.Tenants, api.TenantSummary{
			ID:            t.ID,
			State:         "serving",
			Documents:     st.Documents,
			VotesAccepted: st.VotesAccepted,
			VotesPending:  st.VotesPending,
			Flushes:       st.Flushes,
			Epoch:         st.Epoch,
			Draining:      st.Draining,
		})
	}
	for id, err := range failed {
		out.Tenants = append(out.Tenants, api.TenantSummary{ID: id, State: "failed", Error: err.Error()})
	}
	sort.Slice(out.Tenants, func(i, j int) bool { return out.Tenants[i].ID < out.Tenants[j].ID })
	return out
}

// BeginDrain flips every tenant into drain mode (health reports
// draining, new votes shed) ahead of listener shutdown.
func (g *Registry) BeginDrain() {
	for _, t := range g.snapshot() {
		t.srv.BeginDrain()
	}
}

// Close drains and closes every tenant within ctx's budget. Safe to
// call once at process shutdown after the listener stops accepting.
func (g *Registry) Close(ctx context.Context) error {
	var first error
	for _, t := range g.snapshot() {
		if err := t.srv.Drain(ctx); err != nil && first == nil {
			first = err
		}
		if t.close != nil {
			if err := t.close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

func (g *Registry) snapshot() []*Tenant {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]*Tenant, 0, len(g.tenants))
	for _, t := range g.tenants {
		out = append(out, t)
	}
	return out
}
