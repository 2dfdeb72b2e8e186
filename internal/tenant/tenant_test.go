package tenant

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"kgvote/api"
	"kgvote/api/client"
	"kgvote/internal/admit"
	"kgvote/internal/core"
	"kgvote/internal/durable"
	"kgvote/internal/qa"
	"kgvote/internal/server"
	"kgvote/internal/synth"
)

var engineOpts = core.Options{K: 5, L: 4}

func testCorpus(t testing.TB) *qa.Corpus {
	t.Helper()
	corpus, err := synth.GenerateCorpus(synth.CorpusConfig{Docs: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

// testFactory builds identical stacks per tenant (the golden test
// depends on that). With a dir it is durable, mirroring the kgvoted
// factory: open → recover-or-bootstrap → serve.
func testFactory(t testing.TB, sopts server.Options) Factory {
	return func(id, dir string) (*server.Server, func() error, error) {
		var (
			mgr *durable.Manager
			rec *durable.Recovered
			sys *qa.System
			err error
		)
		if dir != "" {
			mgr, err = durable.Open(durable.Options{Dir: dir, Engine: engineOpts})
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
		} else {
			if sys, err = qa.Build(testCorpus(t), engineOpts); err != nil {
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
		o := sopts
		o.Tenant = id
		o.Durable = mgr
		o.Recovered = rec
		srv, err := server.NewWithOptions(sys, o)
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
}

func openRegistry(t *testing.T, sopts server.Options, ids ...string) *Registry {
	t.Helper()
	g := New(Options{Factory: testFactory(t, sopts)})
	if err := g.Open(ids); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = g.Close(context.Background()) })
	return g
}

func defaultSopts() server.Options {
	return server.Options{BatchSize: 2, Solver: core.StreamMulti}
}

// decodeEnvelope pulls the error envelope out of a response body;
// empty code means the body was not an envelope.
func decodeEnvelope(t *testing.T, resp *http.Response) api.Error {
	t.Helper()
	var env api.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return api.Error{}
	}
	return env.Error
}

func TestScopedRouting(t *testing.T) {
	g := openRegistry(t, defaultSopts(), "acme", strings.Repeat("a", 64))
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		path   string
		status int
		code   string // expected envelope code; "" = don't check
	}{
		{"scoped health", "/v1/t/acme/healthz", 200, ""},
		{"scoped stats", "/v1/t/acme/stats", 200, ""},
		{"default alias via scope", "/v1/t/default/healthz", 200, ""},
		{"unknown tenant", "/v1/t/nope/healthz", 404, api.CodeTenantNotFound},
		{"uppercase id", "/v1/t/ACME/healthz", 404, api.CodeTenantNotFound},
		{"leading dash", "/v1/t/-acme/healthz", 404, api.CodeTenantNotFound},
		{"leading underscore", "/v1/t/_acme/healthz", 404, api.CodeTenantNotFound},
		{"64-byte id serves", "/v1/t/" + strings.Repeat("a", 64) + "/healthz", 200, ""},
		{"65-byte id rejected", "/v1/t/" + strings.Repeat("a", 65) + "/healthz", 404, api.CodeTenantNotFound},
		{"reserved admin", "/v1/t/admin/healthz", 404, api.CodeTenantNotFound},
		{"empty id", "/v1/t//healthz", 404, api.CodeTenantNotFound},
		{"dot id", "/v1/t/../healthz", 404, api.CodeTenantNotFound},
		{"percent-encoded id", "/v1/t/ac%6de/healthz", 200, ""},
		{"percent-encoded slash", "/v1/t/acme%2Fhealthz", 404, api.CodeTenantNotFound},
		{"percent-encoded traversal", "/v1/t/%2e%2e/healthz", 404, api.CodeTenantNotFound},
		{"no subpath", "/v1/t/acme", 404, ""},
		{"unscoped default", "/v1/healthz", 200, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodGet, ts.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Keep the raw path: the router must see the escaped form.
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.status)
			}
			if tc.code != "" {
				if e := decodeEnvelope(t, resp); e.Code != tc.code {
					t.Fatalf("%s: code %q, want %q", tc.path, e.Code, tc.code)
				}
			}
		})
	}

	// The scoped stats body names its tenant.
	resp, err := http.Get(ts.URL + "/v1/t/acme/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.StatsBody
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "acme" {
		t.Fatalf("scoped stats tenant = %q, want acme", st.Tenant)
	}
	if st.Serving == nil || st.Serving.Documents == 0 {
		t.Fatalf("serving section missing or empty: %+v", st.Serving)
	}
}

// TestUnprefixedRoutesNotFound pins the /v1-only surface: no route of
// the server's table answers without its /v1 prefix, on a bare server
// or through the registry's default tenant.
func TestUnprefixedRoutesNotFound(t *testing.T) {
	g := openRegistry(t, defaultSopts())
	def, _ := g.Get(DefaultID)
	for name, h := range map[string]http.Handler{"server": def.Server().Handler(), "registry": g.Handler()} {
		for _, rt := range server.Routes() {
			path := strings.TrimPrefix(rt.Path, "/v1")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(rt.Method, path, strings.NewReader("{}")))
			if rec.Code != http.StatusNotFound {
				t.Errorf("%s: %s %s = %d, want 404", name, rt.Method, path, rec.Code)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/healthz", nil))
		if rec.Code != http.StatusOK {
			t.Errorf("%s: GET /v1/healthz = %d, want 200", name, rec.Code)
		}
	}
}

func TestAdminLifecycle(t *testing.T) {
	g := openRegistry(t, defaultSopts())
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	if _, err := c.TenantCreate(ctx, "acme"); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.Tenant("acme").Stats(ctx); err != nil {
		t.Fatalf("scoped stats after create: %v", err)
	}

	// Duplicate create collides.
	_, err := c.TenantCreate(ctx, "acme")
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeTenantExists {
		t.Fatalf("duplicate create: %v, want %s", err, api.CodeTenantExists)
	}
	// So does re-creating the default tenant.
	if _, err := c.TenantCreate(ctx, "default"); err == nil {
		t.Fatal("creating default should fail")
	}
	// Reserved and malformed ids are 400s.
	for _, id := range []string{"admin", "UPPER", "", "-x", strings.Repeat("a", 65)} {
		_, err := c.TenantCreate(ctx, id)
		if !errors.As(err, &apiErr) || apiErr.HTTPStatus != http.StatusBadRequest {
			t.Fatalf("create %q: %v, want 400", id, err)
		}
	}

	list, err := c.TenantList(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, s := range list.Tenants {
		ids = append(ids, s.ID)
	}
	if got := strings.Join(ids, ","); got != "acme,default" {
		t.Fatalf("list = %s, want acme,default", got)
	}

	if _, err := c.TenantDelete(ctx, "default", false); err == nil {
		t.Fatal("deleting default should fail")
	}
	if _, err := c.TenantDelete(ctx, "acme", false); err != nil {
		t.Fatalf("delete: %v", err)
	}
	// Deleted tenants answer tenant_not_found, errors.As-able.
	_, err = c.Tenant("acme").Stats(ctx)
	var nf *api.TenantNotFoundError
	if !errors.As(err, &nf) || nf.Tenant != "acme" {
		t.Fatalf("stats after delete: %v, want TenantNotFoundError{acme}", err)
	}
	if _, err := c.TenantDelete(ctx, "acme", false); err == nil {
		t.Fatal("double delete should fail")
	}
}

// queryEnts picks a deterministic two-entity question that the test
// corpus is guaranteed to know (its first document's vocabulary).
func queryEnts(t testing.TB) map[string]int {
	t.Helper()
	corpus := testCorpus(t)
	keys := make([]string, 0, len(corpus.Docs[0].Entities))
	for k := range corpus.Docs[0].Entities {
		keys = append(keys, k)
	}
	if len(keys) < 2 {
		t.Fatalf("test corpus doc 0 has %d entities, want >= 2", len(keys))
	}
	sort.Strings(keys)
	return map[string]int{keys[0]: 2, keys[1]: 1}
}

// driveAskVote serves one ask and votes best on the scoped handle.
func driveAskVote(t *testing.T, c *client.Client, best int) *api.VoteResponse {
	t.Helper()
	ctx := context.Background()
	ask, err := c.Ask(ctx, api.AskRequest{Entities: queryEnts(t)})
	if err != nil {
		t.Fatal(err)
	}
	if len(ask.Results) == 0 {
		t.Fatal("empty ranking")
	}
	ranked := make([]int, len(ask.Results))
	for i, r := range ask.Results {
		ranked[i] = r.Doc
	}
	vr, err := c.Vote(ctx, api.VoteRequest{Query: ask.Query, Ranked: ranked, BestDoc: ranked[best%len(ranked)]})
	if err != nil {
		t.Fatal(err)
	}
	return vr
}

// rankingBits captures a ranking as exact float bit patterns.
func rankingBits(t *testing.T, c *client.Client) string {
	t.Helper()
	ask, err := c.Ask(context.Background(), api.AskRequest{Entities: queryEnts(t)})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range ask.Results {
		fmt.Fprintf(&b, "%d:%016x;", r.Doc, math.Float64bits(r.Score))
	}
	return b.String()
}

// TestGoldenIsolation: a 4-tenant registry fed per-tenant vote streams
// must be bitwise identical to 4 isolated single-tenant servers fed
// the same streams — co-residency must leak nothing, not even a ULP.
func TestGoldenIsolation(t *testing.T) {
	tenants := []string{"t-a", "t-b", "t-c", "t-d"}
	g := openRegistry(t, defaultSopts(), tenants...)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	solo := make(map[string]*client.Client)
	for _, id := range tenants {
		sys, err := qa.Build(testCorpus(t), engineOpts)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.NewWithOptions(sys, defaultSopts())
		if err != nil {
			t.Fatal(err)
		}
		sts := httptest.NewServer(srv.Handler())
		t.Cleanup(sts.Close)
		solo[id] = client.New(sts.URL)
	}

	// Distinct per-tenant streams: tenant i prefers result (i+k)%n over
	// 4 votes (2 flushed batches at BatchSize=2).
	for i, id := range tenants {
		scoped := client.New(ts.URL).Tenant(id)
		for k := 0; k < 4; k++ {
			driveAskVote(t, scoped, i+k)
			driveAskVote(t, solo[id], i+k)
		}
	}
	for i, id := range tenants {
		got := rankingBits(t, client.New(ts.URL).Tenant(id))
		want := rankingBits(t, solo[id])
		if got != want {
			t.Fatalf("tenant %s diverged from isolated daemon:\n  multi: %s\n  solo:  %s", id, got, want)
		}
		// And tenants with different streams must differ from each other.
		if j := (i + 1) % len(tenants); got == rankingBits(t, client.New(ts.URL).Tenant(tenants[j])) {
			t.Fatalf("tenants %s and %s have identical rankings despite different vote streams", id, tenants[j])
		}
	}
}

func TestQuotaShedCodes(t *testing.T) {
	sopts := defaultSopts()
	// One vote per client, then rate_limited.
	sopts.Admission = admit.Config{Capacity: 64, PerClientRate: 0.0001, PerClientBurst: 1}
	g := openRegistry(t, sopts, "acme")
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	ctx := context.Background()

	// Named tenant: shed maps to tenant_quota_exceeded and unwraps to
	// the typed quota error.
	scoped := client.New(ts.URL, client.WithClientID("c1")).Tenant("acme")
	driveAskVote(t, scoped, 0)
	ask, err := scoped.Ask(ctx, api.AskRequest{Entities: queryEnts(t)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = scoped.Vote(ctx, api.VoteRequest{Query: ask.Query, Ranked: []int{ask.Results[0].Doc}, BestDoc: ask.Results[0].Doc})
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeTenantQuota {
		t.Fatalf("tenant shed: %v, want %s", err, api.CodeTenantQuota)
	}
	var quota *api.TenantQuotaError
	if !errors.As(err, &quota) || quota.Tenant != "acme" {
		t.Fatalf("tenant shed does not unwrap to TenantQuotaError: %v", err)
	}
	if !apiErr.Temporary() {
		t.Fatal("tenant_quota_exceeded must be Temporary for VoteRetry")
	}
	if apiErr.RetryAfter() <= 0 {
		t.Fatal("tenant_quota_exceeded carries no Retry-After hint")
	}

	// Default tenant keeps the legacy per-reason code.
	unscoped := client.New(ts.URL, client.WithClientID("c2"))
	driveAskVote(t, unscoped, 0)
	ask, err = unscoped.Ask(ctx, api.AskRequest{Entities: queryEnts(t)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = unscoped.Vote(ctx, api.VoteRequest{Query: ask.Query, Ranked: []int{ask.Results[0].Doc}, BestDoc: ask.Results[0].Doc})
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeRateLimited {
		t.Fatalf("default shed: %v, want %s", err, api.CodeRateLimited)
	}
}

func TestBootFailureQuarantine(t *testing.T) {
	inner := testFactory(t, defaultSopts())
	factory := func(id, dir string) (*server.Server, func() error, error) {
		if id == "bad" {
			return nil, nil, errors.New("injected boot failure")
		}
		return inner(id, dir)
	}
	g := New(Options{Factory: factory})
	if err := g.Open([]string{"good", "bad"}); err != nil {
		t.Fatal(err)
	}
	defer g.Close(context.Background())
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	for path, want := range map[string]int{
		"/v1/t/good/healthz": 200,
		"/v1/t/bad/healthz":  503,
		"/v1/healthz":        200,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	sum := g.Summary()
	if sum.Count != 2 || sum.Failed != 1 {
		t.Fatalf("summary = %d live / %d failed, want 2/1", sum.Count, sum.Failed)
	}
	// Deleting the quarantined tenant clears it; re-creating works once
	// the failure is gone.
	if err := g.Delete("bad", false); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Create("bad"); err == nil {
		t.Fatal("factory still failing, create should fail")
	}
}

// TestCorruptTenantIsolation: destroying one tenant's checkpoint makes
// only that tenant fail recovery; its neighbors recover their exact
// pre-shutdown state.
func TestCorruptTenantIsolation(t *testing.T) {
	dataDir := t.TempDir()
	sopts := defaultSopts()
	open := func() *Registry {
		g := New(Options{Factory: testFactory(t, sopts), DataDir: dataDir})
		if err := g.Open([]string{"alpha", "beta"}); err != nil {
			t.Fatal(err)
		}
		return g
	}

	g := open()
	ts := httptest.NewServer(g.Handler())
	for _, id := range []string{"alpha", "beta"} {
		scoped := client.New(ts.URL).Tenant(id)
		driveAskVote(t, scoped, 1)
		driveAskVote(t, scoped, 1)
	}
	alphaBits := rankingBits(t, client.New(ts.URL).Tenant("alpha"))
	ts.Close()
	if err := g.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Corrupt beta: a WAL with no checkpoint is unrecoverable.
	matches, err := filepath.Glob(filepath.Join(dataDir, "tenants", "beta", "checkpoint-*"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no beta checkpoints found: %v", err)
	}
	for _, f := range matches {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}

	g2 := open()
	defer g2.Close(context.Background())
	ts2 := httptest.NewServer(g2.Handler())
	defer ts2.Close()

	if err := g2.FailedErr("beta"); err == nil {
		t.Fatal("beta should be quarantined after checkpoint loss")
	}
	resp, err := http.Get(ts2.URL + "/v1/t/beta/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("quarantined tenant status %d, want 503", resp.StatusCode)
	}
	if got := rankingBits(t, client.New(ts2.URL).Tenant("alpha")); got != alphaBits {
		t.Fatalf("alpha state changed across beta's corruption:\n  before: %s\n  after:  %s", alphaBits, got)
	}
	// The registry summary reports the quarantine.
	sum := g2.Summary()
	if sum.Failed != 1 {
		t.Fatalf("summary failed = %d, want 1", sum.Failed)
	}
}

// TestDeleteWithoutPurgeResurrects: deleting a tenant keeps its WAL, so
// the next boot brings it back with its state; purge removes it.
func TestDeletePurgeSemantics(t *testing.T) {
	dataDir := t.TempDir()
	open := func() *Registry {
		g := New(Options{Factory: testFactory(t, defaultSopts()), DataDir: dataDir})
		if err := g.Open(nil); err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := open()
	if _, err := g.Create("keep"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Create("gone"); err != nil {
		t.Fatal(err)
	}
	if err := g.Delete("keep", false); err != nil {
		t.Fatal(err)
	}
	if err := g.Delete("gone", true); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	g2 := open()
	defer g2.Close(context.Background())
	ids := g2.IDs()
	if got := strings.Join(ids, ","); got != "default,keep" {
		t.Fatalf("rebooted tenants = %s, want default,keep", got)
	}
}
