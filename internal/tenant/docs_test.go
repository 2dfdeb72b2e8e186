package tenant

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"kgvote/internal/server"
)

// docRoute is one method+path row parsed out of an API.md table.
type docRoute struct{ method, path string }

var tableRow = regexp.MustCompile("^\\|\\s*(GET|POST|PUT|DELETE|PATCH)\\s*\\|\\s*`([^`]+)`")

func loadDocRoutes(t *testing.T) (string, []docRoute) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "API.md"))
	if err != nil {
		t.Fatalf("API.md: %v", err)
	}
	doc := string(raw)
	seen := map[docRoute]bool{}
	var routes []docRoute
	for _, line := range strings.Split(doc, "\n") {
		m := tableRow.FindStringSubmatch(line)
		if m == nil || !strings.HasPrefix(m[2], "/v1") {
			continue
		}
		r := docRoute{method: m[1], path: m[2]}
		if !seen[r] {
			seen[r] = true
			routes = append(routes, r)
		}
	}
	if len(routes) < 10 {
		t.Fatalf("parsed only %d routes from API.md tables; the table format changed?", len(routes))
	}
	return doc, routes
}

// muxMiss reports a response produced by the mux itself rather than a
// handler: Go's ServeMux answers unknown paths and method mismatches
// with text/plain, while every handler-owned error is a JSON envelope.
func muxMiss(resp *http.Response) bool {
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
		return false
	}
	return strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain")
}

// TestAPIDocsRoutesExist keeps API.md and the mux in lock-step, both
// directions: every documented route must be answered by a handler
// (not a mux-level 404/405), and every mounted route must be
// documented.
func TestAPIDocsRoutesExist(t *testing.T) {
	doc, routes := loadDocRoutes(t)

	g := openRegistry(t, defaultSopts(), "acme")
	if _, err := g.Create("victim"); err != nil { // consumed by the DELETE probe
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	// Forward: probe every documented route — canonical and
	// tenant-scoped forms — with an empty body. Handler-owned errors
	// (JSON envelopes) are fine; a text/plain mux miss is drift.
	for _, r := range routes {
		path := strings.ReplaceAll(r.path, "{tenant}", "acme")
		path = strings.ReplaceAll(path, "{id}", "victim")
		probes := []string{path}
		if rest, ok := strings.CutPrefix(path, "/v1/"); ok && !strings.HasPrefix(rest, "admin") && !strings.HasPrefix(rest, "t/") {
			probes = append(probes, "/v1/t/acme/"+rest)
		}
		for _, p := range probes {
			req, err := http.NewRequestWithContext(context.Background(), r.method, ts.URL+p, strings.NewReader(""))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if muxMiss(resp) {
				t.Errorf("documented route %s %s (probed as %s) is not mounted: mux answered %d %s",
					r.method, r.path, p, resp.StatusCode, resp.Header.Get("Content-Type"))
			}
		}
	}

	// Reverse: every mounted route must appear in API.md, on a table row
	// carrying its method.
	documented := func(method, path string) bool {
		for _, r := range routes {
			if r.method == method && r.path == path {
				return true
			}
		}
		return false
	}
	for _, r := range server.Routes() {
		if !documented(r.Method, r.Path) {
			t.Errorf("mounted route %s %s missing from API.md", r.Method, r.Path)
		}
	}
	for _, r := range AdminRoutes() {
		if !documented(r.Method, r.Path) {
			t.Errorf("admin route %s %s missing from API.md", r.Method, r.Path)
		}
	}

	// The tenant notes the contract promises must stay written down.
	for _, needle := range []string{"tenant_not_found", "tenant_quota_exceeded", "/v1/t/{tenant}"} {
		if !strings.Contains(doc, needle) {
			t.Errorf("API.md lost its %q coverage", needle)
		}
	}
}
