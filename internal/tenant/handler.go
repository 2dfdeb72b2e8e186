package tenant

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"kgvote/api"
)

const (
	scopedPrefix = "/v1/t/"
	adminPath    = "/v1/admin/tenants"
)

// AdminRoutes lists the tenant-admin API surface; the docs-drift test
// checks it against API.md alongside server.Routes().
func AdminRoutes() []struct{ Method, Path string } {
	return []struct{ Method, Path string }{
		{"POST", adminPath},
		{"GET", adminPath},
		{"DELETE", adminPath + "/{id}"},
	}
}

// Handler returns the process-wide mux of a multi-tenant daemon:
//
//   - /v1/t/{tenant}/...  → that tenant's server, path rewritten to /v1/...
//   - /v1/admin/tenants   → create/list/delete tenants
//   - everything else     → the default tenant, bit-identically to a
//     single-tenant daemon (including /v1/..., /metrics and pprof)
//
// Tenant ids are parsed from the escaped path and unescaped before
// validation, so %2F smuggling cannot splice path segments.
func (g *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		esc := r.URL.EscapedPath()
		switch {
		case strings.HasPrefix(esc, scopedPrefix):
			g.serveScoped(w, r, esc[len(scopedPrefix):])
		case esc == adminPath || strings.HasPrefix(esc, adminPath+"/"):
			g.serveAdmin(w, r, esc)
		default:
			g.serveDefault(w, r)
		}
	})
}

func (g *Registry) serveDefault(w http.ResponseWriter, r *http.Request) {
	t, ok := g.Get(DefaultID)
	if !ok {
		writeEnvelope(w, http.StatusServiceUnavailable, api.Error{
			Code:    api.CodeUnavailable,
			Message: "default tenant is not serving",
			Tenant:  DefaultID,
		})
		return
	}
	t.handler.ServeHTTP(w, r)
}

// serveScoped routes /v1/t/{tenant}/<rest> to the tenant's server with
// the path rewritten to /v1/<rest>. rest is the escaped remainder
// after the prefix.
func (g *Registry) serveScoped(w http.ResponseWriter, r *http.Request, rest string) {
	seg, tail, _ := strings.Cut(rest, "/")
	id, err := url.PathUnescape(seg)
	if err != nil || !ValidID(id) {
		writeTenantNotFound(w, clip(id, seg))
		return
	}
	t, ok := g.Get(id)
	if !ok {
		if ferr := g.FailedErr(id); ferr != nil {
			writeEnvelope(w, http.StatusServiceUnavailable, api.Error{
				Code:    api.CodeUnavailable,
				Message: "tenant " + strconv.Quote(id) + " failed recovery: " + ferr.Error(),
				Tenant:  id,
			})
			return
		}
		writeTenantNotFound(w, id)
		return
	}
	newEsc := "/v1"
	if tail != "" {
		newEsc += "/" + tail
	}
	path, err := url.PathUnescape(newEsc)
	if err != nil {
		writeEnvelope(w, http.StatusBadRequest, api.Error{Code: api.CodeBadRequest, Message: "bad path encoding"})
		return
	}
	r2 := r.Clone(r.Context())
	r2.URL.Path = path
	if path == newEsc {
		r2.URL.RawPath = ""
	} else {
		r2.URL.RawPath = newEsc
	}
	t.handler.ServeHTTP(w, r2)
}

func (g *Registry) serveAdmin(w http.ResponseWriter, r *http.Request, esc string) {
	if esc == adminPath {
		switch r.Method {
		case http.MethodPost:
			g.adminCreate(w, r)
		case http.MethodGet:
			summary := g.Summary()
			writeJSON(w, http.StatusOK, api.TenantListResponse{Tenants: summary.Tenants})
		default:
			writeEnvelope(w, http.StatusMethodNotAllowed, api.Error{Code: api.CodeBadRequest, Message: "method not allowed"})
		}
		return
	}
	seg := esc[len(adminPath)+1:]
	id, err := url.PathUnescape(seg)
	if err != nil || strings.Contains(id, "/") {
		writeTenantNotFound(w, clip(id, seg))
		return
	}
	if r.Method != http.MethodDelete {
		writeEnvelope(w, http.StatusMethodNotAllowed, api.Error{Code: api.CodeBadRequest, Message: "method not allowed"})
		return
	}
	purge := r.URL.Query().Get("purge") == "true"
	if err := g.Delete(id, purge); err != nil {
		writeTenantErr(w, err, id)
		return
	}
	writeJSON(w, http.StatusOK, api.TenantDeleteResponse{ID: id, Purged: purge})
}

func (g *Registry) adminCreate(w http.ResponseWriter, r *http.Request) {
	var req api.TenantCreateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeEnvelope(w, http.StatusBadRequest, api.Error{Code: api.CodeBadRequest, Message: "bad request body: " + err.Error()})
		return
	}
	if req.ID == DefaultID {
		writeTenantErr(w, ErrExists, req.ID)
		return
	}
	t, err := g.Create(req.ID)
	if err != nil {
		writeTenantErr(w, err, req.ID)
		return
	}
	st := t.srv.StatsLocal().Serving
	writeJSON(w, http.StatusCreated, api.TenantSummary{
		ID:        t.ID,
		State:     "serving",
		Documents: st.Documents,
		Epoch:     st.Epoch,
	})
}

// writeTenantErr maps registry errors onto the envelope.
func writeTenantErr(w http.ResponseWriter, err error, id string) {
	switch {
	case errors.Is(err, ErrNotFound):
		writeTenantNotFound(w, id)
	case errors.Is(err, ErrExists):
		writeEnvelope(w, http.StatusConflict, api.Error{Code: api.CodeTenantExists, Message: err.Error(), Tenant: id})
	case errors.Is(err, ErrInvalidID), errors.Is(err, ErrReserved):
		writeEnvelope(w, http.StatusBadRequest, api.Error{Code: api.CodeBadRequest, Message: err.Error(), Tenant: id})
	default:
		writeEnvelope(w, http.StatusInternalServerError, api.Error{Code: api.CodeInternal, Message: err.Error(), Tenant: id})
	}
}

func writeTenantNotFound(w http.ResponseWriter, id string) {
	writeEnvelope(w, http.StatusNotFound, api.Error{
		Code:    api.CodeTenantNotFound,
		Message: "tenant " + strconv.Quote(id) + " not found",
		Tenant:  id,
	})
}

// clip prefers the decoded id for error reporting but falls back to
// the raw segment when decoding failed, capped so a hostile path can't
// balloon the envelope.
func clip(id, raw string) string {
	s := id
	if s == "" {
		s = raw
	}
	if len(s) > 2*MaxIDLen {
		s = s[:2*MaxIDLen]
	}
	return s
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeEnvelope(w http.ResponseWriter, status int, e api.Error) {
	if e.RetryAfterMS > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((e.RetryAfterMS+999)/1000, 10))
	}
	e.HTTPStatus = 0
	writeJSON(w, status, api.ErrorBody{Error: e})
}
