package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/server"
)

// Handler is the proxy's HTTP surface — the same API shape as one
// ops5d, so clients need no changes, plus the cluster-only endpoints:
//
//	POST   /sessions                 create (placed on the least-loaded live backend)
//	GET    /sessions                 merged listing across live backends
//	POST   /sessions/{id}/migrate    move the session ({"target": url-or-index}, empty = auto)
//	*      /sessions/{id}[/...]      forwarded to the session's backend
//	POST   /programs                 register a program cluster-wide ({"program": src})
//	GET    /programs                 the proxy's registry
//	GET    /metrics                  cluster counters + per-backend status
//	GET    /healthz                  proxy liveness + live backend count
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", p.handleCreate)
	mux.HandleFunc("GET /sessions", p.handleList)
	mux.HandleFunc("POST /sessions/{id}/migrate", p.handleMigrate)
	mux.HandleFunc("/sessions/{id}", p.handleSession)
	mux.HandleFunc("/sessions/{id}/{op...}", p.handleSession)
	mux.HandleFunc("POST /programs", p.handleRegister)
	mux.HandleFunc("GET /programs", p.handlePrograms)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, p.Metrics())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		m := p.Metrics()
		var total int64
		for _, b := range m.Backends {
			if b.Up {
				total += b.Sessions
			}
		}
		live := m.Cluster.BackendsLive
		writeJSON(w, http.StatusOK, map[string]any{
			"ok": live > 0, "backends_live": live, "backends": len(p.backends), "sessions": total,
		})
	})
	return mux
}

func (p *Proxy) handleCreate(w http.ResponseWriter, r *http.Request) {
	var cfg server.SessionConfig
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	info, err := p.CreateSession(cfg)
	if err != nil {
		httpError(w, createStatus(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// createStatus maps proxy create errors onto statuses: no-backend
// conditions are 503 (retryable), the rest client errors.
func createStatus(err error) int {
	msg := err.Error()
	if strings.Contains(msg, "no live backends") || strings.Contains(msg, "failed after") {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

func (p *Proxy) handleList(w http.ResponseWriter, r *http.Request) {
	sessions, err := p.Sessions()
	if err != nil {
		httpError(w, http.StatusBadGateway, err)
		return
	}
	if sessions == nil {
		sessions = []server.SessionInfo{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": sessions})
}

func (p *Proxy) handleSession(w http.ResponseWriter, r *http.Request) {
	p.forward(w, r, r.PathValue("id"))
}

func (p *Proxy) handleMigrate(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Target string `json:"target"`
	}
	if r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
	}
	res, err := p.Migrate(r.PathValue("id"), body.Target)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (p *Proxy) handleRegister(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Program string `json:"program"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	hash, err := p.RegisterProgram(body.Program)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"hash": hash})
}

func (p *Proxy) handlePrograms(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Hash     string `json:"hash"`
		SrcBytes int    `json:"src_bytes"`
	}
	p.mu.Lock()
	out := make([]entry, 0, len(p.programs))
	for h, src := range p.programs {
		out = append(out, entry{Hash: h, SrcBytes: len(src)})
	}
	p.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"programs": out})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
