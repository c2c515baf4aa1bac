package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// Handler returns the HTTP/JSON API over the session manager:
//
//	POST   /sessions                 create a session (SessionConfig body)
//	GET    /sessions                 list live sessions
//	POST   /sessions/{id}/assert     run a batch (BatchRequest body)
//	POST   /sessions/{id}/retract    same handler; retract-flavored alias
//	POST   /sessions/{id}/program    runtime build/excise (ProgramRequest body)
//	GET    /sessions/{id}/wm         working-memory snapshot
//	POST   /sessions/{id}/snapshot   snapshot + compact the delta log
//	POST   /sessions/{id}/restore    rebuild the session from durable state
//	GET    /sessions/{id}/export     portable session state (ExportPayload)
//	POST   /sessions/import          recreate an exported session here
//	DELETE /sessions/{id}            tear a session down
//	POST   /programs                 register a program by content ({"program": src})
//	GET    /programs                 list registered programs
//	GET    /programs/{hash}          a registered program's source
//	POST   /templates                create a warm template (TemplateConfig body)
//	GET    /templates                list templates
//	POST   /templates/{id}/fork      fork a template into a new session
//	DELETE /templates/{id}           drop a template
//	GET    /metrics                  stats.Snapshot JSON
//	GET    /healthz                  liveness + session and program counts
//
// Session work (create, batch, ...) takes one of Options.Workers slots
// on the request's own goroutine; reads run without one.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", s.timed(s.handleCreate))
	mux.HandleFunc("GET /sessions", s.timed(s.handleList))
	mux.HandleFunc("POST /sessions/{id}/assert", s.timed(s.handleBatch))
	mux.HandleFunc("POST /sessions/{id}/retract", s.timed(s.handleBatch))
	mux.HandleFunc("POST /sessions/{id}/program", s.timed(s.handleProgram))
	mux.HandleFunc("GET /sessions/{id}/wm", s.timed(s.handleWM))
	mux.HandleFunc("POST /sessions/{id}/snapshot", s.timed(s.handleSnapshot))
	mux.HandleFunc("POST /sessions/{id}/restore", s.timed(s.handleRestore))
	mux.HandleFunc("GET /sessions/{id}/export", s.timed(s.handleExport))
	mux.HandleFunc("POST /sessions/import", s.timed(s.handleImport))
	mux.HandleFunc("DELETE /sessions/{id}", s.timed(s.handleDelete))
	mux.HandleFunc("POST /programs", s.timed(s.handleRegisterProgram))
	mux.HandleFunc("GET /programs", s.timed(s.handleListPrograms))
	mux.HandleFunc("GET /programs/{hash}", s.timed(s.handleProgramSource))
	mux.HandleFunc("POST /templates", s.timed(s.handleCreateTemplate))
	mux.HandleFunc("GET /templates", s.timed(s.handleListTemplates))
	mux.HandleFunc("POST /templates/{id}/fork", s.timed(s.handleFork))
	mux.HandleFunc("DELETE /templates/{id}", s.timed(s.handleDeleteTemplate))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Snapshot())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.RLock()
		n, progs, closed := len(s.sessions), len(s.programs), s.closed
		s.mu.RUnlock()
		if closed {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ok": false})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "sessions": n, "programs": progs})
	})
	return mux
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

// handlerErr lets handlers return an error + status for uniform
// accounting in timed.
type handlerFunc func(w http.ResponseWriter, r *http.Request) (status int, err error)

// timed wraps a handler with request metrics.
func (s *Server) timed(h handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		status, err := h(w, r)
		if err != nil {
			writeJSON(w, status, apiError{Error: err.Error()})
		}
		s.met.request(time.Since(start), err != nil)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // client gone is the only failure; nothing to do
}

// statusOf maps server errors to HTTP statuses.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrNoSession), errors.Is(err, ErrNoTemplate):
		return http.StatusNotFound
	case errors.Is(err, ErrTooManySessions):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrNoProgram):
		// 424: the create names a program this backend doesn't hold —
		// register it (POST /programs) and retry.
		return http.StatusFailedDependency
	case errors.Is(err, ErrSessionExists):
		return http.StatusConflict
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrSessionBroken):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// doWork runs fn in a work slot and writes its result with status ok.
func doWork[T any](s *Server, w http.ResponseWriter, r *http.Request, ok int, fn func() (T, error)) (int, error) {
	var (
		res T
		err error
	)
	if werr := s.work(r.Context(), func() { res, err = fn() }); werr != nil {
		return statusOf(werr), werr
	}
	if err != nil {
		return statusOf(err), err
	}
	writeJSON(w, ok, res)
	return ok, nil
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) (int, error) {
	var cfg SessionConfig
	if err := decodeBody(r, &cfg); err != nil {
		return http.StatusBadRequest, err
	}
	if cfg.Program == "" && cfg.ProgramHash == "" {
		return http.StatusBadRequest, errors.New("missing program source (or program_hash)")
	}
	return doWork(s, w, r, http.StatusCreated, func() (*SessionInfo, error) { return s.CreateSession(cfg) })
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) (int, error) {
	writeJSON(w, http.StatusOK, map[string]any{"sessions": s.Sessions()})
	return http.StatusOK, nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) (int, error) {
	id := r.PathValue("id")
	var req BatchRequest
	if err := decodeBody(r, &req); err != nil {
		return http.StatusBadRequest, err
	}
	return doWork(s, w, r, http.StatusOK, func() (*BatchResult, error) { return s.Batch(id, &req) })
}

func (s *Server) handleProgram(w http.ResponseWriter, r *http.Request) (int, error) {
	id := r.PathValue("id")
	var req ProgramRequest
	if err := decodeBody(r, &req); err != nil {
		return http.StatusBadRequest, err
	}
	return doWork(s, w, r, http.StatusOK, func() (*ProgramResult, error) { return s.Program(id, &req) })
}

func (s *Server) handleWM(w http.ResponseWriter, r *http.Request) (int, error) {
	wmes, err := s.WMSnapshot(r.PathValue("id"))
	if err != nil {
		return statusOf(err), err
	}
	writeJSON(w, http.StatusOK, map[string]any{"wmes": wmes, "size": len(wmes)})
	return http.StatusOK, nil
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) (int, error) {
	if err := s.DeleteSession(r.PathValue("id")); err != nil {
		return statusOf(err), err
	}
	w.WriteHeader(http.StatusNoContent)
	return http.StatusNoContent, nil
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) (int, error) {
	id := r.PathValue("id")
	return doWork(s, w, r, http.StatusOK, func() (*SnapshotResult, error) { return s.SnapshotSession(id) })
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) (int, error) {
	id := r.PathValue("id")
	return doWork(s, w, r, http.StatusOK, func() (*SessionInfo, error) { return s.RestoreSession(id) })
}

func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) (int, error) {
	p, err := s.ExportSession(r.PathValue("id"))
	if err != nil {
		return statusOf(err), err
	}
	writeJSON(w, http.StatusOK, p)
	return http.StatusOK, nil
}

// importBody is an ExportPayload as POST /sessions/import decodes it:
// the payload may come from an earlier build, so its config decodes the
// way a stored one does.
type importBody struct {
	ExportPayload
	Config storedConfig `json:"config"`
}

func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) (int, error) {
	var body importBody
	if err := decodeBody(r, &body); err != nil {
		return http.StatusBadRequest, err
	}
	p := body.ExportPayload
	p.Config = body.Config.resolve()
	return doWork(s, w, r, http.StatusCreated, func() (*SessionInfo, error) { return s.ImportSession(&p) })
}

// programBody is the POST /programs request.
type programBody struct {
	Program string `json:"program"`
}

func (s *Server) handleRegisterProgram(w http.ResponseWriter, r *http.Request) (int, error) {
	var body programBody
	if err := decodeBody(r, &body); err != nil {
		return http.StatusBadRequest, err
	}
	return doWork(s, w, r, http.StatusCreated, func() (*ProgramInfo, error) { return s.RegisterProgram(body.Program) })
}

func (s *Server) handleListPrograms(w http.ResponseWriter, r *http.Request) (int, error) {
	writeJSON(w, http.StatusOK, map[string]any{"programs": s.Programs()})
	return http.StatusOK, nil
}

func (s *Server) handleProgramSource(w http.ResponseWriter, r *http.Request) (int, error) {
	src, err := s.ProgramSource(r.PathValue("hash"))
	if err != nil {
		return statusOf(err), err
	}
	writeJSON(w, http.StatusOK, programBody{Program: src})
	return http.StatusOK, nil
}

func (s *Server) handleCreateTemplate(w http.ResponseWriter, r *http.Request) (int, error) {
	var cfg TemplateConfig
	if err := decodeBody(r, &cfg); err != nil {
		return http.StatusBadRequest, err
	}
	return doWork(s, w, r, http.StatusCreated, func() (*TemplateInfo, error) { return s.CreateTemplate(&cfg) })
}

func (s *Server) handleListTemplates(w http.ResponseWriter, r *http.Request) (int, error) {
	writeJSON(w, http.StatusOK, map[string]any{"templates": s.Templates()})
	return http.StatusOK, nil
}

func (s *Server) handleFork(w http.ResponseWriter, r *http.Request) (int, error) {
	id := r.PathValue("id")
	return doWork(s, w, r, http.StatusCreated, func() (*ForkResult, error) { return s.Fork(id) })
}

func (s *Server) handleDeleteTemplate(w http.ResponseWriter, r *http.Request) (int, error) {
	if err := s.DeleteTemplate(r.PathValue("id")); err != nil {
		return statusOf(err), err
	}
	w.WriteHeader(http.StatusNoContent)
	return http.StatusNoContent, nil
}

// decodeBody strictly decodes a JSON request body.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}
