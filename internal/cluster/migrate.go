package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/server"
)

// Session migration: move a live session between backends with no
// visible state change. The route's write lock is the whole fence —
// in-flight requests drain (they hold it shared), new requests block,
// and by the time the lock releases the route names the target. The
// moved state is the server's ExportPayload: a versioned snapshot of
// WM, refraction, conflict/time-tag state and pending (accept) input,
// restored on the target through the same machinery crash recovery
// uses, so firing behavior after the move is byte-identical.

// MigrateResult reports one migration.
type MigrateResult struct {
	ID        string `json:"id"`
	From      string `json:"from"`
	To        string `json:"to"`
	WMSize    int    `json:"wm_size"`
	ElapsedUs int64  `json:"elapsed_us"`
}

// Migrate moves session id to the named target backend (base URL or
// its index as a string; empty picks the least-loaded live backend
// other than the current holder).
func (p *Proxy) Migrate(id, target string) (*MigrateResult, error) {
	rt, err := p.resolve(id)
	if err != nil {
		return nil, err
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	src := rt.backend

	dst, err := p.pickTarget(id, src, target)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := p.migrateLocked(id, src, dst)
	if err != nil {
		return nil, err
	}
	rt.backend = dst
	d := time.Since(start)
	p.mu.Lock()
	p.met.Migrations++
	p.migHist.Observe(d)
	p.mu.Unlock()
	res.ElapsedUs = d.Microseconds()
	return res, nil
}

// pickTarget resolves the migration destination: explicit URL/index,
// or the least-loaded live backend that isn't the source.
func (p *Proxy) pickTarget(id string, src int, target string) (int, error) {
	if target == "" {
		if n := p.leastLoaded(src); n >= 0 {
			return n, nil
		}
		return -1, fmt.Errorf("no live backend to migrate %q to", id)
	}
	for n, b := range p.backends {
		if b.url == target || fmt.Sprint(n) == target {
			if n == src {
				return -1, fmt.Errorf("session %q is already on %s", id, b.url)
			}
			if !b.isUp() {
				return -1, fmt.Errorf("target backend %s is down", b.url)
			}
			return n, nil
		}
	}
	return -1, fmt.Errorf("unknown target backend %q", target)
}

// migrateLocked runs the export → import → delete sequence. Caller
// holds the route write lock. On any failure the session stays on the
// source and the route is unchanged; a half-imported target copy is
// deleted best-effort.
func (p *Proxy) migrateLocked(id string, src, dst int) (*MigrateResult, error) {
	var payload json.RawMessage
	status, err := p.backendDo("GET", p.backends[src].url+"/sessions/"+id+"/export", nil, &payload)
	if err != nil {
		p.countMigrateFail()
		return nil, fmt.Errorf("export from %s: %w (status %d)", p.backends[src].url, err, status)
	}
	var meta server.ExportPayload
	if err := json.Unmarshal(payload, &meta); err != nil {
		p.countMigrateFail()
		return nil, fmt.Errorf("export payload: %w", err)
	}
	// The payload carries the source, so the import compiles through
	// the target's shared cache with no push.
	if _, err := p.backendDo("POST", p.backends[dst].url+"/sessions/import", payload, nil); err != nil {
		p.countMigrateFail()
		return nil, fmt.Errorf("import to %s: %w", p.backends[dst].url, err)
	}
	p.addLoad(dst, 1)
	// Source delete is best-effort: the route flip already isolates the
	// stale copy, and a dead source drops it on its own.
	if st, derr := p.backendDo("DELETE", p.backends[src].url+"/sessions/"+id, nil, nil); derr == nil && st == http.StatusNoContent {
		p.addLoad(src, -1)
	}
	return &MigrateResult{
		ID:     id,
		From:   p.backends[src].url,
		To:     p.backends[dst].url,
		WMSize: meta.WMSize,
	}, nil
}

func (p *Proxy) countMigrateFail() {
	p.mu.Lock()
	p.met.MigrationFails++
	p.mu.Unlock()
}
