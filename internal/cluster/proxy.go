// Package cluster is the session fabric's availability and migration
// tier: a routing proxy (cmd/ops5proxy) that places each new session on
// the least-loaded live ops5d backend, keeps a cluster-wide registry
// of program sources (pushed to a backend when it answers a create by
// hash with 424) so each program compiles once per backend no matter
// how many sessions use it, and migrates live sessions between backends
// via the durability layer's versioned snapshots. The proxy holds soft
// state only — a route cache, the program registry, health views — all
// reconstructible by probing the backends, so proxies can restart (or
// run in multiples) without losing the cluster.
package cluster

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ops5"
	"repro/internal/server"
	"repro/internal/stats"
)

// Options configure a Proxy.
type Options struct {
	// Backends are the ops5d base URLs (e.g. "http://127.0.0.1:8701").
	Backends []string
	// HealthEvery is the health-probe interval (default 2s).
	HealthEvery time.Duration
	// Client issues all backend requests (default: 10s timeout).
	Client *http.Client
}

func (o *Options) fill() {
	if o.HealthEvery <= 0 {
		o.HealthEvery = 2 * time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 10 * time.Second}
	}
}

// backendState is the proxy's soft view of one ops5d.
type backendState struct {
	url string

	mu       sync.Mutex
	up       bool
	sessions int64 // load estimate: healthz count + local delta
}

// route maps one session ID to its backend. The per-route RWMutex is
// the migration fence: forwards hold it shared, a migration holds it
// exclusive, so the flip happens with no request in flight and every
// later request sees the new backend.
type route struct {
	mu      sync.RWMutex
	backend int
}

// Proxy is the routing tier. It is stateless in the durability sense:
// everything it holds is reconstructible from the backends (routes by
// discovery, liveness by probing). Which programs a backend holds is
// the backend's to say: a create by hash it cannot serve answers 424,
// and the proxy pushes the source then.
type Proxy struct {
	opt      Options
	backends []*backendState
	client   *http.Client
	nonce    string // distinguishes this proxy's generated session IDs

	mu       sync.Mutex
	met      stats.Cluster
	migHist  stats.Histogram
	nextID   uint64
	programs map[string]string // hash -> source, the cluster registry

	routesMu sync.RWMutex
	routes   map[string]*route

	// placeMu serializes place, so concurrent creates each see the
	// load the one before them added.
	placeMu sync.Mutex

	stop chan struct{}
	loop sync.WaitGroup // the health loop, once Start launched it
	once sync.Once
}

// New builds a proxy over the given backends. Call Start to begin
// health probing (the constructor probes once synchronously so the
// proxy is usable immediately).
func New(opt Options) (*Proxy, error) {
	opt.fill()
	if len(opt.Backends) == 0 {
		return nil, errors.New("cluster: no backends")
	}
	p := &Proxy{
		opt:      opt,
		client:   opt.Client,
		nonce:    newNonce(),
		programs: make(map[string]string),
		routes:   make(map[string]*route),
		stop:     make(chan struct{}),
	}
	for _, u := range opt.Backends {
		p.backends = append(p.backends, &backendState{url: strings.TrimRight(u, "/")})
	}
	p.CheckNow()
	return p, nil
}

func newNonce() string {
	var b [3]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "p0"
	}
	return "p" + hex.EncodeToString(b[:])
}

// Start launches the background health loop.
func (p *Proxy) Start() {
	p.loop.Add(1)
	go func() {
		defer p.loop.Done()
		t := time.NewTicker(p.opt.HealthEvery)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.CheckNow()
			}
		}
	}()
}

// Close stops the health loop and waits for it; a proxy that was never
// started closes at once.
func (p *Proxy) Close() {
	p.once.Do(func() { close(p.stop) })
	p.loop.Wait()
}

// healthzBody is the part of ops5d's GET /healthz the proxy reads.
type healthzBody struct {
	OK       bool  `json:"ok"`
	Sessions int64 `json:"sessions"`
}

// CheckNow probes every backend once, updating liveness and load.
func (p *Proxy) CheckNow() {
	var wg sync.WaitGroup
	for _, b := range p.backends {
		wg.Add(1)
		go func(b *backendState) {
			defer wg.Done()
			p.probe(b)
		}(b)
	}
	wg.Wait()
}

func (p *Proxy) probe(b *backendState) {
	p.count(func(c *stats.Cluster) { c.HealthChecks++ })
	var h healthzBody
	ok := false
	resp, err := p.client.Get(b.url + "/healthz")
	if err == nil {
		err = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&h)
		resp.Body.Close()
		ok = err == nil && resp.StatusCode == http.StatusOK && h.OK
	}
	if !ok {
		p.count(func(c *stats.Cluster) { c.HealthFails++ })
	}
	b.mu.Lock()
	if ok != b.up {
		p.count(func(c *stats.Cluster) { c.Transitions++ })
	}
	b.up = ok
	if ok {
		b.sessions = h.Sessions
	}
	b.mu.Unlock()
}

func (p *Proxy) count(f func(*stats.Cluster)) {
	p.mu.Lock()
	f(&p.met)
	p.mu.Unlock()
}

// isUp reads the backend's liveness.
func (b *backendState) isUp() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.up
}

// addLoad moves the backend's load estimate by d sessions, never
// below zero.
func (p *Proxy) addLoad(n int, d int64) {
	b := p.backends[n]
	b.mu.Lock()
	b.sessions = max(b.sessions+d, 0)
	b.mu.Unlock()
}

// leastLoaded returns the live backend other than skip with the lowest
// load estimate (its last healthz count plus the proxy's own adds and
// removes since), ties to the lowest index; -1 when there is none.
func (p *Proxy) leastLoaded(skip int) int {
	best, bestLoad := -1, int64(0)
	for n, b := range p.backends {
		b.mu.Lock()
		up, load := b.up, b.sessions
		b.mu.Unlock()
		if up && n != skip && (best < 0 || load < bestLoad) {
			best, bestLoad = n, load
		}
	}
	return best
}

// place picks the backend for a new session, the least-loaded live one,
// and counts the session against it at once so a concurrent create sees
// it; a create that then fails takes it back with addLoad(n, -1).
// Returns -1 when no backend is live.
func (p *Proxy) place() int {
	p.placeMu.Lock()
	defer p.placeMu.Unlock()
	n := p.leastLoaded(-1)
	if n >= 0 {
		p.addLoad(n, 1)
	}
	return n
}

// routeFor returns the cached route for a session, or nil.
func (p *Proxy) routeFor(id string) *route {
	p.routesMu.RLock()
	rt := p.routes[id]
	p.routesMu.RUnlock()
	return rt
}

// setRoute installs (or returns the already-installed) route.
func (p *Proxy) setRoute(id string, backend int) *route {
	p.routesMu.Lock()
	defer p.routesMu.Unlock()
	if rt, ok := p.routes[id]; ok {
		return rt
	}
	rt := &route{backend: backend}
	p.routes[id] = rt
	return rt
}

func (p *Proxy) dropRoute(id string) {
	p.routesMu.Lock()
	delete(p.routes, id)
	p.routesMu.Unlock()
}

// discover finds which backend holds a session the proxy has no route
// for (proxy restart, session created out of band): probe the live
// backends in index order with GET /sessions/{id}/wm until one answers
// non-404.
func (p *Proxy) discover(id string) (int, error) {
	p.count(func(c *stats.Cluster) { c.Discoveries++ })
	for n, b := range p.backends {
		if !b.isUp() {
			continue
		}
		resp, err := p.client.Get(b.url + "/sessions/" + id + "/wm")
		if err != nil {
			continue
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			return n, nil
		}
	}
	return -1, fmt.Errorf("session %q not found on any live backend", id)
}

// resolve returns the session's route, discovering it on a cache miss.
func (p *Proxy) resolve(id string) (*route, error) {
	if rt := p.routeFor(id); rt != nil {
		return rt, nil
	}
	n, err := p.discover(id)
	if err != nil {
		return nil, err
	}
	return p.setRoute(id, n), nil
}

// backendDo issues one JSON request against a backend and decodes the
// response into out (when non-nil). Returns the HTTP status; a
// transport error returns status 0.
func (p *Proxy) backendDo(method, url string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, err
	}
	if resp.StatusCode >= 400 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return resp.StatusCode, errors.New(e.Error)
		}
		return resp.StatusCode, fmt.Errorf("backend %s %s: status %d", method, url, resp.StatusCode)
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// markDown flags a backend dead immediately (a forward failed at the
// transport level); the health loop will bring it back.
func (p *Proxy) markDown(n int) {
	b := p.backends[n]
	b.mu.Lock()
	if b.up {
		b.up = false
		p.count(func(c *stats.Cluster) { c.Transitions++ })
	}
	b.mu.Unlock()
}

// hashOf is the registry key: hex SHA-256 of the source, identical to
// the backends' program hash.
func hashOf(src string) string {
	h := sha256.Sum256([]byte(src))
	return hex.EncodeToString(h[:])
}

// RegisterProgram stores source in the cluster registry and returns
// its hash. The first registration of a hash parses the source, so the
// registry holds no program a backend would refuse to parse; a hash
// already registered is not parsed again. Nothing is sent to a backend:
// the first create by that hash on each backend gets a 424 and pushes
// the source then.
func (p *Proxy) RegisterProgram(src string) (string, error) {
	if src == "" {
		return "", errors.New("missing program source")
	}
	hash := hashOf(src)
	p.mu.Lock()
	_, dup := p.programs[hash]
	p.mu.Unlock()
	if dup {
		return hash, nil
	}
	if _, err := ops5.Parse(src); err != nil {
		return "", fmt.Errorf("parse: %w", err)
	}
	p.mu.Lock()
	if _, dup := p.programs[hash]; !dup {
		p.programs[hash] = src
		p.met.ProgramsRegistered++
	}
	p.mu.Unlock()
	return hash, nil
}

// CreateSession places a session on the cluster: resolve the program
// (inline source auto-registers; a hash must be pre-registered), place
// it on the least-loaded live backend, create by hash, and cache the
// route. Transport failures mark the backend down and place the session
// again.
func (p *Proxy) CreateSession(cfg server.SessionConfig) (*server.SessionInfo, error) {
	var hash, src string
	switch {
	case cfg.Program != "" && cfg.ProgramHash != "":
		return nil, errors.New("program and program_hash are mutually exclusive")
	case cfg.Program != "":
		var err error
		if hash, err = p.RegisterProgram(cfg.Program); err != nil {
			return nil, err
		}
		src, cfg.Program = cfg.Program, ""
	case cfg.ProgramHash != "":
		hash = cfg.ProgramHash
		p.mu.Lock()
		src = p.programs[hash]
		p.mu.Unlock()
		if src == "" {
			return nil, fmt.Errorf("program %s not registered (POST /programs first)", hash)
		}
	default:
		return nil, errors.New("missing program source (or program_hash)")
	}

	id := cfg.ID
	if id == "" {
		p.mu.Lock()
		p.nextID++
		id = fmt.Sprintf("%s-%06d", p.nonce, p.nextID)
		p.mu.Unlock()
	}
	cfg.ID = id
	cfg.ProgramHash = hash
	body, _ := json.Marshal(&cfg)

	prev := -1
	for attempt := 0; attempt < len(p.backends); attempt++ {
		n := p.place()
		if n < 0 {
			return nil, errors.New("no live backends")
		}
		if attempt > 0 {
			p.count(func(c *stats.Cluster) {
				c.Retries++
				if n != prev {
					c.ReRoutes++
				}
			})
		}
		prev = n
		var info server.SessionInfo
		status, err := p.createOn(n, body, src, &info)
		if err != nil {
			p.addLoad(n, -1)
			if status == 0 {
				p.markDown(n)
				continue
			}
			return nil, err
		}
		p.setRoute(id, n)
		p.count(func(c *stats.Cluster) { c.SessionsRouted++ })
		return &info, nil
	}
	return nil, fmt.Errorf("session create failed after %d backends", len(p.backends))
}

// createOn sends a create by hash to backend n. A 424 means the backend
// does not hold the program (its first create of it, or it restarted):
// push the source there and send the create once more. Returns the
// last status, 0 on a transport failure.
func (p *Proxy) createOn(n int, body []byte, src string, info *server.SessionInfo) (int, error) {
	url := p.backends[n].url
	status, err := p.backendDo("POST", url+"/sessions", body, info)
	if status != http.StatusFailedDependency {
		if err == nil {
			p.count(func(c *stats.Cluster) { c.ProgramCacheHits++ })
		}
		return status, err
	}
	push, _ := json.Marshal(map[string]string{"program": src})
	if status, err = p.backendDo("POST", url+"/programs", push, nil); err != nil {
		// A backend that answers but rejects the program (it fails to
		// compile) would on every backend: surface it.
		return status, err
	}
	p.count(func(c *stats.Cluster) { c.ProgramPushes++ })
	return p.backendDo("POST", url+"/sessions", body, info)
}

// forward proxies one session-scoped request to the session's backend.
// Every attempt — the first and both rediscovery retries — goes through
// doRouted, which holds the route read lock across the backend call, so
// a concurrent migration serializes against it. The response streams
// back verbatim.
func (p *Proxy) forward(w http.ResponseWriter, r *http.Request, id string) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	rt, err := p.resolve(id)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	p.count(func(c *stats.Cluster) { c.Forwards++ })

	n, status, data, hdr, err := p.doRouted(rt, r.Method, r.URL.Path, body)
	if status == 0 {
		// Backend gone mid-request; one rediscovery attempt (the session
		// may have been migrated or the backend replaced).
		p.markDown(n)
		p.count(func(c *stats.Cluster) { c.Retries++ })
		p.dropRoute(id)
		rt2, rerr := p.resolve(id)
		if rerr != nil {
			httpError(w, http.StatusBadGateway, fmt.Errorf("backend unreachable: %v", err))
			return
		}
		n, status, data, hdr, err = p.doRouted(rt2, r.Method, r.URL.Path, body)
		if status == 0 {
			httpError(w, http.StatusBadGateway, fmt.Errorf("backend unreachable: %v", err))
			return
		}
	}
	if status == http.StatusNotFound && p.routeFor(id) != nil {
		// Stale route (session moved without us): rediscover once.
		p.dropRoute(id)
		if rt2, rerr := p.resolve(id); rerr == nil {
			if n2, s2, d2, h2, e2 := p.doRouted(rt2, r.Method, r.URL.Path, body); s2 != 0 && e2 == nil {
				n, status, data, hdr = n2, s2, d2, h2
			}
		}
	}
	if r.Method == http.MethodDelete && status == http.StatusNoContent {
		p.dropRoute(id)
		p.addLoad(n, -1)
	}
	if ct := hdr.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(status)
	_, _ = w.Write(data)
}

// doRouted issues one request against the backend rt names, holding
// rt's read lock from reading the backend until the response is in.
// That span is the migration write fence: Migrate takes the same lock
// exclusively, so it waits for every in-flight forward to finish before
// it exports, and a forward that arrives during a migration blocks here
// and then reads the flipped route — it can never land on the source
// after export and be discarded with the stale copy. Returns the
// backend used alongside rawDo's results.
func (p *Proxy) doRouted(rt *route, method, path string, body []byte) (int, int, []byte, http.Header, error) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	n := rt.backend
	status, data, hdr, err := p.rawDo(method, p.backends[n].url+path, body)
	return n, status, data, hdr, err
}

// rawDo issues a request and returns status, body and headers without
// interpreting errors (forwarding wants the backend's response as-is).
// A transport failure returns status 0.
func (p *Proxy) rawDo(method, url string, body []byte) (int, []byte, http.Header, error) {
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, data, resp.Header, nil
}

// Sessions merges the live backends' session listings.
func (p *Proxy) Sessions() ([]server.SessionInfo, error) {
	var out []server.SessionInfo
	for n, b := range p.backends {
		if !b.isUp() {
			continue
		}
		var lst struct {
			Sessions []server.SessionInfo `json:"sessions"`
		}
		if _, err := p.backendDo("GET", p.backends[n].url+"/sessions", nil, &lst); err != nil {
			continue
		}
		out = append(out, lst.Sessions...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// BackendStatus is one backend's row in the proxy's metrics view.
type BackendStatus struct {
	URL      string `json:"url"`
	Up       bool   `json:"up"`
	Sessions int64  `json:"sessions"`
}

// MetricsSnapshot is GET /metrics on the proxy.
type MetricsSnapshot struct {
	Cluster          stats.Cluster        `json:"cluster"`
	MigrationLatency stats.LatencySummary `json:"migration_latency"`
	Backends         []BackendStatus      `json:"backends"`
	Routes           int                  `json:"routes_cached"`
	Programs         int                  `json:"programs_registered"`
}

// Metrics returns the proxy's point-in-time counters.
func (p *Proxy) Metrics() MetricsSnapshot {
	p.mu.Lock()
	snap := MetricsSnapshot{
		Cluster:          p.met,
		MigrationLatency: p.migHist.Summary(),
		Programs:         len(p.programs),
	}
	p.mu.Unlock()
	snap.Cluster.BackendsLive, snap.Cluster.BackendsDown = 0, 0
	for _, b := range p.backends {
		b.mu.Lock()
		st := BackendStatus{URL: b.url, Up: b.up, Sessions: b.sessions}
		b.mu.Unlock()
		if st.Up {
			snap.Cluster.BackendsLive++
		} else {
			snap.Cluster.BackendsDown++
		}
		snap.Backends = append(snap.Backends, st)
	}
	p.routesMu.RLock()
	snap.Routes = len(p.routes)
	p.routesMu.RUnlock()
	return snap
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
