package main

import (
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded from this package only, around the public entry
// points of each layer: the client's call, proxy.Handler(), the proxy's
// backend RoundTripper, and srv.Handler(). The product code carries no
// trace IDs yet (ROADMAP item 3), so spans of one request are joined by
// session ID plus the request's ordinal within that session at each
// layer: a session has one request in flight, so the Nth batch a layer
// sees for a session is the client's Nth batch.

type layer uint8

const (
	layerClient layer = iota
	layerProxy        // proxy.Handler()
	layerHop          // proxy -> backend RoundTrip, through the response body
	layerServer       // srv.Handler()
	numLayers
)

type opKind uint8

const (
	kindOp      opKind = iota // POST /sessions/{id}/assert — one op
	kindStart                 // POST /sessions, POST /templates/{id}/fork
	kindProgram               // POST /programs — a proxy create may push one first
	kindOther                 // deletes, health probes, template builds
)

type span struct {
	layer      layer
	kind       opKind
	session    string // kindOp only
	seq        int    // ordinal of this op within (layer, session)
	start, end int64  // ns since the tracer's epoch
	// engineNs is the server-reported elapsed_us of the reply (lib: the
	// engine's own Result.Elapsed), set on client spans: the innermost
	// child, known only as a duration.
	engineNs int64
}

type seqKey struct {
	layer   layer
	session string
}

// tracer keeps spans in memory until the run ends. The wrappers stay
// installed for the whole traced invocation; on gates recording so one
// fleet serves both the untraced and the traced window.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
	seq   map[seqKey]int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), seq: make(map[seqKey]int)}
}

func (t *tracer) record(l layer, k opKind, session string, start, end time.Time, engineNs int64) {
	s := span{layer: l, kind: k, session: session, engineNs: engineNs,
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	if k == kindOp {
		key := seqKey{l, session}
		s.seq = t.seq[key]
		t.seq[key] = s.seq + 1
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// classify maps a request onto a span kind and, for ops, its session.
func classify(method, path string) (opKind, string) {
	if method != http.MethodPost {
		return kindOther, ""
	}
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(parts) == 1 && parts[0] == "sessions":
		return kindStart, ""
	case len(parts) == 1 && parts[0] == "programs":
		return kindProgram, ""
	case len(parts) == 3 && parts[0] == "templates" && parts[2] == "fork":
		return kindStart, ""
	case len(parts) == 3 && parts[0] == "sessions" && parts[2] == "assert":
		return kindOp, parts[1]
	}
	return kindOther, ""
}

// wrap records one span per request served by h.
func (t *tracer) wrap(l layer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		kind, session := classify(r.Method, r.URL.Path)
		t.record(l, kind, session, start, time.Now(), 0)
	})
}

// transport is the proxy's backend RoundTripper. Its span runs until the
// response body is closed: RoundTrip itself returns at the response
// headers, which a backend flushing a large reply sends before its
// handler span has ended.
type transport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tt.t.on.Load() {
		return tt.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	kind, session := classify(req.Method, req.URL.Path)
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		tt.t.record(layerHop, kind, session, start, time.Now(), 0)
	}}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	done func()
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// selfTime is the part of [start, end) that no child interval covers.
// Children may overlap each other and stick out of the parent.
func selfTime(start, end int64, children [][2]int64) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i][0] < children[j][0] })
	self, at := end-start, start
	for _, c := range children {
		lo, hi := max(c[0], at), min(c[1], end)
		if hi > lo {
			self -= hi - lo
			at = hi
		}
	}
	return self
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of an ascending
// slice; 0 for an empty one.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// tailPercentile is the highest of p99/p95/p90 that has at least ten
// samples beyond it among n, or the median when none has: a tail read
// off fewer samples than that is one slow request, not a distribution.
func tailPercentile(n int) float64 {
	for _, pct := range []int{99, 95, 90} {
		if n*(100-pct)/100 >= 10 {
			return float64(pct) / 100
		}
	}
	return 0.50
}

func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// p50 of unsorted samples, in the caller's unit.
func p50(v []int64) float64 { return float64(percentile(sortedCopy(v), 0.50)) }

// opTrace is one op's spans across the layers, joined on (session, seq).
// Layers the request never crossed stay nil.
type opTrace [numLayers]*span

// joinOps groups the op spans by request.
func joinOps(spans []span) []opTrace {
	type key struct {
		session string
		seq     int
	}
	idx := make(map[key]int)
	var ops []opTrace
	for i := range spans {
		s := &spans[i]
		if s.kind != kindOp {
			continue
		}
		k := key{s.session, s.seq}
		n, ok := idx[k]
		if !ok {
			n = len(ops)
			idx[k] = n
			ops = append(ops, opTrace{})
		}
		ops[n][s.layer] = s
	}
	return ops
}

// layerTimes are per-op self times by layer, ns, over the traced window.
type layerTimes struct {
	clientSelf, proxySelf, hop, handlerSelf, engine []int64
}

// selfTimes splits each traced op's latency into layer self times.
// Every span's only child is the next layer's span, so self time is the
// span minus what that child covers; the engine is the innermost child
// and is known only by its duration.
func selfTimes(ops []opTrace) layerTimes {
	var lt layerTimes
	child := func(s *span) [][2]int64 {
		if s == nil {
			return nil
		}
		return [][2]int64{{s.start, s.end}}
	}
	for _, op := range ops {
		c := op[layerClient]
		if c == nil {
			continue
		}
		lt.engine = append(lt.engine, c.engineNs)
		outer := op[layerProxy]
		if outer == nil {
			outer = op[layerServer]
		}
		if outer == nil { // lib: the engine is the client's only child
			lt.clientSelf = append(lt.clientSelf, c.end-c.start-c.engineNs)
			continue
		}
		lt.clientSelf = append(lt.clientSelf, selfTime(c.start, c.end, child(outer)))
		if p, h := op[layerProxy], op[layerHop]; p != nil && h != nil {
			lt.proxySelf = append(lt.proxySelf, selfTime(p.start, p.end, child(h)))
			lt.hop = append(lt.hop, selfTime(h.start, h.end, child(op[layerServer])))
		}
		if s := op[layerServer]; s != nil {
			lt.handlerSelf = append(lt.handlerSelf, s.end-s.start-c.engineNs)
		}
	}
	return lt
}

// startSelfTimes returns, for every session-start span of layer l, its
// duration minus what the child-layer start spans inside it cover.
// Starts carry no session ID at the inner layers, so children are found
// by containment; a child that two overlapping parents contain is
// ambiguous and both parents are dropped.
func startSelfTimes(spans []span, l, childLayer layer) []int64 {
	var parents, kids []*span
	for i := range spans {
		s := &spans[i]
		if s.layer == l && s.kind == kindStart {
			parents = append(parents, s)
		} else if s.layer == childLayer && (s.kind == kindStart || s.kind == kindProgram) {
			kids = append(kids, s)
		}
	}
	var out []int64
	for i, p := range parents {
		var cover [][2]int64
		ambiguous := false
		for _, k := range kids {
			if k.start < p.start || k.end > p.end {
				continue
			}
			for j, q := range parents {
				if j != i && k.start >= q.start && k.end <= q.end {
					ambiguous = true
				}
			}
			cover = append(cover, [2]int64{k.start, k.end})
		}
		if !ambiguous {
			out = append(out, selfTime(p.start, p.end, cover))
		}
	}
	return out
}

// kindDurations lists the durations of layer l's spans of one kind.
func kindDurations(spans []span, l layer, k opKind) []int64 {
	var out []int64
	for i := range spans {
		if spans[i].layer == l && spans[i].kind == k {
			out = append(out, spans[i].end-spans[i].start)
		}
	}
	return out
}
