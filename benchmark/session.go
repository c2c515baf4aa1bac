package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/server"
)

// outcome is what the oracle compares: every timed session must
// reproduce its reference's cycles, final WM size and firing digest.
type outcome struct {
	cycles int
	wmSize int
	digest [sha256.Size]byte // over rule[timetags] of every firing, in order
}

// firingDigest accumulates the firing trace hash.
type firingDigest struct {
	h   hash.Hash
	buf []byte
}

func newFiringDigest() *firingDigest { return &firingDigest{h: sha256.New()} }

func (d *firingDigest) add(rule string, tags []int) {
	b := append(d.buf[:0], rule...)
	b = append(b, '[')
	for i, t := range tags {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(t), 10)
	}
	b = append(b, ']', '\n')
	d.h.Write(b)
	d.buf = b
}

func (d *firingDigest) sum() (out [sha256.Size]byte) {
	d.h.Sum(out[:0])
	return out
}

// recorder collects one client's samples. Each client owns one, so it
// needs no lock; they are merged when the window ends.
type recorder struct {
	tr      *tracer // nil unless this window is traced
	opNs    []int64 // caller-observed latency of every op
	startNs []int64 // request-to-ready of every session start

	sessions, ops, failedOps int
	cycles, changes          int64
	reqBytes, respBytes      int64
}

func (r *recorder) op(session string, start, end time.Time, engineNs int64) {
	r.opNs = append(r.opNs, int64(end.Sub(start)))
	if r.tr != nil {
		r.tr.record(layerClient, kindOp, session, start, end, engineNs)
	}
}

func (r *recorder) started(start, end time.Time) {
	r.startNs = append(r.startNs, int64(end.Sub(start)))
	if r.tr != nil {
		r.tr.record(layerClient, kindStart, "", start, end, 0)
	}
}

func (r *recorder) merge(o *recorder) {
	r.opNs = append(r.opNs, o.opNs...)
	r.startNs = append(r.startNs, o.startNs...)
	r.sessions += o.sessions
	r.ops += o.ops
	r.failedOps += o.failedOps
	r.cycles += o.cycles
	r.changes += o.changes
	r.reqBytes += o.reqBytes
	r.respBytes += o.respBytes
}

// sessionAPI is the serving surface a session drives: the HTTP API for
// the workloads, direct *server.Server calls for the ledger references.
type sessionAPI interface {
	// start creates (or forks) a session and reports how many WM changes
	// that made (a program's top-level makes; a fork makes none).
	start() (id string, changes int, err error)
	batch(id string, req *server.BatchRequest) (res *server.BatchResult, reqBytes, respBytes int, err error)
	end(id string) error
}

// httpAPI speaks the /sessions API to one base URL, ops5d's or the
// proxy's. startBody nil means startPath is a template fork.
type httpAPI struct {
	c         *http.Client
	base      string
	startPath string
	startBody []byte
}

// do issues one JSON request. A non-2xx status is an error: every op of
// these workloads is expected to succeed.
func (a *httpAPI) do(method, path string, body []byte, out any) (respBytes int, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, a.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := a.c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return len(raw), fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return len(raw), fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return len(raw), nil
}

func (a *httpAPI) start() (string, int, error) {
	var info server.SessionInfo
	if _, err := a.do(http.MethodPost, a.startPath, a.startBody, &info); err != nil {
		return "", 0, err
	}
	if a.startBody == nil {
		return info.ID, 0, nil
	}
	return info.ID, info.WMSize, nil
}

func (a *httpAPI) batch(id string, req *server.BatchRequest) (*server.BatchResult, int, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, 0, err
	}
	var res server.BatchResult
	n, err := a.do(http.MethodPost, "/sessions/"+id+"/assert", body, &res)
	return &res, len(body), n, err
}

func (a *httpAPI) end(id string) error {
	_, err := a.do(http.MethodDelete, "/sessions/"+id, nil, nil)
	return err
}

// directAPI forks and drives sessions by calling the server in-process.
type directAPI struct {
	srv      *server.Server
	template string
}

func (a *directAPI) start() (string, int, error) {
	res, err := a.srv.Fork(a.template)
	if err != nil {
		return "", 0, err
	}
	return res.ID, 0, nil
}

func (a *directAPI) batch(id string, req *server.BatchRequest) (*server.BatchResult, int, int, error) {
	res, err := a.srv.Batch(id, req)
	return res, 0, 0, err
}

func (a *directAPI) end(id string) error { return a.srv.DeleteSession(id) }

// errRunaway reports a paper-program session that is still running long
// after its reference halted.
var errRunaway = errors.New("session did not halt within twice its reference's ops")

// runSession plays one whole session — start, ops, end — and returns
// what the oracle checks. With keep set the session is left alive and
// its ID returned (the recovery check reads it back later). opLimit
// bounds a paper-program session; 0 means none is known yet.
func runSession(api sessionAPI, sc *script, ordinal, opLimit int, rec *recorder, keep bool) (out outcome, id string, err error) {
	rec.sessions++
	t0 := time.Now()
	id, changes, err := api.start()
	if err != nil {
		return out, "", fmt.Errorf("start: %w", err)
	}
	rec.started(t0, time.Now())
	rec.changes += int64(changes)

	digest := newFiringDigest()
	stream := sc.stream(ordinal)
	var holdTags []int
	for n := 0; ; n++ {
		req := &server.BatchRequest{MaxCycles: sc.maxCycles}
		if stream != nil {
			if n == len(stream) {
				break
			}
			for _, f := range stream[n] {
				req.Asserts = append(req.Asserts, f.input())
			}
			if n >= ledgerHoldLag {
				req.Retracts = []int{holdTags[n-ledgerHoldLag]}
			}
		} else if opLimit > 0 && n >= opLimit {
			return out, id, errRunaway
		}
		rec.ops++
		t0 := time.Now()
		res, reqBytes, respBytes, err := api.batch(id, req)
		if err != nil {
			return out, id, fmt.Errorf("op %d: %w", n, err)
		}
		rec.op(id, t0, time.Now(), res.ElapsedUs*1000)
		rec.reqBytes += int64(reqBytes)
		rec.respBytes += int64(respBytes)
		rec.cycles += int64(res.Cycles)
		rec.changes += int64(len(res.WMAdded) + len(res.WMRemoved))
		out.cycles += res.Cycles
		out.wmSize = res.WMSize
		for _, f := range res.Firings {
			digest.add(f.Rule, f.TimeTags)
		}
		if stream != nil {
			tag := 0
			for _, w := range res.WMAdded {
				if isHold(w.Text) {
					tag = w.TimeTag
				}
			}
			if tag == 0 {
				return out, id, fmt.Errorf("op %d: reply reports no hold time tag", n)
			}
			holdTags = append(holdTags, tag)
		} else if res.Halted || !res.LimitHit {
			break
		}
	}
	out.digest = digest.sum()
	if keep {
		return out, id, nil
	}
	if err := api.end(id); err != nil {
		return out, "", fmt.Errorf("end: %w", err)
	}
	return out, "", nil
}
