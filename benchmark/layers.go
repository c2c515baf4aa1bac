package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/wmlog"
)

// twinSessions is how many sessions the direct-engine twin plays. Its
// counts are exact after one; the times want a few.
const twinSessions = 3

// counters is the serving side's own bookkeeping at one instant.
type counters struct {
	backends []stats.Snapshot
}

func (e *env) counters() counters {
	var c counters
	if e.fleet != nil {
		for _, srv := range e.fleet.servers {
			c.backends = append(c.backends, srv.Snapshot())
		}
	}
	return c
}

// perLayerValues computes the traced pass's metrics: span self times
// from the traced window, counter deltas from the servers and the proxy
// over that window, and engine-level numbers from the twin.
func (e *env) perLayerValues(untraced, traced *window, before, after counters, recoverNs int64) (values, error) {
	v := values{}
	wl := e.cfg.wl
	ops := float64(traced.rec.ops)

	// Spans. Self time = span − the part its child covers.
	var spans []span
	if e.tr != nil {
		spans = e.tr.spans
	}
	lt := selfTimes(joinOps(spans))
	v["client.self_us_p50"] = us(p50(lt.clientSelf))
	v["trace.overhead_share"] = 1 - ratio(
		ratio(float64(traced.rec.changes), traced.wall.Seconds()),
		ratio(float64(untraced.rec.changes), untraced.wall.Seconds()))
	v["cluster.proxy_self_us_p50"] = us(p50(lt.proxySelf))
	v["cluster.hop_us_p50"] = us(p50(lt.hop))
	v["cluster.create_self_us_p50"] = us(p50(startSelfTimes(spans, layerProxy, layerHop)))
	if wl.path != pathLib {
		v["server.handler_self_us_p50"] = us(p50(lt.handlerSelf))
		v["server.engine_us_p50"] = us(p50(lt.engine))
		start := ms(p50(kindDurations(spans, layerServer, kindStart)))
		if wl.path == pathDurable {
			v["server.fork_ms_p50"] = start
		} else {
			v["server.create_ms_p50"] = start
		}
		v["server.req_bytes_per_op"] = ratio(float64(traced.rec.reqBytes), ops)
		v["server.resp_bytes_per_op"] = ratio(float64(traced.rec.respBytes), ops)
	}
	// The layers' median self times should add up to the traced median
	// op: a share far from 1 means a boundary is missing a span.
	sum := p50(lt.clientSelf) + p50(lt.proxySelf) + p50(lt.hop) + p50(lt.handlerSelf) + p50(lt.engine)
	v["trace.self_sum_share"] = ratio(sum, p50(traced.rec.opNs))

	// Counters over the traced window.
	var dur stats.Durability
	var placed []float64
	for i := range after.backends {
		b, a := &before.backends[i], &after.backends[i]
		v["server.program_compiles"] = max(v["server.program_compiles"], float64(a.Server.ProgramCompiles))
		v["server.request_errors"] += float64(a.Server.RequestErrors - b.Server.RequestErrors)
		placed = append(placed, float64(a.Server.SessionsCreated-b.Server.SessionsCreated))
		d := a.Durability
		d.LogRecords -= b.Durability.LogRecords
		d.LogBytes -= b.Durability.LogBytes
		d.Fsyncs -= b.Durability.Fsyncs
		d.FsyncUs -= b.Durability.FsyncUs
		d.Snapshots -= b.Durability.Snapshots
		d.SnapshotBytes -= b.Durability.SnapshotBytes
		dur.Add(&d)
	}
	if e.fleet != nil && e.fleet.proxy != nil {
		// Cumulative since the fleet started, so the one push per backend
		// that set-up paid shows against the creates that hit.
		c := e.fleet.proxy.Metrics().Cluster
		v["cluster.program_cache_hit_rate"] = ratio(float64(c.ProgramCacheHits), float64(c.ProgramCacheHits+c.ProgramPushes))
		v["cluster.retries"] = float64(c.Retries)
		v["cluster.reroutes"] = float64(c.ReRoutes)
		total := 0.0
		for _, n := range placed {
			total += n
		}
		v["cluster.backend_skew"] = ratio(slices.Max(placed), total/float64(len(placed)))
	}
	if wl.path == pathDurable {
		v["wmlog.records_per_op"] = ratio(float64(dur.LogRecords), ops)
		v["wmlog.bytes_per_wm_change"] = ratio(float64(dur.LogBytes), float64(traced.rec.changes))
		v["wmlog.fsyncs_per_op"] = ratio(float64(dur.Fsyncs), ops)
		v["wmlog.fsync_us_mean"] = ratio(float64(dur.FsyncUs), float64(dur.Fsyncs))
		v["wmlog.snapshot_bytes_mean"] = ratio(float64(dur.SnapshotBytes), float64(dur.Snapshots))
		v["wmlog.recover_ms"] = ms(float64(recoverNs))
		perRecord, err := e.appendCost()
		if err != nil {
			return nil, fmt.Errorf("wmlog append timing: %w", err)
		}
		v["wmlog.append_us_per_record"] = us(perRecord)
	}

	if err := e.frontEnd(v); err != nil {
		return nil, err
	}
	return v, e.twin(v)
}

// frontEnd times the parse and both network compiles a program cache
// miss pays (the server compiles the planned and the source-order
// network), as the median of three.
func (e *env) frontEnd(v values) error {
	var parse, comp []int64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		prog, err := ops5.Parse(e.src)
		if err != nil {
			return err
		}
		t1 := time.Now()
		net, err := rete.CompileWithPlan(prog, rete.PlanConfig{Reorder: true})
		if err != nil {
			return err
		}
		if _, err := rete.Compile(prog); err != nil {
			return err
		}
		parse = append(parse, int64(t1.Sub(t0)))
		comp = append(comp, int64(time.Since(t1)))
		v["rete.join_nodes"] = float64(net.Summarize().Joins)
	}
	v["ops5.parse_ms"] = ms(p50(parse))
	v["rete.compile_ms"] = ms(p50(comp))
	return nil
}

// twinRun is the twin's sessions on one matcher, summed.
type twinRun struct {
	engineRun               // counters and times added up; mem holds maxima
	opsNs, opCycles float64 // engine time of all ops, and their cycles
	cpu, wall       time.Duration
}

// playTwin plays twinSessions sessions of the workload on engines built
// here, one at a time. Each must reproduce its reference like any
// session.
func (e *env) playTwin(c *compiled, matcher string) (*twinRun, error) {
	sum := &twinRun{}
	cpu0, t0 := cpuTime(), time.Now()
	for k := 0; k < twinSessions; k++ {
		run, err := runEngineSession(c, matcher, &e.sc, e.base, k, e.opLimit, nil)
		if err != nil {
			return nil, fmt.Errorf("twin: %w", err)
		}
		if want := e.refs[k%len(e.refs)]; !e.cfg.corruptRef && run.outcome != want {
			return nil, fmt.Errorf("twin on %s misses its reference: %d cycles, want %d", matcher, run.cycles, want.cycles)
		}
		sum.opNs = append(sum.opNs, run.opNs...)
		sum.initNs += run.initNs
		sum.matchNs += run.matchNs
		sum.rhsInstr += run.rhsInstr
		sum.changes += run.changes
		sum.match.Add(&run.match)
		sum.conf.Add(&run.conf)
		sum.cont.Add(&run.cont)
		sum.mem.Resizes += run.mem.Resizes
		sum.mem.MaxLineDepth = max(sum.mem.MaxLineDepth, run.mem.MaxLineDepth)
		sum.opCycles += float64(run.cycles)
		for _, ns := range run.opNs {
			sum.opsNs += float64(ns)
		}
	}
	sum.cpu, sum.wall = cpuTime()-cpu0, time.Since(t0)
	return sum, nil
}

// twin reads the engine's and the matcher's own timers and counters off
// the direct-engine twin of the workload's sessions.
func (e *env) twin(v values) error {
	wl := e.cfg.wl
	c, err := compile(e.src)
	if err != nil {
		return err
	}
	sum, err := e.playTwin(c, wl.matcher)
	if err != nil {
		return err
	}
	opsNs, cycles := sum.opsNs, sum.opCycles

	v["engine.run_us_per_cycle"] = us(ratio(opsNs, cycles))
	v["engine.nonmatch_share"] = 1 - ratio(float64(sum.matchNs), opsNs)
	v["engine.rhs_instr_per_cycle"] = ratio(float64(sum.rhsInstr), cycles)
	v["engine.wm_changes_per_cycle"] = ratio(float64(sum.changes), cycles)
	v["engine.init_ms"] = ms(float64(sum.initNs) / twinSessions)
	if wl.path != pathLib {
		// What the server adds to the engine's own work under the session
		// lock: its reported elapsed_us less the twin's time for the same op.
		v["server.batch_overhead_us_p50"] = v["server.engine_us_p50"] - us(p50(sum.opNs))
	}

	m := &sum.match
	layer := "seqmatch"
	if wl.matcher == "parallel" {
		layer = "parmatch"
		// The paper's speed-up: the same sessions' match time on vs2 over
		// their match time on the parallel matcher.
		vs2, err := e.playTwin(c, "vs2")
		if err != nil {
			return err
		}
		v["parmatch.speedup_vs_vs2"] = ratio(float64(vs2.matchNs), float64(sum.matchNs))
		v["parmatch.cpu_per_wall"] = ratio(float64(sum.cpu), float64(sum.wall))
		ct := &sum.cont
		v["taskqueue.spins_per_acquire"] = ratio(float64(ct.QueueSpins), float64(ct.QueueAcquires))
		v["taskqueue.steal_share"] = ratio(float64(ct.Steals), float64(m.Activations))
		v["taskqueue.overflow_share"] = ratio(float64(ct.Overflows), float64(ct.LocalPushes+ct.Overflows))
		v["hashmem.line_spins_per_acquire"] = ratio(float64(ct.LineSpinsLeft+ct.LineSpinsRight),
			float64(ct.LineAcquiresLeft+ct.LineAcquiresRight))
	} else {
		// The paper's Tables 4-1..4-3, which it too takes from the
		// sequential matcher.
		v["seqmatch.activations_per_wm_change"] = ratio(float64(m.Activations), float64(m.WMChanges))
		v["seqmatch.opp_examined_per_act"] = ratio(float64(m.OppExaminedLeft+m.OppExaminedRight),
			float64(m.OppNonEmptyLeft+m.OppNonEmptyRight))
		v["seqmatch.same_examined_per_delete"] = ratio(float64(m.SameExaminedLeft+m.SameExaminedRight),
			float64(m.DeletesLeft+m.DeletesRight))
		v["seqmatch.const_tests_per_wm_change"] = ratio(float64(m.ConstTests), float64(m.WMChanges))
	}
	v[layer+".match_share"] = ratio(float64(sum.matchNs), opsNs)
	v[layer+".us_per_activation"] = us(ratio(float64(sum.matchNs), float64(m.Activations)))
	v["hashmem.max_line_depth"] = float64(sum.mem.MaxLineDepth)
	v["hashmem.resizes"] = float64(sum.mem.Resizes)

	cf := &sum.conf
	v["conflict.select_scanned_per_select"] = ratio(float64(cf.SelectScanned), float64(cf.Selects))
	v["conflict.shard_spins_per_acquire"] = ratio(float64(cf.ShardSpins), float64(cf.ShardAcquires))
	v["conflict.annihilation_share"] = ratio(float64(cf.Annihilations), float64(cf.Deletes))
	return nil
}

// appendCost times the journal alone: one ledger session is played on a
// durable server that never compacts, and its whole log is re-appended
// through a fresh wmlog.Writer under the same sync policy, committing as
// often as the session's batches did. Returns ns per record.
func (e *env) appendCost() (float64, error) {
	dir := filepath.Join(e.cfg.dataDir, "append")
	srv := server.New(server.Options{DataDir: dir, Durability: "commit"})
	defer srv.Close()
	if _, err := srv.EnableDurability(); err != nil {
		return 0, err
	}
	tpl, err := srv.CreateTemplate(templateConfig(e.src, e.base))
	if err != nil {
		return 0, err
	}
	_, id, err := runSession(&directAPI{srv: srv, template: tpl.ID}, &e.sc, 0, 0, &recorder{}, true)
	if err != nil {
		return 0, err
	}
	logPath := wmlog.LogPath(filepath.Join(dir, string(wmlog.KindSession), id))
	log, err := wmlog.ReadAll(logPath, 0)
	if err != nil {
		return 0, err
	}
	if len(log.Records) == 0 {
		return 0, fmt.Errorf("session %s left an empty log", id)
	}
	w, err := wmlog.Create(filepath.Join(dir, "reappend.log"), log.ProgHash, wmlog.SyncCommit, 0)
	if err != nil {
		return 0, err
	}
	perCommit := max(len(log.Records)/ledgerBatches, 1)
	t0 := time.Now()
	for i := range log.Records {
		if err := w.Append(log.Records[i]); err != nil {
			w.Close()
			return 0, err
		}
		if (i+1)%perCommit == 0 {
			if err := w.Commit(); err != nil {
				w.Close()
				return 0, err
			}
		}
	}
	ns := float64(time.Since(t0))
	if err := w.Close(); err != nil {
		return 0, err
	}
	return ns / float64(len(log.Records)), nil
}
