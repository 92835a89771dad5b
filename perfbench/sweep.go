package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"xui/internal/experiments"
	"xui/internal/obs"
	"xui/internal/runcache"
	"xui/internal/trace"
)

// setupReps is the least number of times a run repeats its set-up;
// setup_s is the median. A sweep repeats its set-up setupsPerPass times
// before each pass.
const (
	setupReps     = 5
	setupsPerPass = 2
)

// coldReset brings the process back to the state a fresh xuibench
// process starts a pass in: no memoized runs, no recorded tapes, and a
// collected heap whose free pages are returned to the OS, so each pass
// and set-up faults in its memory as a fresh process does.
func coldReset() {
	runcache.ResetAll()
	trace.ResetTapes()
	debug.FreeOSMemory()
}

// passStats is one cold pass over a sweep's jobs.
type passStats struct {
	wall      float64            // seconds across the RunJob calls
	job       map[string]float64 // seconds per RunJob call
	allocMB   float64            // heap bytes allocated during the pass
	gcCycles  float64
	gcPauseMs float64
	payloads  []any
}

// runPass runs one cold pass and checks each job's result document
// against the reference digest, after the timed region. sp (nil when
// untraced) records one span per RunJob call.
func runPass(jobs []string, ref reference, o *outcome, sp *spans, req *uint64) passStats {
	coldReset()
	ps := passStats{job: map[string]float64{}, payloads: make([]any, len(jobs))}
	errs := make([]error, len(jobs))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i, j := range jobs {
		t := time.Now()
		ps.payloads[i], errs[i] = runJob(j)
		end := time.Now()
		ps.job[j] = end.Sub(t).Seconds()
		*req++
		sp.record(0, "RunJob "+j, *req, t, end)
	}
	ps.wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	ps.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	ps.gcCycles = float64(m1.NumGC - m0.NumGC)
	ps.gcPauseMs = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	for i, j := range jobs {
		ok := errs[i] == nil
		if ok {
			doc, err := resultDoc(j, ps.payloads[i])
			ok = err == nil && digest(doc) == ref.Digests[j]
		}
		if !ok {
			o.fail("%s: result differs from the reference (err=%v)", j, errs[i])
		}
		o.op(ok)
	}
	return ps
}

// runPasses repeats cold passes until seconds have elapsed, at least one.
func runPasses(jobs []string, seconds float64, ref reference, o *outcome, sp *spans, req *uint64) []passStats {
	var out []passStats
	start := time.Now()
	for len(out) == 0 || time.Since(start).Seconds() < seconds {
		out = append(out, runPass(jobs, ref, o, sp, req))
	}
	return out
}

func field(ps []passStats, f func(passStats) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// setMemoMetrics records the tape registry and the Tier-1 memo caches'
// counters, which cover the work since the last coldReset.
func setMemoMetrics(o *outcome) {
	tapes := trace.Tapes()
	o.set("trace.tapes.recordings", float64(tapes.Recordings))
	o.set("trace.tapes.replays", float64(tapes.Replays))
	o.set("trace.tapes.mb", float64(tapes.Bytes)/1e6)
	for _, s := range runcache.Snapshot() {
		for _, c := range tier1Caches {
			if s.Name == "tier1/"+c {
				o.set("runcache.tier1-"+c+".hits", float64(s.Hits))
				o.set("runcache.tier1-"+c+".misses", float64(s.Misses))
			}
		}
	}
}

// sweepSetup is one repetition of a sweep's set-up: reset to cold, then
// run the workload's cheapest job and check it — the time from a cold
// process state to a first verified result, in seconds. The reset is not
// timed: a fresh process does not pay it.
func sweepSetup(w workload, ref reference, o *outcome) float64 {
	coldReset()
	start := time.Now()
	d, err := jobDigest(w.warmup)
	s := time.Since(start).Seconds()
	if err != nil || d != ref.Digests[w.warmup] {
		o.fail("set-up job %s differs from the reference (err=%v)", w.warmup, err)
	}
	return s
}

// runSweep runs a sweep workload. Untraced, it times set-ups and cold
// passes for the whole run. Traced, it times untraced passes under a CPU profile for
// half the run — the profile is kept off the traced passes, whose
// per-event registry counters would skew the split — then traced passes
// for the other half, then the layer probes.
func runSweep(w workload, cfg config, o *outcome) error {
	experiments.SetWorkers(1)
	experiments.SetShards(1)
	ref, err := loadReference()
	if err != nil {
		return err
	}
	o.fingerprint["jobs"] = w.jobs
	o.fingerprint["seed_changes_inputs"] = false
	var req uint64
	if !cfg.trace {
		// Set-ups before each pass, so their repetitions sample the
		// whole run as the passes do; at least setupReps of them.
		var setups []float64
		var passes []passStats
		start := time.Now()
		for len(passes) == 0 || time.Since(start).Seconds() < cfg.seconds {
			for i := 0; i < setupsPerPass; i++ {
				setups = append(setups, sweepSetup(w, ref, o))
			}
			passes = append(passes, runPass(w.jobs, ref, o, nil, &req))
		}
		for len(setups) < setupReps {
			setups = append(setups, sweepSetup(w, ref, o))
		}
		o.set("setup_s", median(setups))
		o.fingerprint["setup_s"] = setups
		o.fingerprint["passes"] = len(passes)
		o.fingerprint["pass_wall_s"] = field(passes, func(p passStats) float64 { return p.wall })
		o.set("wall_s", median(field(passes, func(p passStats) float64 { return p.wall })))
		o.set("alloc_mb", median(field(passes, func(p passStats) float64 { return p.allocMB })))
		return nil
	}

	prof, err := startProfile(cfg.scratch)
	if err != nil {
		return err
	}
	plain := runPasses(w.jobs, cfg.seconds/2, ref, o, nil, &req)
	cpuProf, err := prof.stop()
	if err != nil {
		return err
	}
	for _, j := range w.jobs {
		o.set("experiments."+j+".s", median(field(plain, func(p passStats) float64 { return p.job[j] })))
	}
	plainWall := median(field(plain, func(p passStats) float64 { return p.wall }))

	tracePath := filepath.Join(cfg.scratch, "trace.json")
	tr, err := obs.StreamFile(tracePath)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	experiments.SetObservability(&obs.Context{Trace: tr, Metrics: reg})
	sp := &spans{tr: tr, epoch: time.Now()}
	tr.NameProcess(benchPid, "perfbench")
	traced := runPasses(w.jobs, cfg.seconds/2, ref, o, sp, &req)
	experiments.SetObservability(nil)
	if err := tr.Close(); err != nil {
		return fmt.Errorf("closing trace: %w", err)
	}
	o.fingerprint["passes"] = map[string]int{"untraced": len(plain), "traced": len(traced)}
	n := float64(len(traced))

	setMemoMetrics(o)
	snap := reg.Snapshot()
	events := float64(snap.Counters["sim/events_fired"]) / n
	o.set("sim.events_fired", events)
	if events > 0 {
		o.set("sim.ns_per_event", plainWall*1e9/events)
	}
	o.set("runtime.gc_cycles", median(field(traced, func(p passStats) float64 { return p.gcCycles })))
	o.set("runtime.gc_pause_ms", median(field(traced, func(p passStats) float64 { return p.gcPauseMs })))
	setSweepMetrics(o, snap, n)
	o.set("obs.trace_overhead_frac", median(field(traced, func(p passStats) float64 { return p.wall }))/plainWall-1)

	setProfileShares(o, cpuProf)
	var docs [][]byte
	last := traced[len(traced)-1]
	for i, j := range w.jobs {
		doc, err := resultDoc(j, last.payloads[i])
		if err != nil {
			return err
		}
		docs = append(docs, doc)
	}
	return runProbes(o, cfg, last.payloads, w.jobs, docs)
}
