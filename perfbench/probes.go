package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"xui/internal/kvstore"
	"xui/internal/lpm"
	"xui/internal/obs"
	"xui/internal/runcache"
	"xui/internal/sim"
)

// benchPid is the trace process the benchmark's own spans go to, beside
// the program's Tier1Pid, Tier2Pid and SweepPid.
const benchPid = 4

// spans records the benchmark's own wall-clock spans, one per call into
// the program; spans of one request share its "req" id. A nil *spans
// records nothing.
type spans struct {
	tr    *obs.Tracer
	epoch time.Time
}

func (s *spans) record(tid uint32, name string, req uint64, start, end time.Time) {
	if s == nil {
		return
	}
	cy := func(t time.Time) uint64 {
		return uint64(float64(t.Sub(s.epoch).Nanoseconds()) * obs.CyclesPerMicrosecond / 1e3)
	}
	s.tr.Span(benchPid, tid, name, "perfbench", cy(start), cy(end), map[string]any{"req": req})
}

// probeSizes scales the layer probes; short is for the self-check test.
type probeSizes struct {
	reps, routes, lookupAddrs, lookups, kvPuts int
}

var (
	fullProbes  = probeSizes{reps: 3, routes: 16000, lookupAddrs: 2000, lookups: 1 << 21, kvPuts: 20000}
	shortProbes = probeSizes{reps: 1, routes: 500, lookupAddrs: 100, lookups: 1 << 12, kvPuts: 500}
)

// timeMs runs f reps times and returns the median duration in ms.
func timeMs(reps int, f func()) float64 {
	var ms []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(ms)
}

// routeSeed is the seed fig8 and scale build their route tables with.
const routeSeed = 7

// referenceRoutes replays lpm.GenerateTable's route sequence into the
// naive lpm.Reference, so Table lookups can be checked against it.
func referenceRoutes(n int, seed uint64) *lpm.Reference {
	ref := &lpm.Reference{}
	rng := sim.NewRNG(seed)
	for b := 0; b < 256; b++ {
		ref.Add(uint32(b)<<24, 8, uint16(b%128))
	}
	lengths := []int{16, 20, 22, 24, 24, 24, 28, 32}
	for i := 0; i < n; i++ {
		ip := uint32(rng.Uint64())
		l := lengths[rng.Intn(len(lengths))]
		nh := uint16(rng.Intn(lpm.MaxNextHop))
		ref.Add(ip, l, nh)
	}
	return ref
}

// lookupSink keeps the timed lookups from being optimised away.
var lookupSink uint16

// probeFixtures times the Tier-2 fixtures: the route table fig8 and scale
// build, lookups in it (checked against lpm.Reference), and fig7's
// key-value store fill.
func probeFixtures(o *outcome, sz probeSizes, seed uint64) {
	var table *lpm.Table
	o.set("lpm.generate_table_ms", timeMs(sz.reps, func() { table = lpm.GenerateTable(sz.routes, routeSeed) }))

	ref := referenceRoutes(sz.routes, routeSeed)
	rng := sim.NewRNG(seed)
	addrs := make([]uint32, sz.lookupAddrs)
	for i := range addrs {
		addrs[i] = uint32(rng.Uint64())
		got, ok := table.Lookup(addrs[i])
		want, wantOK := ref.Lookup(addrs[i])
		if got != want || ok != wantOK {
			o.fail("lpm lookup %#x: table says %d/%v, reference %d/%v", addrs[i], got, ok, want, wantOK)
			return
		}
	}
	ns := timeMs(sz.reps, func() {
		for i := 0; i < sz.lookups; i++ {
			nh, _ := table.Lookup(addrs[i%len(addrs)])
			lookupSink += nh
		}
	}) * 1e6 / float64(sz.lookups)
	o.set("lpm.lookup_ns", ns)

	var store *kvstore.Store
	o.set("kvstore.fill_ms", timeMs(sz.reps, func() {
		store = kvstore.Open(5)
		for i := 0; i < sz.kvPuts; i++ {
			store.Put([]byte(fmt.Sprintf("user%08d", i)), []byte(fmt.Sprintf("profile-%d", i)))
		}
	}))
	last := sz.kvPuts - 1
	if v, ok := store.Get([]byte(fmt.Sprintf("user%08d", last))); !ok || string(v) != fmt.Sprintf("profile-%d", last) {
		o.fail("kvstore: key %d not found after the fill", last)
	}
}

// probeServing times the serving layers on the workload's own results:
// encoding the result documents, and storing and loading documents of
// that size in a runcache.Disk tier under dir.
func probeServing(o *outcome, sz probeSizes, dir string, names []string, payloads []any, docs [][]byte) error {
	o.set("report.fingerprint_ms", timeMs(sz.reps, func() {
		for i, name := range names {
			if _, err := resultDoc(name, payloads[i]); err != nil {
				o.fail("encoding %s: %v", name, err)
			}
		}
	}))
	disk, err := runcache.NewDisk(dir, "perfbench-probe")
	if err != nil {
		return err
	}
	var store, load []float64
	for rep := 0; rep < sz.reps; rep++ {
		for i, doc := range docs {
			key := fmt.Sprintf("%s/%d", names[i], rep)
			start := time.Now()
			err := disk.Store("probe", key, doc)
			mid := time.Now()
			got, ok := disk.Load("probe", key)
			end := time.Now()
			if err != nil || !ok || string(got) != string(doc) {
				o.fail("disk tier round trip of %s failed (err=%v)", key, err)
			}
			store = append(store, float64(mid.Sub(start).Nanoseconds())/1e6)
			load = append(load, float64(end.Sub(mid).Nanoseconds())/1e6)
		}
	}
	o.set("runcache.disk.store_ms", median(store))
	o.set("runcache.disk.load_ms", median(load))
	return nil
}

// runProbes runs every layer probe at full size.
func runProbes(o *outcome, cfg config, payloads []any, names []string, docs [][]byte) error {
	probeFixtures(o, fullProbes, cfg.seed)
	return probeServing(o, fullProbes, filepath.Join(cfg.scratch, "disk-probe"), names, payloads, docs)
}

// setSweepMetrics derives the sweep-engine metrics from a registry
// snapshot covering passes passes: grid points per pass, and the median
// grid-point time, taken as the point-weighted median of the per-sweep
// job_us medians.
func setSweepMetrics(o *outcome, snap obs.Snapshot, passes float64) {
	var points float64
	for k, v := range snap.Counters {
		if strings.HasPrefix(k, "sweep/") && strings.HasSuffix(k, "/jobs_total") {
			points += float64(v)
		}
	}
	type p50 struct {
		us float64
		n  uint64
	}
	var ps []p50
	var total uint64
	for k, h := range snap.Histograms {
		if strings.HasPrefix(k, "sweep/") && strings.HasSuffix(k, "/job_us") && h.Count > 0 {
			ps = append(ps, p50{float64(h.P50), h.Count})
			total += h.Count
		}
	}
	o.set("sweep.points", points/passes)
	o.set("sweep.job.n", float64(total))
	if !enoughBeyond(int(total), 50) {
		return
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].us < ps[j].us })
	var seen uint64
	for _, p := range ps {
		seen += p.n
		if 2*seen >= total {
			o.set("sweep.job.p50_ms", p.us/1e3)
			return
		}
	}
}
