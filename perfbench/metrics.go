package main

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// spec names one printed metric and its unit.
type spec struct {
	name, unit string
}

// endToEnd lists the metrics an untraced run prints, on every workload.
// The unit of work behind wall_s and alloc_mb is one cold sweep pass on
// the sweeps and one round of the fixed request mix on serve-mix.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"alloc_mb", "MB"},
	{"rss_peak_mb", "MB"},
	{"ok_frac", "frac"},
}

// profiledPackages are the layers whose CPU-profile self time is reported
// as <pkg>.self_share; "runtime" covers the Go runtime's allocator and GC.
var profiledPackages = []string{
	"experiments", "sweep", "cpu", "mem", "isa", "trace", "sim", "shard", "core",
	"urt", "netsim", "kvstore", "lpm", "runcache", "report", "server", "runtime",
}

// cumEntries are the entry points whose cumulative CPU-profile share is
// reported: a sample counts once if the function is anywhere on its stack.
var cumEntries = []struct{ metric, function string }{
	{"lpm.GenerateTable.cum_share", "xui/internal/lpm.GenerateTable"},
	{"kvstore.Put.cum_share", "xui/internal/kvstore.(*Store).Put"},
	{"runtime.mallocgc.cum_share", "runtime.mallocgc"},
}

// tier1Caches are the Tier-1 memo caches (runcache names tier1/<name>).
var tier1Caches = []string{"baseline", "checkpoint", "receiver", "senduipi"}

// classes are serve-mix's request classes.
var classes = []string{"hit", "miss", "disk"}

// servePercentiles are the per-class latency percentiles serve-mix reports.
var servePercentiles = []int{50, 90, 99}

// perLayer lists the metrics a traced run prints, on every workload. A
// layer the workload never reaches reads 0: a count or share of nothing,
// or a statistic over zero samples, whose sample count then reads 0 too.
func perLayer() []spec {
	var out []spec
	for _, j := range allJobs() {
		out = append(out, spec{"experiments." + j + ".s", "s"})
	}
	for _, p := range profiledPackages {
		out = append(out, spec{p + ".self_share", "frac"})
	}
	for _, c := range cumEntries {
		out = append(out, spec{c.metric, "frac"})
	}
	out = append(out,
		spec{"trace.tapes.recordings", "count"},
		spec{"trace.tapes.replays", "count"},
		spec{"trace.tapes.mb", "MB"},
	)
	for _, c := range tier1Caches {
		out = append(out, spec{"runcache.tier1-" + c + ".hits", "count"}, spec{"runcache.tier1-" + c + ".misses", "count"})
	}
	out = append(out,
		spec{"lpm.generate_table_ms", "ms"},
		spec{"kvstore.fill_ms", "ms"},
		spec{"lpm.lookup_ns", "ns"},
		spec{"sim.events_fired", "count"},
		spec{"sim.ns_per_event", "ns"},
		spec{"runtime.gc_cycles", "count"},
		spec{"runtime.gc_pause_ms", "ms"},
		spec{"sweep.points", "count"},
		spec{"sweep.job.n", "count"},
		spec{"sweep.job.p50_ms", "ms"},
	)
	for _, c := range classes {
		out = append(out, spec{"serve." + c + ".n", "count"}, spec{"serve." + c + ".time_share", "frac"}, spec{"serve." + c + ".submit_ms", "ms"})
		if c == "miss" {
			out = append(out, spec{"serve.miss.wait_ms", "ms"})
		}
		out = append(out, spec{"serve." + c + ".fetch_ms", "ms"})
		for _, p := range servePercentiles {
			out = append(out, spec{fmt.Sprintf("serve.%s.p%d_ms", c, p), "ms"})
		}
	}
	out = append(out, spec{"serve.rps", "1/s"})
	for _, k := range []string{"hits", "misses", "disk_hits", "disk_stores", "disk_errors"} {
		out = append(out, spec{"runcache.server-jobs." + k, "count"})
	}
	for _, k := range []string{"submitted", "cache_answered", "jobs_done", "shed"} {
		out = append(out, spec{"server." + k, "count"})
	}
	out = append(out,
		spec{"report.fingerprint_ms", "ms"},
		spec{"runcache.disk.load_ms", "ms"},
		spec{"runcache.disk.store_ms", "ms"},
		spec{"server.restart_ms", "ms"},
		spec{"obs.trace_overhead_frac", "frac"},
	)
	return out
}

// validName is the name grammar every metric and workload obeys.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// rank is the 1-based nearest-rank position of the p-th percentile of n
// samples, ceil(p·n/100).
func rank(n, p int) int { return (p*n + 99) / 100 }

// enoughBeyond reports whether n samples leave at least ten beyond their
// p-th percentile; a percentile is printed only then.
func enoughBeyond(n, p int) bool { return n > 0 && n-rank(n, p) >= 10 }

// percentile returns the nearest-rank p-th percentile of xs, and false
// when fewer than ten samples lie beyond it.
func percentile(xs []float64, p int) (float64, bool) {
	if !enoughBeyond(len(xs), p) {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1], true
}

// median returns the middle value of xs (the mean of the middle two for
// an even count), 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// outcome is what one run prints: a fingerprint line, then the result.
type outcome struct {
	attempted, ok int
	values        map[string]float64
	fingerprint   map[string]any

	mu       sync.Mutex
	problems []string // failed assertions, any of which makes the run incorrect; guarded by mu
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, fingerprint: map[string]any{}}
}

// fail records a failed assertion; safe from several goroutines.
func (o *outcome) fail(format string, args ...any) {
	o.mu.Lock()
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
	o.mu.Unlock()
}

// op counts one attempted operation of the workload.
func (o *outcome) op(ok bool) {
	o.attempted++
	if ok {
		o.ok++
	}
}

// set records a printed value.
func (o *outcome) set(name string, v float64) { o.values[name] = v }

// setPercentiles records the latency percentiles ps of the samples ms
// (milliseconds) as <prefix>.p<p>_ms, with their count as <prefix>.n. A
// percentile without ten samples beyond it is not set (see emit).
func (o *outcome) setPercentiles(prefix string, ms []float64, ps ...int) {
	o.set(prefix+".n", float64(len(ms)))
	for _, p := range ps {
		name := fmt.Sprintf("%s.p%d_ms", prefix, p)
		if v, ok := percentile(ms, p); ok {
			o.set(name, v)
		}
	}
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the fingerprint line and then the result line with the
// metrics in specs. With zeroUnset, a metric the run never set reads 0
// (a layer it did not reach), except a percentile of samples too few
// for it, which is left out (see setPercentiles); without zeroUnset, an
// unset metric fails the run.
func (o *outcome) emit(w io.Writer, specs []spec, zeroUnset bool) error {
	for _, s := range specs {
		if _, ok := o.values[s.name]; !ok && !zeroUnset {
			o.fail("metric %s was not measured", s.name)
		}
	}
	res := resultLine{
		Correct:   len(o.problems) == 0 && o.attempted > 0 && o.ok == o.attempted,
		Attempted: o.attempted,
		Failed:    o.attempted - o.ok,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}
	for _, s := range specs {
		v, ok := o.values[s.name]
		if !ok && (!zeroUnset || isPercentile(s.name) && o.values[percentileCount(s.name)] > 0) {
			continue
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	fp, err := json.Marshal(map[string]any{"fingerprint": o.fingerprint})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", fp, line)
	return err
}

// percentileName matches the names of percentile metrics.
var percentileName = regexp.MustCompile(`\.p[0-9]+_ms$`)

func isPercentile(name string) bool { return percentileName.MatchString(name) }

// percentileCount names the sample count printed beside a percentile:
// serve.hit.p99_ms → serve.hit.n.
func percentileCount(name string) string { return name[:strings.LastIndex(name, ".p")] + ".n" }
