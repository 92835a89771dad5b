package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the checks read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestMetricNames checks every metric the benchmark can print: a valid
// name, a unit, no name used twice, and no percentile among the
// end-to-end metrics.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, group := range [][]spec{endToEnd, perLayer()} {
		for _, s := range group {
			if !validName.MatchString(s.name) {
				t.Errorf("metric name %q does not match %s", s.name, validName)
			}
			if !validUnit.MatchString(s.unit) {
				t.Errorf("metric %s has unit %q", s.name, s.unit)
			}
			if seen[s.name] {
				t.Errorf("metric %s is printed twice", s.name)
			}
			seen[s.name] = true
		}
	}
	for _, s := range endToEnd {
		if isPercentile(s.name) {
			t.Errorf("end-to-end metric %s is a percentile", s.name)
		}
	}
	for _, w := range workloads {
		if !validName.MatchString(w.name) {
			t.Errorf("workload name %q does not match %s", w.name, validName)
		}
	}
}

// TestBenchmarkFileMatches checks that BENCHMARK.json lists exactly the
// workloads and metrics this program prints, with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	if got, want := strings.Join(names, "|"), workloadNames(); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program runs %s", got, want)
	}
	check := func(group string, got []spec, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", group, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, program prints %v", group, i, got[i], want[i])
			}
		}
	}
	var e2e, layer []spec
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, spec{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, spec{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer())
}

// TestPercentileRule checks that a percentile needs ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct{ p, enough int }{{50, 20}, {90, 100}, {99, 1000}} {
		xs := make([]float64, c.enough)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		if _, ok := percentile(xs[:c.enough-1], c.p); ok {
			t.Errorf("p%d of %d samples was allowed", c.p, c.enough-1)
		}
		v, ok := percentile(xs, c.p)
		if !ok {
			t.Errorf("p%d of %d samples was refused", c.p, c.enough)
		}
		if beyond := c.enough - int(v); beyond != 10 {
			t.Errorf("p%d of 1..%d = %v leaves %d beyond it, want 10", c.p, c.enough, v, beyond)
		}
	}
	o := newOutcome()
	o.setPercentiles("serve.hit", make([]float64, 50), 50, 90, 99)
	o.setPercentiles("serve.disk", nil, 50, 90, 99)
	var buf bytes.Buffer
	if err := o.emit(&buf, perLayer(), true); err != nil {
		t.Fatal(err)
	}
	res := lastLine(t, buf.Bytes())
	if _, ok := res.Metrics["serve.hit.p50_ms"]; !ok {
		t.Error("p50 of 50 samples was left out")
	}
	for _, name := range []string{"serve.hit.p90_ms", "serve.hit.p99_ms"} {
		if _, ok := res.Metrics[name]; ok {
			t.Errorf("%s printed from 50 samples", name)
		}
	}
	if m, ok := res.Metrics["serve.disk.p99_ms"]; !ok || m.Value != 0 {
		t.Errorf("a class with no samples should read 0, got %v", m)
	}
}

// lastLine decodes a run's result line and checks its exact keys.
func lastLine(t *testing.T, out []byte) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := []byte(lines[len(lines)-1])
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(last, &keys); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Fatalf("last line has keys %v", keys)
	}
	var res resultLine
	if err := json.Unmarshal(last, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestProbesShort runs every layer probe in its short mode.
func TestProbesShort(t *testing.T) {
	o := newOutcome()
	probeFixtures(o, shortProbes, 3)
	payloads := []any{map[string]int{"rows": 1}, []string{"a", "b"}}
	names := []string{"table2", "fig2"}
	var docs [][]byte
	for i, n := range names {
		doc, err := resultDoc(n, payloads[i])
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	if err := probeServing(o, shortProbes, t.TempDir(), names, payloads, docs); err != nil {
		t.Fatal(err)
	}
	for _, p := range o.problems {
		t.Error(p)
	}
	for _, name := range []string{"lpm.generate_table_ms", "lpm.lookup_ns", "kvstore.fill_ms", "report.fingerprint_ms", "runcache.disk.store_ms", "runcache.disk.load_ms"} {
		if v := o.values[name]; !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("%s = %v", name, v)
		}
	}
}

// burn keeps a CPU busy in a function the profile test can find.
func burn(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestProfileReduce checks the pprof reduction on a real CPU profile.
func TestProfileReduce(t *testing.T) {
	p, err := startProfile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	burn(300 * time.Millisecond)
	prof, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	if prof.total == 0 || len(prof.flat) == 0 {
		t.Fatal("no samples in the profile")
	}
	// A test binary names package main by its import path.
	self, cum := prof.shares([]string{"xui/perfbench.burn"})
	if cum["xui/perfbench.burn"] < 0.5 {
		t.Errorf("burn's cumulative share = %v, want most of the profile", cum["xui/perfbench.burn"])
	}
	var sum float64
	for _, s := range self {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("self shares sum to %v, want 1", sum)
	}
	for fn, want := range map[string]string{
		"xui/internal/cpu.(*Core).step":                        "cpu",
		"runtime.mallocgc":                                     "runtime",
		"internal/runtime/maps.(*Map).getWithKey":              "runtime",
		"xui/internal/sweep.RunOpts[go.shape.struct {}]":       "sweep",
		"xui/internal/runcache.(*Cache[go.shape.[]uint8]).Get": "runcache",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestServeMixShort runs serve-mix briefly, untraced and traced, through
// the command line.
func TestServeMixShort(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, trace := range []string{"0", "1"} {
		var out, errb bytes.Buffer
		if code := run([]string{"--workload", "serve-mix", "--seed", "5", "--seconds", "1", "--trace", trace}, &out, &errb); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errb.String())
		}
		res := lastLine(t, out.Bytes())
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("trace %s: correct=%v attempted=%d failed=%d: %s", trace, res.Correct, res.Attempted, res.Failed, errb.String())
		}
		specs := endToEnd
		if trace == "1" {
			specs = perLayer()
		}
		for _, s := range specs {
			m, ok := res.Metrics[s.name]
			if !ok {
				if !isPercentile(s.name) {
					t.Errorf("trace %s: %s missing", trace, s.name)
				}
				continue
			}
			if m.Unit != s.unit {
				t.Errorf("%s unit %q, want %q", s.name, m.Unit, s.unit)
			}
			if trace == "0" && !(m.Value > 0) {
				t.Errorf("end-to-end %s = %v", s.name, m.Value)
			}
			if isPercentile(s.name) {
				var p int
				if _, err := fmt.Sscanf(s.name[strings.LastIndex(s.name, ".p"):], ".p%d_ms", &p); err != nil {
					t.Fatal(err)
				}
				n := int(res.Metrics[percentileCount(s.name)].Value)
				if !(n == 0 && m.Value == 0) && !enoughBeyond(n, p) {
					t.Errorf("%s printed from %d samples", s.name, n)
				}
			}
		}
		if trace == "1" {
			disk := res.Metrics["serve.disk.n"].Value
			if hits := res.Metrics["runcache.server-jobs.disk_hits"].Value; disk == 0 || hits != disk {
				t.Errorf("disk hits %v for %v disk-class requests", hits, disk)
			}
			var share float64
			for _, c := range classes {
				share += res.Metrics["serve."+c+".time_share"].Value
			}
			if share < 0.999 || share > 1.001 {
				t.Errorf("class time shares sum to %v, want 1", share)
			}
		}
	}
}

// TestReferenceReproduces recomputes every job with caching off and the
// invariant checker attached, and compares against reference.json. A
// change that alters rows on purpose regenerates the file with
// `go run . -write-reference reference.json`.
func TestReferenceReproduces(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every job uncached")
	}
	want, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	got, err := recordReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range allJobs() {
		if got.Digests[j] != want.Digests[j] {
			t.Errorf("%s: digest %s, reference %s", j, got.Digests[j], want.Digests[j])
		}
	}
}
