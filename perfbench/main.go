// Command perfbench is the repository benchmark. It drives the simulator
// only through public entry points — experiments.RunJob for the sweeps
// and server.New(cfg).Handler() on a loopback listener for the daemon —
// checks every output against committed reference digests, and prints
// its metrics, each with its unit, as the last line of standard output.
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload tier1-sweep --seed 1 --seconds 20 --trace 0
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//	tier1-sweep  cold -j 1 passes over the Tier-1 pipeline's registry jobs
//	tier2-sweep  cold -j 1 -shards 1 passes over the Tier-2 registry jobs
//	serve-mix    2 closed-loop clients against an in-process xuiserve
//
// --trace 0 measures with tracing off and prints the end-to-end metrics.
// --trace 1 runs the workload untraced under a CPU profile for half the
// time, then traced for the other half, runs the layer probes, and prints
// the per-layer metrics. Traced sweeps run under an obs stream tracer and
// metrics registry; traced serve-mix submits every job with Trace set, so
// the daemon streams each job it runs into a tracer of its own. Both
// record the benchmark's own spans too.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// workload is one benchmark workload.
type workload struct {
	name   string
	jobs   []string // registry jobs of a sweep pass; nil for serve-mix
	warmup string   // a sweep's set-up job
}

var workloads = []workload{
	{name: "tier1-sweep", jobs: tier1Jobs, warmup: "fig2"},
	{name: "tier2-sweep", jobs: tier2Jobs, warmup: "multiworker"},
	{name: "serve-mix"},
}

// config is one run's command line.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	scratch string // per-run directory for trace, profile and cache files
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: tier1-sweep, tier2-sweep or serve-mix")
	seed := fs.Uint64("seed", 1, "workload seed (serve-mix derives its miss seeds and request order from it)")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	traceFlag := fs.Int("trace", 0, "1: print the per-layer metrics from an untraced plus a traced run")
	writeRef := fs.String("write-reference", "", "record the reference digests (caching off, checker on) into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeRef != "" {
		if err := writeReference(*writeRef); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	scratch, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	cfg := config{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, scratch: scratch}

	o := newOutcome()
	if w.jobs != nil {
		// One P, like -j 1 and -shards 1: the sweep and the garbage
		// collector share one CPU, so pass times neither depend on the
		// host's core count nor on how busy its other CPUs are.
		runtime.GOMAXPROCS(1)
	}
	hostFingerprint(o, w.name, cfg)
	if w.jobs != nil {
		err = runSweep(*w, cfg, o)
	} else {
		err = runServe(cfg, o)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer()
	} else {
		o.set("rss_peak_mb", peakRSSMB())
		if o.attempted > 0 {
			o.set("ok_frac", float64(o.ok)/float64(o.attempted))
		}
	}
	if err := o.emit(stdout, specs, cfg.trace); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range o.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

// hostFingerprint records the host and the run in the fingerprint line.
func hostFingerprint(o *outcome, name string, cfg config) {
	o.fingerprint["workload"] = name
	o.fingerprint["seed"] = cfg.seed
	o.fingerprint["seconds"] = cfg.seconds
	o.fingerprint["trace"] = cfg.trace
	o.fingerprint["cpu_model"] = cpuModel()
	o.fingerprint["nproc"] = runtime.NumCPU()
	o.fingerprint["gomaxprocs"] = runtime.GOMAXPROCS(0)
	o.fingerprint["go_version"] = runtime.Version()
	o.fingerprint["goos_goarch"] = runtime.GOOS + "/" + runtime.GOARCH
	o.fingerprint["setup_reps"] = setupReps
}

// cpuModel returns the first "model name" of /proc/cpuinfo, "unknown"
// where there is none.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set size (getrusage maxrss,
// kilobytes on Linux) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
