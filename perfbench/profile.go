package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
)

// cpuProfile is a CPU profile reduced by `go tool pprof -top`: each
// function's flat (self) and cumulative sample time, in nanoseconds.
type cpuProfile struct {
	flat, cum map[string]int64
	total     int64
}

// profiler is a running CPU profile writing to a file.
type profiler struct {
	f *os.File
}

// startProfile starts a CPU profile into dir/cpu.pprof.
func startProfile(dir string) (*profiler, error) {
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profiler{f: f}, nil
}

// stop ends the profile and reduces it.
func (p *profiler) stop() (*cpuProfile, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	return readProfile(p.f.Name())
}

// readProfile runs the toolchain's pprof over a runtime/pprof profile,
// which carries its own symbols, and parses its -top table.
func readProfile(path string) (*cpuProfile, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-unit=ns", "-symbolize=none",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %v: %s", path, err, stderr.Bytes())
	}
	return parseTop(string(out))
}

// parseTop parses a `pprof -top -unit=ns` table: a "Total samples = Nns"
// header, then rows "flat flat% sum% cum cum% function".
func parseTop(out string) (*cpuProfile, error) {
	p := &cpuProfile{flat: map[string]int64{}, cum: map[string]int64{}}
	ns := func(s string) (int64, error) { return strconv.ParseInt(strings.TrimSuffix(s, "ns"), 10, 64) }
	rows := false
	for _, line := range strings.Split(out, "\n") {
		if _, total, ok := strings.Cut(line, "Total samples = "); ok {
			t, err := ns(strings.Fields(total)[0])
			if err != nil {
				return nil, fmt.Errorf("pprof total %q: %v", line, err)
			}
			p.total = t
			continue
		}
		f := strings.Fields(line)
		if !rows {
			rows = len(f) == 5 && f[0] == "flat" && f[4] == "cum%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err1 := ns(f[0])
		cum, err2 := ns(f[3])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("pprof row %q", line)
		}
		// Type arguments may hold spaces ("go.shape.struct {}").
		fn := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		p.flat[fn] += flat
		p.cum[fn] = max(p.cum[fn], cum) // listed inlined and not: the larger
	}
	if !rows {
		return nil, fmt.Errorf("no pprof -top table in %q", out)
	}
	return p, nil
}

// layerOf buckets a function name into the layer its self time is charged
// to: the last element of its package path ("xui/internal/cpu.(*Core).step"
// → "cpu"), with the Go runtime's internal packages folded into "runtime".
func layerOf(function string) string {
	pkg := function
	if i := strings.Index(pkg, "["); i >= 0 {
		pkg = pkg[:i] // type arguments may contain package paths
	}
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/") {
			return "runtime"
		}
		pkg = pkg[i+1:]
	}
	if i := strings.Index(pkg, "."); i >= 0 {
		pkg = pkg[:i]
	}
	return pkg
}

// shares returns each layer's self share and each named function's
// cumulative share of all samples.
func (p *cpuProfile) shares(functions []string) (self, cum map[string]float64) {
	self, cum = map[string]float64{}, map[string]float64{}
	if p.total == 0 {
		return self, cum
	}
	for fn, ns := range p.flat {
		self[layerOf(fn)] += float64(ns) / float64(p.total)
	}
	for _, fn := range functions {
		cum[fn] = float64(p.cum[fn]) / float64(p.total)
	}
	return self, cum
}

// setProfileShares records the profile's per-layer self shares and the
// entry points' cumulative shares.
func setProfileShares(o *outcome, p *cpuProfile) {
	var fns []string
	for _, c := range cumEntries {
		fns = append(fns, c.function)
	}
	self, cum := p.shares(fns)
	for _, pkg := range profiledPackages {
		o.set(pkg+".self_share", self[pkg])
	}
	for _, c := range cumEntries {
		o.set(c.metric, cum[c.function])
	}
	o.fingerprint["profile_s"] = float64(p.total) / 1e9
}
