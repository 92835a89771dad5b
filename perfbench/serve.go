package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xui/internal/experiments"
	"xui/internal/obs"
	"xui/internal/runcache"
	"xui/internal/server"
	"xui/internal/stats"
)

// serve-mix is a closed loop: serveClients clients, each on its own
// connection, send their next request when the previous one completes.
// A round is hitsPerRound hit and missesPerRound miss requests in a
// seed-derived order; after the mixed rounds the daemon restarts on the
// same cache directory and each round's misses come back as disk-class
// requests. wall_s is the median round: its mixed part plus its disk part.
const (
	serveClients   = 2
	hitsPerRound   = 24
	missesPerRound = 8
	// pollInterval is how often a miss polls its job's status, well below
	// the ~1 ms a memo-hit fig2 job takes from submission to done.
	pollInterval = 200 * time.Microsecond
	// roundsPerSecond sets the work of a run: seconds × roundsPerSecond
	// rounds, which take about three quarters of the run on a 2-CPU Xeon,
	// the restart and the (faster) disk rounds the rest. The work is fixed
	// rather than timed because the daemon keeps every job's result, so
	// peak memory grows with the number of rounds run.
	roundsPerSecond = 70
	// requestTimeout bounds any single HTTP call or miss wait.
	requestTimeout = 30 * time.Second
)

// hotSpecs is the hot corpus set-up computes (quick, seed 0); hits ask
// for these. Misses ask for fig2 under fresh seeds: a job-level cache
// miss whose simulation is a memo hit, so a miss measures queue,
// executor, report encoding and the write-behind store.
var hotSpecs = []string{"fig2", "table2", "fig4"}

// request is one serve-mix request.
type request struct {
	class, exp string
	seed       uint64
}

// sample is one completed request; times in ms.
type sample struct {
	total, submit, wait, fetch float64
}

// jobView is the part of a job status document the benchmark reads.
type jobView struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
}

// host serves whichever server.Server is current on one loopback
// listener, so the clients' connections outlive a daemon restart.
type host struct {
	ln   net.Listener
	hs   *http.Server
	cur  atomic.Value // of handler
	done chan struct{}
}

type handler struct{ http.Handler }

func startHost() (*host, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &host{ln: ln, done: make(chan struct{})}
	h.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.cur.Load().(handler).ServeHTTP(w, r)
	})}
	go func() {
		defer close(h.done)
		h.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return h, nil
}

func (h *host) serve(s *server.Server) { h.cur.Store(handler{s.Handler()}) }

// close stops the listener and every connection, and waits for Serve to
// return.
func (h *host) close() {
	h.hs.Close()
	<-h.done
}

// client is one closed-loop client with its own connection.
// A traced client (sp set) submits every spec with Trace set, so each
// job the daemon runs streams into its own obs tracer; a cache answer
// runs nothing and carries no trace.
type client struct {
	id   uint32
	base string
	hc   *http.Client
	sp   *spans
}

func newClient(id uint32, base string, sp *spans) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{id: id, base: base, hc: &http.Client{Transport: tr, Timeout: requestTimeout}, sp: sp}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// errTransport marks a failed HTTP exchange, as opposed to a wrong answer.
var errTransport = errors.New("transport error")

// call makes one HTTP call, recorded as one span of request req.
func (c *client) call(req uint64, span, method, path string, body []byte) (*http.Response, []byte, error) {
	start := time.Now()
	r, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.hc.Do(r)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errTransport, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.sp.record(c.id, span, req, start, time.Now())
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errTransport, err)
	}
	return resp, data, nil
}

// do runs one request end to end — submit, wait for a miss's job, fetch
// — and checks every answer against what its class implies: status
// codes, the job's cached flag, X-Job-Cached, and the result bytes equal
// to want (nil: return the body unchecked).
func (c *client) do(req uint64, r request, want []byte, wantCached bool) (sample, []byte, error) {
	var s sample
	t0 := time.Now()
	spec, _ := json.Marshal(server.Spec{Experiment: r.exp, Quick: true, Seed: r.seed, Trace: c.sp != nil})
	resp, body, err := c.call(req, r.class+".submit", "POST", "/api/v1/jobs", spec)
	if err != nil {
		return s, nil, err
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		return s, nil, fmt.Errorf("submit %s: %s: %v", r.exp, resp.Status, err)
	}
	wantCode := http.StatusOK
	if r.class == "miss" {
		wantCode = http.StatusAccepted
	}
	if resp.StatusCode != wantCode || (r.class != "miss" && v.Status != "done") || v.Cached != (wantCached && r.class != "miss") {
		return s, nil, fmt.Errorf("%s submit of %s seed %d: %s, status %q, cached %v", r.class, r.exp, r.seed, resp.Status, v.Status, v.Cached)
	}
	t1 := time.Now()
	for v.Status != "done" {
		if v.Status == "failed" || time.Since(t1) > requestTimeout {
			return s, nil, fmt.Errorf("%s job %s: status %q %s", r.class, v.ID, v.Status, v.Error)
		}
		time.Sleep(pollInterval)
		if _, body, err = c.call(req, r.class+".poll", "GET", "/api/v1/jobs/"+v.ID, nil); err != nil {
			return s, nil, err
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return s, nil, fmt.Errorf("status of %s: %v", v.ID, err)
		}
	}
	t2 := time.Now()
	resp, body, err = c.call(req, r.class+".fetch", "GET", "/api/v1/jobs/"+v.ID+"/result", nil)
	if err != nil {
		return s, nil, err
	}
	t3 := time.Now()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Job-Cached") != strconv.FormatBool(wantCached) {
		return s, nil, fmt.Errorf("%s result of %s: %s, X-Job-Cached %q", r.class, v.ID, resp.Status, resp.Header.Get("X-Job-Cached"))
	}
	if want != nil && !bytes.Equal(body, want) {
		return s, nil, fmt.Errorf("%s result of %s seed %d differs from the local document", r.class, r.exp, r.seed)
	}
	ms := func(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }
	return sample{total: ms(t0, t3), submit: ms(t0, t1), wait: ms(t1, t2), fetch: ms(t2, t3)}, body, nil
}

// serveRun is what one serve-mix pass measured.
type serveRun struct {
	setup     []float64 // s per set-up
	rounds    []float64 // s per round (mixed part + disk part)
	allocMB   []float64 // per round
	gcCycles  []float64 // per round
	gcPauseMs []float64 // per round
	samples   map[string][]sample
	restartMs float64
	jobTraces int          // job trace files the daemon wrote (traced pass)
	stats     serverStats  // both daemons, after set-up
	metrics   obs.Snapshot // both daemons, after set-up
	hot       map[string][]byte
}

// serverStats is the part of /api/v1/stats the benchmark reads.
type serverStats struct {
	Shed      uint64         `json:"shed"`
	JobsCache runcache.Stats `json:"jobsCache"`
}

// apiGet reads a daemon document in-process (no listener involved), so
// the first server can still be read after its restart.
func apiGet(s *server.Server, path string, v any) error {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET %s: %d", path, rec.Code)
	}
	return json.Unmarshal(rec.Body.Bytes(), v)
}

// combine applies f to each pair of counters of a and b.
func combine(a, b serverStats, f func(x, y uint64) uint64) serverStats {
	a.Shed = f(a.Shed, b.Shed)
	s, t := &a.JobsCache, b.JobsCache
	s.Hits = f(s.Hits, t.Hits)
	s.Misses = f(s.Misses, t.Misses)
	s.DiskHits = f(s.DiskHits, t.DiskHits)
	s.DiskStores = f(s.DiskStores, t.DiskStores)
	s.DiskErrors = f(s.DiskErrors, t.DiskErrors)
	return a
}

func plus(x, y uint64) uint64  { return x + y }
func minus(x, y uint64) uint64 { return x - y }

// timedMetrics is what the daemons recorded after set-up: the first
// daemon's counters minus their set-up values, plus the restarted
// daemon's; a histogram is kept when its count moved after set-up.
func timedMetrics(setup, first, second obs.Snapshot) obs.Snapshot {
	out := obs.Snapshot{Counters: map[string]uint64{}, Histograms: map[string]stats.Summary{}}
	for k, v := range first.Counters {
		out.Counters[k] = v - setup.Counters[k]
	}
	for k, v := range second.Counters {
		out.Counters[k] += v
	}
	for _, snap := range []obs.Snapshot{first, second} {
		for k, h := range snap.Histograms {
			if h.Count != setup.Histograms[k].Count {
				out.Histograms[k] = h
			}
		}
	}
	return out
}

// daemonState reads a daemon's stats and metrics documents.
func daemonState(s *server.Server) (serverStats, obs.Snapshot, error) {
	var st serverStats
	var m obs.Snapshot
	if err := apiGet(s, "/api/v1/stats", &st); err != nil {
		return st, m, err
	}
	err := apiGet(s, "/api/v1/metrics", &m)
	return st, m, err
}

// part is one measured part of a round.
type part struct{ s, mb, gc, pauseMs float64 }

// watch measures a round part: wall time, heap allocation and GC.
type watch struct {
	start time.Time
	mem   runtime.MemStats
}

func startWatch() watch {
	var w watch
	runtime.ReadMemStats(&w.mem)
	w.start = time.Now()
	return w
}

func (w watch) stop() part {
	s := time.Since(w.start).Seconds()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return part{
		s:       s,
		mb:      float64(m.TotalAlloc-w.mem.TotalAlloc) / 1e6,
		gc:      float64(m.NumGC - w.mem.NumGC),
		pauseMs: float64(m.PauseTotalNs-w.mem.PauseTotalNs) / 1e6,
	}
}

// serveMix is one serve-mix pass over a fresh cache directory, deleted
// afterwards: set-up (setupReps times), the mixed rounds, the restart,
// then the disk rounds. sp (nil when untraced)
// records a span per HTTP call; prof, when set, is started after set-up
// and stopped after the disk rounds.
func serveMix(cfg config, ref reference, o *outcome, seconds float64, sp *spans, profile bool) (run *serveRun, prof *cpuProfile, err error) {
	run = &serveRun{samples: map[string][]sample{}, hot: map[string][]byte{}}
	rng := rand.New(rand.NewPCG(cfg.seed, 0x73657276656d6978))
	h, err := startHost()
	if err != nil {
		return nil, nil, err
	}
	defer h.close()
	base := "http://" + h.ln.Addr().String()
	clients := make([]*client, serveClients)
	for i := range clients {
		clients[i] = newClient(uint32(i), base, sp)
		defer clients[i].close()
	}
	var req atomic.Uint64

	// Set-up: boot a daemon on a fresh directory and compute the hot
	// corpus through it, from cold memo caches; the last one stays up.
	var srv *server.Server
	var dir string
	defer func() {
		if srv != nil {
			srv.Close()
		}
		if dir != "" {
			os.RemoveAll(dir)
		}
	}()
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			srv.Close()
			os.RemoveAll(dir)
			srv, dir = nil, ""
		}
		start := time.Now()
		experiments.ResetCaches()
		runtime.GC()
		if dir, err = os.MkdirTemp(cfg.scratch, "serve-cache-"); err != nil {
			return nil, nil, err
		}
		if srv, err = server.New(server.Config{CacheDir: dir, MaxJobWorkers: 1}); err != nil {
			return nil, nil, err
		}
		h.serve(srv)
		for _, exp := range hotSpecs {
			_, body, err := clients[0].do(req.Add(1), request{class: "miss", exp: exp}, nil, false)
			if err != nil {
				return nil, nil, fmt.Errorf("set-up: %w", err)
			}
			if digest(body) != ref.Digests[exp] {
				o.fail("set-up: served %s differs from the reference", exp)
			}
			run.hot[exp] = body
		}
		run.setup = append(run.setup, time.Since(start).Seconds())
	}
	setupStats, setupMetrics, err := daemonState(srv)
	if err != nil {
		return nil, nil, err
	}

	var p *profiler
	if profile {
		if p, err = startProfile(cfg.scratch); err != nil {
			return nil, nil, err
		}
	}
	var transportErrs atomic.Int64
	exchange := func(reqs []request, wantCached bool) {
		out := make([]sample, len(reqs))
		okAt := make([]bool, len(reqs))
		var next atomic.Int64
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(reqs) {
						return
					}
					r := reqs[i]
					s, _, err := c.do(req.Add(1), r, run.hot[r.exp], wantCached)
					if errors.Is(err, errTransport) {
						transportErrs.Add(1)
					}
					if err != nil {
						o.fail("%v", err)
						continue
					}
					out[i], okAt[i] = s, true
				}
			}(c)
		}
		wg.Wait()
		for i, r := range reqs {
			o.op(okAt[i])
			if okAt[i] {
				run.samples[r.class] = append(run.samples[r.class], out[i])
			}
		}
	}

	// Mixed rounds on the daemon that computed the hot corpus: its hits
	// and misses are all answered uncached.
	var missLists [][]request
	var mix []part
	for len(missLists) < max(1, int(seconds*roundsPerSecond)) {
		reqs := make([]request, 0, hitsPerRound+missesPerRound)
		for i := 0; i < hitsPerRound; i++ {
			reqs = append(reqs, request{class: "hit", exp: hotSpecs[i%len(hotSpecs)]})
		}
		var misses []request
		for i := 0; i < missesPerRound; i++ {
			misses = append(misses, request{class: "miss", exp: "fig2", seed: rng.Uint64() | 1})
		}
		reqs = append(reqs, misses...)
		rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		w := startWatch()
		exchange(reqs, false)
		mix = append(mix, w.stop())
		missLists = append(missLists, misses)
	}

	// Restart: drain write-behind stores, then a second daemon on the
	// same directory answers the misses' specs from the disk tier.
	srv.Close()
	runcache.WaitPersist()
	before, beforeMetrics, err := daemonState(srv)
	if err != nil {
		return nil, nil, err
	}
	restart := time.Now()
	srv, err = server.New(server.Config{CacheDir: dir, MaxJobWorkers: 1})
	run.restartMs = float64(time.Since(restart).Nanoseconds()) / 1e6
	if err != nil {
		return nil, nil, err
	}
	h.serve(srv)
	for k, misses := range missLists {
		disk := make([]request, len(misses))
		for i, m := range misses {
			disk[i] = request{class: "disk", exp: m.exp, seed: m.seed}
		}
		w := startWatch()
		exchange(disk, true)
		d, m := w.stop(), mix[k]
		run.rounds = append(run.rounds, m.s+d.s)
		run.allocMB = append(run.allocMB, m.mb+d.mb)
		run.gcCycles = append(run.gcCycles, m.gc+d.gc)
		run.gcPauseMs = append(run.gcPauseMs, m.pauseMs+d.pauseMs)
	}
	if p != nil {
		if prof, err = p.stop(); err != nil {
			return nil, nil, err
		}
	}
	after, afterMetrics, err := daemonState(srv)
	if err != nil {
		return nil, nil, err
	}
	run.stats = combine(combine(before, setupStats, minus), after, plus)
	run.metrics = timedMetrics(setupMetrics, beforeMetrics, afterMetrics)

	if sp != nil {
		traces, _ := filepath.Glob(filepath.Join(dir, "traces", "*.trace.json"))
		if run.jobTraces = len(traces); run.jobTraces == 0 {
			o.fail("traced pass: the daemon wrote no job traces")
		}
	}
	if n := transportErrs.Load(); n != 0 {
		o.fail("%d transport errors", n)
	}
	if run.stats.Shed != 0 {
		o.fail("%d submissions shed", run.stats.Shed)
	}
	if run.stats.JobsCache.DiskErrors != 0 {
		o.fail("%d disk-tier errors", run.stats.JobsCache.DiskErrors)
	}
	if got, want := after.JobsCache.DiskHits, uint64(len(missLists)*missesPerRound); got != want {
		o.fail("restarted daemon counted %d disk hits for %d disk-class requests", got, want)
	}
	return run, prof, nil
}

// runServe runs serve-mix. Untraced, one pass fills the run. Traced, an
// untraced pass under a CPU profile fills half of it and a traced pass
// the other half, followed by the layer probes.
func runServe(cfg config, o *outcome) error {
	experiments.SetWorkers(1)
	experiments.SetShards(1)
	ref, err := loadReference()
	if err != nil {
		return err
	}
	o.fingerprint["seed_changes_inputs"] = true
	o.fingerprint["clients"] = serveClients
	o.fingerprint["round"] = map[string]int{"hit": hitsPerRound, "miss": missesPerRound, "disk": missesPerRound}
	if !cfg.trace {
		run, _, err := serveMix(cfg, ref, o, cfg.seconds, nil, false)
		if err != nil {
			return err
		}
		o.set("setup_s", median(run.setup))
		o.set("wall_s", median(run.rounds))
		o.fingerprint["setup_s"] = run.setup
		o.set("alloc_mb", median(run.allocMB))
		o.fingerprint["rounds"] = len(run.rounds)
		o.fingerprint["samples"] = sampleCounts(run)
		return nil
	}

	plain, prof, err := serveMix(cfg, ref, o, cfg.seconds/2, nil, true)
	if err != nil {
		return err
	}
	tr, err := obs.StreamFile(filepath.Join(cfg.scratch, "trace.json"))
	if err != nil {
		return err
	}
	tr.NameProcess(benchPid, "perfbench")
	traced, _, err := serveMix(cfg, ref, o, cfg.seconds/2, &spans{tr: tr, epoch: time.Now()}, false)
	if cerr := tr.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing trace: %w", cerr)
	}
	if err != nil {
		return err
	}
	o.fingerprint["rounds"] = map[string]int{"untraced": len(plain.rounds), "traced": len(traced.rounds)}
	o.fingerprint["samples"] = sampleCounts(traced)
	o.fingerprint["job_traces"] = traced.jobTraces
	setProfileShares(o, prof)

	var total float64
	for _, c := range classes {
		ss := traced.samples[c]
		pick := func(f func(sample) float64) []float64 {
			out := make([]float64, len(ss))
			for i, s := range ss {
				out[i] = f(s)
			}
			return out
		}
		o.set("serve."+c+".submit_ms", median(pick(func(s sample) float64 { return s.submit })))
		o.set("serve."+c+".fetch_ms", median(pick(func(s sample) float64 { return s.fetch })))
		if c == "miss" {
			o.set("serve.miss.wait_ms", median(pick(func(s sample) float64 { return s.wait })))
		}
		o.setPercentiles("serve."+c, pick(func(s sample) float64 { return s.total }), servePercentiles...)
		total += float64(len(ss))
	}
	// Each class's share of the clients' busy time in the untraced pass:
	// how much of wall_s the assumed request mix gives each class.
	busy := map[string]float64{}
	var busyAll float64
	for _, c := range classes {
		for _, s := range plain.samples[c] {
			busy[c] += s.total
		}
		busyAll += busy[c]
	}
	for _, c := range classes {
		o.set("serve."+c+".time_share", busy[c]/busyAll)
	}
	var roundSum float64
	for _, s := range traced.rounds {
		roundSum += s
	}
	o.set("serve.rps", total/roundSum)
	jc := traced.stats.JobsCache
	o.set("runcache.server-jobs.hits", float64(jc.Hits))
	o.set("runcache.server-jobs.misses", float64(jc.Misses))
	o.set("runcache.server-jobs.disk_hits", float64(jc.DiskHits))
	o.set("runcache.server-jobs.disk_stores", float64(jc.DiskStores))
	o.set("runcache.server-jobs.disk_errors", float64(jc.DiskErrors))
	for _, k := range []string{"submitted", "cache_answered", "jobs_done", "shed"} {
		o.set("server."+k, float64(traced.metrics.Counters["server/"+k]))
	}
	o.set("server.restart_ms", traced.restartMs)
	o.set("sim.events_fired", float64(traced.metrics.Counters["sim/events_fired"]))
	o.set("runtime.gc_cycles", median(traced.gcCycles))
	o.set("runtime.gc_pause_ms", median(traced.gcPauseMs))
	setSweepMetrics(o, traced.metrics, 1)
	setMemoMetrics(o)
	o.set("obs.trace_overhead_frac", median(traced.rounds)/median(plain.rounds)-1)

	var payloads []any
	var docs [][]byte
	for _, exp := range hotSpecs {
		payload, err := runJob(exp)
		if err != nil {
			return err
		}
		doc, err := resultDoc(exp, payload)
		if err != nil {
			return err
		}
		if !bytes.Equal(doc, traced.hot[exp]) {
			o.fail("local %s document differs from the served one", exp)
		}
		payloads = append(payloads, payload)
		docs = append(docs, doc)
	}
	return runProbes(o, cfg, payloads, hotSpecs, docs)
}

func sampleCounts(run *serveRun) map[string]int {
	out := map[string]int{}
	for _, c := range classes {
		out[c] = len(run.samples[c])
	}
	return out
}
