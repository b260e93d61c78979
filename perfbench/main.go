// Command perfbench is netart's benchmark. It starts netartd with its
// default configuration, drives one seeded workload at it over loopback
// HTTP from this single process, checks every diagram served against
// the in-process pipeline and its verifiers, and prints each metric
// with its unit and sample count. The last line of standard output is
// one JSON object: {"correct","attempted","failed","metrics"}.
//
// Usage (from the repository root, after perfbench/run.sh has built
// netartd):
//
//	perfbench --workload cold-mid|cold-large|hot-mix --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 records spans
// around each layer's public functions, writes them under --out, and
// reports the per-layer metrics derived from them. README.md maps each
// per-layer metric to the end-to-end metric and workload it should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"netart/internal/library"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// probeJobs is how many of its list designs a traced closed-loop run
// submits again after its measured window, as async jobs under new
// names, so the jobs layer is measured on every workload.
const probeJobs = 2

// maxExtra bounds how long a closed loop keeps starting operations
// past its window to reach its minimum count, so a run on a slow host
// ends in time (and then fails for lack of samples).
const maxExtra = 60 * time.Second

type config struct {
	w     workload
	seed  int64
	dur   time.Duration
	trace bool
	bin   string
	out   string
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wname := fs.String("workload", "", "cold-mid, cold-large or hot-mix")
	seed := fs.Int64("seed", 1, "input seed")
	secs := fs.Int("seconds", 30, "measured window per run")
	trace := fs.Int("trace", 0, "1 records layer spans and reports per-layer metrics")
	bin := fs.String("netartd", ".bench_build/bin/netartd", "netartd binary")
	out := fs.String("out", ".bench_build", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := lookupWorkload(*wname)
	if !ok {
		return fmt.Errorf("unknown workload %q", *wname)
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	if _, err := os.Stat(*bin); err != nil {
		return fmt.Errorf("netartd binary: %w", err)
	}
	cfg := config{w: w, seed: *seed, dur: time.Duration(*secs) * time.Second, trace: *trace == 1, bin: *bin, out: *out}
	r := newRun(cfg)
	if err := r.setUp(); err != nil {
		return err
	}
	if err := r.measure(); err != nil {
		return err
	}
	r.check()
	return r.report(stdout)
}

// benchRun holds one run's inputs, what the daemon served, and the
// checks made on it.
type benchRun struct {
	cfg    config
	lib    *library.Library
	tr     *Tracer
	client *http.Client
	d      *daemon

	mu      sync.Mutex // guards designs
	designs []Design   // every design the run may send, by index
	list    []int      // the design list quality and counters are summed over
	sched   []arrival  // open loop only
	setupS  []float64

	// Outcomes. sync and jobs hold the measured operations; warm and
	// probe the set-up and traced-probe ones, which are checked too.
	sync, jobs     []opResult
	warm, probe    []opResult
	window         time.Duration
	cal            calibrator
	rssMB          float64
	stats0, stats1 serverStats

	refs     map[int]*reference
	refErr   map[int]error
	failures []string
}

// opResult is one operation: its timing and, when it succeeded, what
// was served.
type opResult struct {
	t   timing
	s   *served
	job *jobRun
}

func newRun(cfg config) *benchRun {
	r := &benchRun{cfg: cfg, lib: library.Builtin(), client: newClient(2)}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

// design returns design i, generating it on first use. Indices below
// warmN are the set-up's warm designs (the hot set of an open loop); the
// rest are a closed loop's design list or an open loop's jobs.
func (r *benchRun) design(i int) Design {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.designs) <= i {
		r.designs = append(r.designs, r.generate(len(r.designs)))
	}
	return r.designs[i]
}

func (r *benchRun) generate(i int) Design {
	w := r.cfg.w
	if i < w.warmN {
		return w.warm.design(r.cfg.seed, i)
	}
	return w.fresh.design(r.cfg.seed, i-w.warmN)
}

// setUp starts the daemon, generates the inputs and warms the daemon
// (an open loop's hot set), w.setups times; setup_s is the median. The
// last daemon stays up for the measured run.
func (r *benchRun) setUp() error {
	w := r.cfg.w
	for k := 0; k < w.setups; k++ {
		t0 := time.Now()
		d, err := startDaemon(r.cfg.bin)
		if err != nil {
			return err
		}
		r.mu.Lock()
		r.designs = nil
		r.mu.Unlock()
		for i := 0; i < w.warmN; i++ {
			r.design(i)
		}
		r.list = r.list[:0]
		if w.clients > 0 {
			for i := w.warmN; i < w.warmN+w.listLen; i++ {
				r.design(i)
				r.list = append(r.list, i)
			}
		} else {
			for i := 0; i < w.warmN; i++ {
				r.list = append(r.list, i)
			}
			r.sched = w.schedule(r.cfg.seed, r.cfg.dur)
			next := w.warmN
			for i := range r.sched {
				if r.sched[i].job {
					r.sched[i].design = next
					r.design(next)
					r.list = append(r.list, next)
					next++
				}
			}
		}
		warm := r.closed(d, 0, max(w.clients, 2), w.warmN, func(i int) (int, string) { return i, r.design(i).ID }, nil)
		for _, o := range warm {
			if o.t.err != nil {
				d.stop()
				return fmt.Errorf("warming the daemon: %w", o.t.err)
			}
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		if k < w.setups-1 {
			d.stop()
			continue
		}
		r.d, r.warm = d, warm
	}
	return nil
}

// closed runs a closed loop of clients sending, as request i, design
// pick(i) under the name that function returns, as synchronous generate
// requests.
func (r *benchRun) closed(d *daemon, dur time.Duration, clients, minOps int, pick func(int) (int, string), onDone func(int)) []opResult {
	var mu sync.Mutex
	res := map[int]*served{}
	ts := closedLoop(time.Now(), dur, dur+maxExtra, clients, minOps, func(i int) error {
		idx, name := pick(i)
		s, err := generate(context.Background(), r.client, d.base, requestBody(r.design(idx), name, r.cfg.w.format), idx, r.cfg.trace)
		if err != nil {
			return err
		}
		mu.Lock()
		res[i] = s
		mu.Unlock()
		return nil
	}, onDone)
	out := make([]opResult, len(ts))
	for i, t := range ts {
		out[i] = opResult{t: t, s: res[i]}
	}
	return out
}

// measure runs the workload for the configured window, then stops the
// daemon.
func (r *benchRun) measure() error {
	defer r.d.stop()
	w := r.cfg.w
	var err error
	if r.stats0, err = r.d.stats(r.client); err != nil {
		return fmt.Errorf("read /v1/stats: %w", err)
	}
	start := time.Now()
	if w.clients > 0 {
		var rssErr error
		cycle := func(i int) (int, string) {
			idx := w.warmN + i%w.listLen
			return idx, fmt.Sprintf("%s_r%d", r.design(idx).ID, i/w.listLen)
		}
		r.sync = r.closed(r.d, r.cfg.dur, w.clients, w.minOps, cycle, func(n int) {
			if n == w.listLen {
				r.rssMB, rssErr = r.d.peakRSSMB()
			}
			r.cal.catchUp(start)
		})
		if rssErr != nil {
			return fmt.Errorf("read peak RSS: %w", rssErr)
		}
		// The window is the daemon's: calibration between its
		// requests does not count.
		last := lastDone(r.sync)
		r.window = last.Sub(start) - r.cal.spentBy(last)
	} else {
		r.openLoop(start)
		if r.rssMB, err = r.d.peakRSSMB(); err != nil {
			return fmt.Errorf("read peak RSS: %w", err)
		}
		// The open loop keeps its schedule, so it calibrates after
		// its window.
		r.cal.catchUp(start)
	}
	if r.stats1, err = r.d.stats(r.client); err != nil {
		return fmt.Errorf("read /v1/stats: %w", err)
	}
	if r.cfg.trace && w.clients > 0 {
		for k := 0; k < probeJobs; k++ {
			idx := w.warmN + k
			r.probe = append(r.probe, r.job(idx, r.design(idx).ID+"_job", time.Now()))
		}
	}
	r.traceOps()
	return nil
}

// traceOps records one span per HTTP operation, with the daemon's own
// elapsed time and the bytes moved as counts.
func (r *benchRun) traceOps() {
	if r.tr == nil {
		return
	}
	for _, o := range r.all() {
		if o.s == nil {
			continue
		}
		id := r.design(o.s.design).ID
		counts := map[string]float64{"server_ms": o.s.elapsedMs, "bytes": float64(o.s.bytes)}
		if o.job == nil {
			r.tr.Add("http.generate", id, 0, o.t.sent, o.t.done, counts)
			continue
		}
		root := r.tr.Add("http.job", id, 0, o.t.sent, o.job.terminal, counts)
		r.tr.Add("http.job.stream", id, root, o.job.opened, o.job.terminal,
			map[string]float64{"events": float64(o.job.events), "bytes": float64(o.job.sseBytes)})
	}
}

// openLoop plays the hot-mix schedule over two connections. Hits and
// jobs are separate lanes, each timed from its operations' due times;
// jobs run one at a time, so an open event stream can hold at most one
// of the two connections.
func (r *benchRun) openLoop(start time.Time) {
	var hits, jobs []arrival
	for _, a := range r.sched {
		if a.job {
			jobs = append(jobs, a)
		} else {
			hits = append(hits, a)
		}
	}
	offsets := func(as []arrival) []time.Duration {
		out := make([]time.Duration, len(as))
		for i, a := range as {
			out[i] = a.at
		}
		return out
	}
	// Both lanes share the two connections: a hit or a job holds a slot
	// for its whole exchange, so a job's event stream takes one
	// connection and the hits keep the other.
	slots := make(chan struct{}, 2)
	hitRes := make([]*served, len(hits))
	jobRes := make([]opResult, len(jobs))
	var hitT, jobT []timing
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		hitT = openLoop(start, offsets(hits), 2, func(i int) error {
			slots <- struct{}{}
			defer func() { <-slots }()
			idx := hits[i].design
			s, err := generate(context.Background(), r.client, r.d.base, requestBody(r.design(idx), r.design(idx).ID, r.cfg.w.format), idx, false)
			hitRes[i] = s
			return err
		})
	}()
	go func() {
		defer wg.Done()
		jobT = openLoop(start, offsets(jobs), 1, func(i int) error {
			slots <- struct{}{}
			defer func() { <-slots }()
			idx := jobs[i].design
			jobRes[i] = r.job(idx, r.design(idx).ID, start.Add(jobs[i].at))
			return jobRes[i].t.err
		})
	}()
	wg.Wait()
	for i, t := range hitT {
		r.sync = append(r.sync, opResult{t: t, s: hitRes[i]})
	}
	for i, t := range jobT {
		jobRes[i].t = t
		r.jobs = append(r.jobs, jobRes[i])
	}
	r.window = lastDone(append(append([]opResult(nil), r.sync...), r.jobs...)).Sub(start)
}

// job submits design idx under name as an async job due at due.
func (r *benchRun) job(idx int, name string, due time.Time) opResult {
	sent := time.Now()
	jr, err := submitJob(context.Background(), r.client, r.d.base, requestBody(r.design(idx), name, r.cfg.w.format), idx, r.cfg.trace)
	o := opResult{t: timing{due: due, sent: sent, done: time.Now(), err: err}}
	if err == nil {
		o.s, o.job = jr.served, jr
	}
	return o
}

func lastDone(ops []opResult) time.Time {
	var last time.Time
	for _, o := range ops {
		if o.t.done.After(last) {
			last = o.t.done
		}
	}
	return last
}

// all returns every operation of the run, set-up and probes included.
func (r *benchRun) all() []opResult {
	var out []opResult
	for _, g := range [][]opResult{r.warm, r.sync, r.jobs, r.probe} {
		out = append(out, g...)
	}
	return out
}

// check recomputes every served design once in process (two at a time,
// one per CPU of the reference host), runs the verifiers on it, and
// compares every diagram netartd served for it byte for byte.
func (r *benchRun) check() {
	want := map[int]bool{}
	for _, o := range r.all() {
		if o.s != nil {
			want[o.s.design] = true
		}
	}
	for _, i := range r.list {
		want[i] = true
	}
	idx := make([]int, 0, len(want))
	for i := range want {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	r.refs, r.refErr = map[int]*reference{}, map[int]error{}
	var mu sync.Mutex
	var next int
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(idx) {
					mu.Unlock()
					return
				}
				i := idx[next]
				next++
				mu.Unlock()
				ref, err := runReference(context.Background(), r.tr, r.lib, r.design(i), r.cfg.w.format)
				mu.Lock()
				r.refs[i], r.refErr[i] = ref, err
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	cold := r.cfg.w.clients > 0
	for _, o := range r.warm {
		r.checkServed(o, false)
	}
	for _, o := range r.sync {
		r.checkServed(o, !cold)
	}
	for _, o := range r.jobs {
		r.checkServed(o, false)
	}
	for _, o := range r.probe {
		r.checkServed(o, false)
	}
}

// checkServed records a failure for an operation that errored, was
// served from the wrong cache state, or served other bytes than the
// verified reference.
func (r *benchRun) checkServed(o opResult, wantCached bool) {
	switch {
	case o.t.err != nil:
		r.failures = append(r.failures, o.t.err.Error())
	case o.s == nil:
		r.failures = append(r.failures, "operation returned no result")
	case r.refErr[o.s.design] != nil:
		r.failures = append(r.failures, r.refErr[o.s.design].Error())
	case o.s.literal && o.s.hash != r.refs[o.s.design].litHash,
		!o.s.literal && o.s.hash != r.refs[o.s.design].outHash:
		r.failures = append(r.failures, fmt.Sprintf("%s: served %s differs from the reference pipeline",
			r.design(o.s.design).ID, r.cfg.w.format))
	case o.s.cached != wantCached:
		r.failures = append(r.failures, fmt.Sprintf("%s: cached=%t, want %t", r.design(o.s.design).ID, o.s.cached, wantCached))
	}
}

// metric is one reported number with its unit and sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
	// info marks a number printed for the reader but not part of the
	// result object (it is recorded, it does not gate).
	info bool
}

func (r *benchRun) report(stdout io.Writer) error {
	attempted := len(r.all())
	failed := len(r.failures)
	var ms []metric
	var err error
	if r.cfg.trace {
		ms, err = r.layerMetrics()
		if err == nil {
			err = r.writeSpans()
		}
	} else {
		ms, err = r.endToEnd(attempted, failed)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%.0f trace=%t\n", r.cfg.w.name, r.cfg.seed, r.cfg.dur.Seconds(), r.cfg.trace)
	fmt.Fprintf(stdout, "host: %s\n", fingerprint())
	for i, f := range r.failures {
		if i == 5 {
			fmt.Fprintf(stdout, "failure: ... %d more\n", len(r.failures)-5)
			break
		}
		fmt.Fprintf(stdout, "failure: %s\n", f)
	}
	out := map[string]any{}
	for _, m := range ms {
		line := fmt.Sprintf("%-28s %14.4f %-6s n=%d", m.name, m.value, m.unit, m.n)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Fprintln(stdout, line)
		if !m.info {
			out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	b, err := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(b))
	return err
}

func (r *benchRun) writeSpans() error {
	dir := filepath.Join(r.cfg.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return r.tr.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.cfg.w.name, r.cfg.seed)))
}

// fingerprint names the host a run was measured on.
func fingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s", model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}
