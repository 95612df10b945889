// Command perfbench is the repository's benchmark: three workloads driven
// through the public functions of the engines, the service and trace
// replay, with every output checked. See README.md in this directory for
// the workloads, the metrics and how they map onto the layers.
//
//	perfbench --workload verify-large --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the named workload untraced and prints the
// end-to-end metrics; with --trace 1 it runs a fixed, traced pass of every
// workload and prints the per-layer metrics. The last line of standard
// output is always one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Everything before it is a human-readable report (provenance, sample
// counts, stage tables).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// settle collects garbage before a timed stage, so that no stage pays for
// the previous one's garbage.
func settle(tr *tracer) { tr.span("runtime.gc", runtime.GC) }

// setupReps is how many times a run builds its workload; setup_s is the
// median, and the last build is the one measured.
const setupReps = 7

// bench is one set-up workload.
type bench interface {
	// measure runs the untraced loop until the deadline and returns the
	// samples of its three stages, each timed with a host reference run
	// just before it.
	measure(until time.Time) [3]samples
	// pass runs a fixed amount of the workload's work, recording spans
	// into tr when it is not nil. The traced run times it both ways; the
	// difference is the tracing overhead.
	pass(tr *tracer)
	// layers runs the traced-only probes and adds the workload's
	// per-layer metrics to m.
	layers(tr *tracer, m metrics)
	close()
}

// workload is one named set of inputs.
type workload struct {
	name  string
	setup func(e *env) (bench, error)
}

var workloads = []workload{
	{"verify-large", newVerifyLarge},
	{"service", newService},
	{"trace-compare", newTraceCompare},
}

// env is what every workload shares within one run.
type env struct {
	seed    int64
	size    size
	nproc   int
	workDir string // scratch space under the checkout, removed at exit
	out     io.Writer
	ck      *checker
	ref     *hostRef // untraced runs only
}

// hostRef times one host reference run; see hostRef.
func (e *env) hostRef() float64 { return e.ref.run(e.ck) }

// rng returns a generator derived from the run seed and a stream name, so
// each workload's inputs depend only on the seed.
func (e *env) rng(stream string) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range stream {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(e.seed ^ h))
}

func (e *env) printf(format string, args ...any) {
	fmt.Fprintf(e.out, format, args...)
}

// checker counts operations and the ones whose output was wrong.
type checker struct {
	attempted atomic.Int64
	failed    atomic.Int64
	out       io.Writer
	reported  atomic.Int64
}

// op records one operation; a failed one is reported (the first few).
func (c *checker) op(ok bool, format string, args ...any) bool {
	c.attempted.Add(1)
	if !ok {
		c.failed.Add(1)
		if c.reported.Add(1) <= 20 {
			fmt.Fprintf(c.out, "FAILED: "+format+"\n", args...)
		}
	}
	return ok
}

// metrics collects named values.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     size
}

func main() {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: verify-large, service or trace-compare")
	fs.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "measuring time of an untraced run")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced per-layer run of every workload")
	recordDigests := fs.String("record-digests", "", "write the service's report digests to this file and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	o.size = fullSize
	if *recordDigests != "" {
		if err := writeDigests(*recordDigests, o.size); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run and returns its result line.
func run(o options, out io.Writer) (*result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	base, err := filepath.Abs(".bench_build")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	e := &env{
		seed: o.seed, size: o.size, nproc: runtime.NumCPU(),
		workDir: workDir, out: out, ck: &checker{out: out},
	}
	printProvenance(e, o)

	m := metrics{}
	if o.trace {
		for i := range workloads {
			if err := tracedRun(e, &workloads[i], m); err != nil {
				return nil, err
			}
		}
	} else {
		e.ref = newHostRef()
		if err := untracedRun(e, w, time.Duration(o.seconds*float64(time.Second)), m); err != nil {
			return nil, err
		}
	}
	res := &result{
		Attempted: e.ck.attempted.Load(),
		Failed:    e.ck.failed.Load(),
		Metrics:   m,
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// untracedRun sets the workload up setupReps times, then measures it.
func untracedRun(e *env, w *workload, d time.Duration, m metrics) error {
	var setups []float64
	var b bench
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
			debug.FreeOSMemory() // keep superseded set-ups out of peak_rss_mb
		}
		t0 := time.Now()
		nb, err := w.setup(e)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		b = nb
	}
	defer b.close()
	stages := b.measure(time.Now().Add(d))
	m.set("setup_s", "s", median(setups))
	m.set("peak_rss_mb", "MB", peakRSSMB())
	for i, s := range stages {
		if len(s.walls) == 0 {
			return fmt.Errorf("%s: stage %d has no samples; raise --seconds", w.name, i+1)
		}
		m.set(fmt.Sprintf("stage%d_rel", i+1), "x", s.ratio())
	}
	e.printf("%s: setup_s median of %d = %.4f s\n", w.name, len(setups), median(setups))
	return nil
}

// passPairs is how many untraced and traced passes a traced run
// alternates; the tracing overhead is the difference of their medians.
const passPairs = 3

// tracedRun sets the workload up once, times its fixed pass untraced and
// traced, alternately, then runs the traced-only probes after the last
// traced pass. Every span of that pass and the probes nests under one
// root, so the stage self-times plus "other" sum to the traced wall time.
func tracedRun(e *env, w *workload, m metrics) error {
	prefix := w.name + "."
	t0 := time.Now()
	b, err := w.setup(e)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer b.close()
	setup := time.Since(t0).Seconds()

	// An untimed pass first, so every timed pass starts from the state a
	// pass leaves behind (the service's straggler statistics, for one).
	b.pass(nil)
	var untraced, traced []float64
	var tr *tracer
	for i := 0; i < passPairs; i++ {
		t1 := time.Now()
		b.pass(nil)
		untraced = append(untraced, time.Since(t1).Seconds())
		tr = newTracer()
		b.pass(tr)
		traced = append(traced, tr.elapsed().Seconds())
	}
	lm := metrics{}
	b.layers(tr, lm)
	tr.finish()

	for name, v := range lm {
		m[prefix+name] = v
	}
	m.set(prefix+"setup_s", "s", setup)
	m.set(prefix+"pass_untraced_s", "s", median(untraced))
	m.set(prefix+"pass_traced_s", "s", median(traced))
	m.set(prefix+"trace_overhead_s", "s", median(traced)-median(untraced))
	m.set(prefix+"wall_s", "s", tr.wall().Seconds())
	m.set(prefix+"other_s", "s", tr.other().Seconds())
	tr.report(e, w.name)
	return nil
}

// printProvenance records where and how the numbers were made.
func printProvenance(e *env, o options) {
	p := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
	line, _ := json.Marshal(p)
	e.printf("provenance: %s\n", line)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git work tree.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

// size scales every workload; the benchmark runs fullSize, its test runs
// tinySize.
type size struct {
	// verify-large
	symLevels   int   // symbolic run on protocols.Synthetic(symLevels)
	dragonN     int   // strict enumeration of Dragon at n caches
	spillLevels int   // spill run on protocols.Synthetic(spillLevels) ...
	spillN      int   // ... at n caches ...
	spillBudget int64 // ... under this MaxBytes budget
	// service
	sweep          []string // catalog protocols swept (nil: all)
	rate           float64  // phase-B arrivals per second
	tracedArrivals int      // phase-B requests in the traced pass
	hitProbes      int      // hit probes per path in the traced pass
	// trace-compare
	traceOps int // references per trace
}

var fullSize = size{
	symLevels: 40, dragonN: 10, spillLevels: 6, spillN: 5, spillBudget: 768 << 10,
	rate: 100, tracedArrivals: 400, hitProbes: 200,
	traceOps: 250_000,
}

var tinySize = size{
	symLevels: 8, dragonN: 5, spillLevels: 4, spillN: 5, spillBudget: 256 << 10,
	sweep: []string{"illinois", "msi"}, rate: 200, tracedArrivals: 50, hitProbes: 10,
	traceOps: 20_000,
}
