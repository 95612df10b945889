// Command ccverify verifies a cache coherence protocol, either with the
// symbolic state expansion method of Pong & Dubois (SPAA 1993) or with
// the explicit-state baselines of the paper's Section 3.1.
//
// Usage:
//
//	ccverify -protocol illinois [-strict] [-log] [-graph-out g.dot] [-crosscheck 2,3,4]
//	ccverify -spec myprotocol.ccpsl [-local-dot out.dot]
//	ccverify -run enum-strict -n 4 [-workers k] [-max states] [-mem-budget bytes [-spill-dir dir]] illinois
//	ccverify -run enum-counting -n 3 -graph-out g.json -graph-format json illinois
//	ccverify -protocol illinois -timeout 30s -checkpoint run.ckpt [-checkpoint-keep 3]
//	ccverify -resume run.ckpt
//	ccverify -run enum-strict -resume run.ckpt -workers 8
//	ccverify -run symbolic -progress -metrics-json run-metrics.json illinois
//	ccverify -compare illinois,firefly
//
// The protocol may also be named as the positional argument. -run selects
// the engine: symbolic (the default: the full pipeline with graph
// construction and cross-checks), enum-strict (the Figure 2 exhaustive
// search for -n caches) or enum-counting (the Definition 5
// counting-equivalence variant).
//
// A symbolic run prints the protocol's essential states with their context
// variables, the verdict (permissible or erroneous, with witness paths),
// and optionally the expansion log. An enum run prints one table row:
// distinct states, state tuples, visits, violations and whether the run
// was truncated. -graph-out FILE ("-": stdout) writes the run's transition
// diagram — the global diagram over the essential states (Figure 4) or the
// concrete diagram over the enumerated configurations — as Graphviz DOT or,
// with -graph-format json, as JSON. On an enum run the diagram is read off
// that same run, whose reachable set is replayed from the provenance
// records every run keeps: the space is enumerated once, at -workers, and
// -mem-budget and -spill-dir bound it like any run. -timeout or a signal
// stops the diagram's build and rendering too (exit 3). A run that stops
// early writes no diagram.
//
// Run control is the same for every engine. -workers k sets the run's
// width (the enumeration's BFS workers per level, the symbolic expansion's
// speculation workers; 0 is GOMAXPROCS, default 1); every width gives the
// same results. -max bounds the distinct states (enum) or state visits
// (symbolic). -mem-budget stops the run cleanly at the point where its
// estimated resident footprint crosses the budget; on an enum run,
// -spill-dir turns the same budget into an out-of-core run whose cold
// visited-set shards spill to checksummed files under the directory, so
// the enumeration completes in bounded memory with bit-identical results.
//
// Runs stop cleanly on SIGINT/SIGTERM, -timeout or a budget, reporting a
// structured stop reason; -checkpoint writes the stopped run's state to a
// durable snapshot store (internal/ckptio: atomic checksummed writes,
// rotation keeping the last -checkpoint-keep good snapshots, fallback to
// the newest valid one when the latest is truncated or corrupt), and
// -resume continues it at any width to the exact results an uninterrupted
// run would have produced. A resumed run needs no protocol flag when the
// checkpoint names a built-in protocol, and its -run must match the engine
// that wrote the checkpoint.
//
// Observability: -progress prints one line per expansion level (and per
// completed phase) to stderr, and -metrics-json FILE writes the run's full
// metrics snapshot — counters, gauges and phase-timing histograms — as
// deterministic JSON (see docs/observability.md).
//
// Exit codes: 0 verified clean, 1 usage or internal error, 2 violations
// found, 3 stopped early (timeout, signal or budget).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/ccpsl"
	"repro/internal/ckptio"
	"repro/internal/core"
	"repro/internal/enum"
	"repro/internal/fsm"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/protocols"
	"repro/internal/report"
	"repro/internal/runctl"
	"repro/internal/symbolic"
)

// cliOpts carries every flag below the protocol source; run takes it whole
// so tests can drive exact configurations.
type cliOpts struct {
	engine      string // -run: symbolic, enum-strict or enum-counting
	n           int    // cache count for the enum engines
	workers     int    // run width (≤ 1: one worker; negative is a usage error)
	max         int    // enum distinct states or symbolic visits (0: default)
	memBudget   int64  // resident-bytes budget (0: none)
	spillDir    string // enum out-of-core spill directory (needs memBudget)
	strict      bool
	showLog     bool
	graphOut    string // write the transition diagram here ("-": stdout)
	graphFormat string // dot or json
	localDot    string
	crossCheck  string
	jsonFile    string
	checkpoint  string // path to save a checkpoint to when the run stops
	resume      string // path to load a checkpoint from
	keep        int    // good snapshot generations retained at -checkpoint
	progress    bool   // one stderr line per expansion level and phase
	metricsJSON string // write the metrics snapshot here after the run
}

// observability builds the run's observer and metrics registry from the
// -progress / -metrics-json flags; both are nil (zero overhead) when the
// flags are off.
func (o cliOpts) observability() (obs.Observer, *obs.Registry) {
	var observer obs.Observer
	if o.progress {
		observer = obs.Progress(os.Stderr)
	}
	var reg *obs.Registry
	if o.metricsJSON != "" {
		reg = obs.NewRegistry()
	}
	return observer, reg
}

func main() {
	var (
		protoName   = flag.String("protocol", "", "built-in protocol name ("+strings.Join(protocols.Names(), ", ")+"); may also be given as the positional argument")
		specFile    = flag.String("spec", "", "path to a ccpsl protocol specification")
		engine      = flag.String("run", "symbolic", "engine: symbolic (full pipeline), enum-strict or enum-counting")
		nCaches     = flag.Int("n", 4, "cache count for the enum engines")
		workers     = flag.Int("workers", 1, "run width: BFS workers per level or symbolic speculation workers (0: GOMAXPROCS)")
		max         = flag.Int("max", 0, "bound on distinct states (enum) or state visits (symbolic) (0: default)")
		memBudget   = flag.Int64("mem-budget", 0, "resident memory budget in bytes (0: none)")
		spillDir    = flag.String("spill-dir", "", "enum runs: spill cold state shards to this directory instead of stopping at -mem-budget")
		strict      = flag.Bool("strict", false, "enable the clean-state/memory consistency extension check")
		showLog     = flag.Bool("log", false, "print the expansion visit log (Appendix A.2 style)")
		graphOut    = flag.String("graph-out", "", "write the run's transition diagram to this file (\"-\": stdout)")
		graphFormat = flag.String("graph-format", "dot", "transition-diagram rendering: dot or json")
		localDot    = flag.String("local-dot", "", "write the per-cache diagram (Figure 1 style) to this DOT file")
		crossCheck  = flag.String("crosscheck", "", "comma-separated cache counts for explicit-state cross-validation, e.g. 2,3,4")
		compare     = flag.String("compare", "", "compare the global diagrams of two protocols, e.g. illinois,firefly")
		jsonFile    = flag.String("json", "", "write the machine-readable report to this JSON file")
		timeout     = flag.Duration("timeout", 0, "wall-clock limit for the whole run (0: none)")
		checkpoint  = flag.String("checkpoint", "", "write a resumable checkpoint here when the run is stopped")
		keep        = flag.Int("checkpoint-keep", ckptio.DefaultKeep, "good checkpoint snapshots to retain (rotation)")
		resume      = flag.String("resume", "", "resume an interrupted run of the same -run engine from this checkpoint file")
		progress    = flag.Bool("progress", false, "print one progress line per expansion level (and per phase) to stderr")
		metricsJSON = flag.String("metrics-json", "", "write the run's metrics snapshot to this JSON file")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		showVersion = flag.Bool("version", false, "print version information and exit")
	)
	flag.Parse()
	if flag.NArg() == 1 && *protoName == "" && *specFile == "" {
		*protoName = flag.Arg(0)
	} else if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "ccverify: unexpected arguments %q\n", flag.Args())
		os.Exit(runctl.ExitUsage)
	}

	if *showVersion {
		fmt.Println(runctl.VersionString("ccverify"))
		os.Exit(runctl.ExitClean)
	}

	stopProf, err := runctl.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccverify:", err)
		os.Exit(1)
	}
	// os.Exit skips deferred calls, so every exit path flushes the profiles
	// explicitly first.
	exit := func(code int) {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "ccverify:", err)
			if code == 0 {
				code = 1
			}
		}
		os.Exit(code)
	}

	if *compare != "" {
		if err := runCompare(*compare); err != nil {
			fmt.Fprintln(os.Stderr, "ccverify:", err)
			exit(runctl.ExitUsage)
		}
		exit(runctl.ExitClean)
	}

	ctx, stop := runctl.WithSignals(context.Background(), *timeout)
	defer stop()

	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	code, err := run(ctx, *protoName, *specFile, cliOpts{
		engine: *engine, n: *nCaches, workers: *workers, max: *max,
		memBudget: *memBudget, spillDir: *spillDir,
		strict: *strict, showLog: *showLog,
		graphOut: *graphOut, graphFormat: *graphFormat, localDot: *localDot,
		crossCheck: *crossCheck, jsonFile: *jsonFile,
		checkpoint: *checkpoint, resume: *resume, keep: *keep,
		progress: *progress, metricsJSON: *metricsJSON,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccverify:", err)
		exit(runctl.ExitUsage)
	}
	exit(code)
}

// runCompare builds both global diagrams and prints the paper-motivated
// "similarities and disparities" comparison.
func runCompare(pair string) error {
	parts := strings.Split(pair, ",")
	if len(parts) != 2 {
		return fmt.Errorf("-compare needs exactly two protocol names, got %q", pair)
	}
	var gs []*graph.Global
	for _, name := range parts {
		p, err := protocols.ByName(name)
		if err != nil {
			return err
		}
		rep, err := core.Verify(p, core.Options{BuildGraph: true})
		if err != nil {
			return err
		}
		if rep.Graph == nil {
			return fmt.Errorf("%s is erroneous; nothing to compare", p.Name)
		}
		gs = append(gs, rep.Graph)
	}
	fmt.Printf("comparing %s and %s:\n", gs[0].Protocol.Name, gs[1].Protocol.Name)
	fmt.Print(graph.Compare(gs[0], gs[1]).String())
	return nil
}

// validate checks the flag combination before anything runs and
// normalises the engine name.
func (o *cliOpts) validate() error {
	switch o.engine {
	case "", "symbolic":
		o.engine = "symbolic"
		if o.spillDir != "" {
			return fmt.Errorf("-spill-dir works on enum runs only, not -run symbolic")
		}
	case "enum-strict", "enum-counting":
		if o.crossCheck != "" || o.showLog || o.jsonFile != "" || o.localDot != "" {
			return fmt.Errorf("-run %s does not take the symbolic pipeline's -crosscheck, -log, -json or -local-dot", o.engine)
		}
	default:
		return fmt.Errorf("invalid -run %q (want symbolic, enum-strict or enum-counting)", o.engine)
	}
	if o.workers < 0 {
		return fmt.Errorf("invalid -workers %d (want 0 for GOMAXPROCS, or a positive count)", o.workers)
	}
	if o.spillDir != "" && o.memBudget <= 0 {
		return fmt.Errorf("-spill-dir requires -mem-budget: spilling is triggered by the memory budget")
	}
	switch o.graphFormat {
	case "", "dot", "json":
	default:
		return fmt.Errorf("invalid -graph-format %q (want dot or json)", o.graphFormat)
	}
	return nil
}

// run validates the flags, resolves the protocol (from the checkpoint's
// built-in name when -resume is given without a source), dispatches on
// -run, and returns the process exit code (0 clean, 2 violations, 3
// stopped early).
func run(ctx context.Context, protoName, specFile string, o cliOpts) (int, error) {
	if err := o.validate(); err != nil {
		return 0, err
	}
	var ckpt []byte
	if o.resume != "" {
		data, engine, cpProto, err := o.loadCheckpoint()
		if err != nil {
			return 0, err
		}
		if engine != o.engine {
			return 0, fmt.Errorf("checkpoint %s was written by -run %s; it cannot resume -run %s", o.resume, engine, o.engine)
		}
		if protoName == "" && specFile == "" {
			if _, err := protocols.ByName(cpProto); err != nil {
				return 0, fmt.Errorf("checkpoint %s is for protocol %q, which is not built in: name its source with -spec", o.resume, cpProto)
			}
			protoName = cpProto
		}
		ckpt = data
	}
	p, err := loadProtocol(protoName, specFile)
	if err != nil {
		return 0, err
	}
	if o.checkpoint != "" {
		// Probe the checkpoint directory up front: an unwritable -checkpoint
		// target should fail before the run, not at the stop snapshot.
		if err := o.store(o.checkpoint).Preflight(); err != nil {
			return 0, err
		}
	}
	observer, reg := o.observability()
	var code int
	if o.engine == "symbolic" {
		code, err = runSymbolic(ctx, p, ckpt, o, observer, reg)
	} else {
		code, err = runEnum(ctx, p, ckpt, o, observer, reg)
	}
	if err != nil {
		return code, err
	}
	if o.metricsJSON != "" {
		if err := obs.WriteFile(o.metricsJSON, reg); err != nil {
			return 0, err
		}
	}
	return code, nil
}

// store is the durable snapshot store at path.
func (o cliOpts) store(path string) *ckptio.Store {
	return &ckptio.Store{Path: path, Keep: o.keep}
}

// loadCheckpoint reads the newest valid snapshot at -resume and reports
// which engine wrote it (enum checkpoints record their mode, symbolic ones
// do not) and the protocol it is for.
func (o cliOpts) loadCheckpoint() (data []byte, engine, protocol string, err error) {
	data, info, err := o.store(o.resume).Load()
	if err != nil {
		return nil, "", "", err
	}
	if info.Generation > 0 {
		fmt.Fprintf(os.Stderr, "ccverify: newest checkpoint unusable (%v); resuming from older snapshot %s\n",
			info.Skipped[0], info.Path)
	}
	var head struct{ Protocol, Mode string }
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, "", "", fmt.Errorf("decoding checkpoint %s: %w", o.resume, err)
	}
	engine = "symbolic"
	if head.Mode != "" {
		engine = "enum-" + head.Mode
	}
	return data, engine, head.Protocol, nil
}

// stopped reports a stopped run on stderr and, with -checkpoint, saves
// its snapshot (cp is nil when the run stopped where none could be taken).
func (o cliOpts) stopped(reason error, cp interface{ Encode() ([]byte, error) }) error {
	fmt.Fprintf(os.Stderr, "ccverify: stopped early: %v\n", reason)
	if o.checkpoint == "" || cp == nil {
		return nil
	}
	data, err := cp.Encode()
	if err == nil {
		err = o.store(o.checkpoint).Save(data)
	}
	if err != nil {
		return fmt.Errorf("saving checkpoint: %w", err)
	}
	fmt.Fprintf(os.Stderr, "ccverify: checkpoint written to %s (resume with -resume %s)\n", o.checkpoint, o.checkpoint)
	return nil
}

// writeGraph renders a transition diagram per -graph-format under ctx and
// writes it to -graph-out ("-": stdout), unless ctx stops the rendering.
func (o cliOpts) writeGraph(ctx context.Context, g interface {
	DOT(context.Context) ([]byte, error)
	JSON(context.Context) ([]byte, error)
}) error {
	render := g.DOT
	if o.graphFormat == "json" {
		render = g.JSON
	}
	data, err := render(ctx)
	if err != nil {
		return err
	}
	if o.graphOut == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(o.graphOut, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote transition diagram to %s\n", o.graphOut)
	return nil
}

// runEnum is the -run enum-strict / enum-counting path: one explicit-state
// enumeration at -n caches, or the continuation of the checkpointed one.
func runEnum(ctx context.Context, p *fsm.Protocol, ckpt []byte, o cliOpts, observer obs.Observer, reg *obs.Registry) (int, error) {
	opts := enum.Options{
		RunConfig: runctl.RunConfig{
			Budget:           runctl.Budget{MaxBytes: o.memBudget},
			CheckpointOnStop: o.checkpoint != "",
			SpillDir:         o.spillDir,
			Workers:          o.workers,
			Observer:         observer,
			Metrics:          reg,
		},
		Strict:    o.strict,
		MaxStates: o.max,
	}
	label, enumerate := "strict (Figure 2)", enum.ExhaustiveContext
	if o.engine == "enum-counting" {
		label, enumerate = "counting (Definition 5)", enum.CountingContext
	}
	var res *enum.Result
	var err error
	if ckpt == nil {
		res, err = enumerate(ctx, p, o.n, opts)
	} else {
		var cp *enum.Checkpoint
		if cp, err = enum.DecodeCheckpoint(ckpt); err == nil {
			o.n = cp.N
			res, err = enum.ResumeContext(ctx, p, cp, opts)
		}
	}
	if err != nil {
		return 0, err
	}

	t := report.NewTable("equivalence", "distinct states", "state tuples", "visits", "violations", "truncated")
	t.AddRow(label, res.Unique, res.TupleStates, res.Visits, len(res.Violations), res.Truncated)
	fmt.Printf("protocol %s, n=%d caches\n%s", p.Name, o.n, t.String())
	code := runctl.ExitClean
	for _, v := range res.Violations {
		fmt.Fprintf(os.Stderr, "erroneous state %s: %s\n", v.Config, v.Violations[0].Error())
		code = runctl.ExitViolation
	}
	for _, we := range res.WorkerErrors {
		fmt.Fprintf(os.Stderr, "recovered worker panic (results unaffected): %v\n", we)
	}
	reason := res.StopReason
	if o.graphOut != "" && !res.Truncated {
		// The diagram is part of the run: a stop while it is built or
		// rendered ends the run like a stop during the enumeration.
		g, err := graph.BuildConcrete(ctx, res)
		if err == nil {
			err = o.writeGraph(ctx, g)
		}
		if err != nil && !runctl.IsStop(err) {
			return 0, err
		}
		reason = err
	}
	if reason != nil {
		var cp interface{ Encode() ([]byte, error) }
		if res.Checkpoint != nil {
			cp = res.Checkpoint
		}
		if err := o.stopped(reason, cp); err != nil {
			return 0, err
		}
		if code == runctl.ExitClean {
			code = runctl.ExitStopped
		}
		if o.graphOut != "" && res.Truncated {
			fmt.Fprintln(os.Stderr, "ccverify: run stopped early; skipping -graph-out (the graph must cover the full reachable set)")
		}
	}
	return code, nil
}

// runSymbolic executes the full verification pipeline (the default -run
// symbolic engine), or continues the checkpointed expansion.
func runSymbolic(ctx context.Context, p *fsm.Protocol, ckpt []byte, o cliOpts, observer obs.Observer, reg *obs.Registry) (int, error) {
	opts := core.Options{
		Strict:           o.strict,
		RecordLog:        o.showLog,
		BuildGraph:       true,
		MaxVisits:        o.max,
		SymbolicWorkers:  o.workers,
		Budget:           runctl.Budget{MaxBytes: o.memBudget},
		CheckpointOnStop: o.checkpoint != "",
		Observer:         observer,
		Metrics:          reg,
	}
	if o.crossCheck != "" {
		for _, part := range strings.Split(o.crossCheck, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				return 0, fmt.Errorf("invalid -crosscheck entry %q", part)
			}
			opts.CrossCheckN = append(opts.CrossCheckN, n)
		}
	}
	if ckpt != nil {
		cp, err := symbolic.DecodeCheckpoint(ckpt)
		if err != nil {
			return 0, err
		}
		opts.Resume = cp
	}

	rep, err := core.VerifyContext(ctx, p, opts)
	if err != nil && !runctl.IsStop(err) {
		return 0, err
	}
	fmt.Print(rep.Summary())
	if err != nil {
		var cp interface{ Encode() ([]byte, error) }
		if rep.Symbolic.Checkpoint != nil {
			cp = rep.Symbolic.Checkpoint
		}
		if err := o.stopped(err, cp); err != nil {
			return 0, err
		}
		return runctl.ExitStopped, nil
	}

	if rep.Symbolic.OK() {
		if dead := core.DeadRules(rep); len(dead) > 0 {
			fmt.Printf("  warning: %d unreachable rule(s): %s\n", len(dead), strings.Join(dead, ", "))
		}
	}

	if o.showLog {
		t := report.NewTable("#", "from", "event", "to", "disposition")
		for i, v := range rep.Symbolic.Log {
			t.AddRow(i+1, v.From.StructureString(p), v.Label, v.To.StructureString(p), v.Outcome)
		}
		fmt.Println("\nExpansion log:")
		fmt.Print(t.String())
	}

	if o.graphOut != "" {
		if rep.Graph == nil {
			return 0, fmt.Errorf("no global diagram available (protocol erroneous?)")
		}
		if err := o.writeGraph(ctx, rep.Graph); err != nil {
			return 0, err
		}
	}
	if o.localDot != "" {
		l := graph.BuildLocal(p)
		if err := os.WriteFile(o.localDot, []byte(l.DOT()), 0o644); err != nil {
			return 0, err
		}
		fmt.Printf("wrote per-cache diagram to %s\n", o.localDot)
	}
	if o.jsonFile != "" {
		data, err := rep.JSON()
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(o.jsonFile, data, 0o644); err != nil {
			return 0, err
		}
		fmt.Printf("wrote JSON report to %s\n", o.jsonFile)
	}

	if !rep.OK() {
		return runctl.ExitViolation, nil
	}
	return runctl.ExitClean, nil
}

func loadProtocol(protoName, specFile string) (*fsm.Protocol, error) {
	switch {
	case protoName != "" && specFile != "":
		return nil, fmt.Errorf("use exactly one of -protocol or -spec")
	case protoName != "":
		return protocols.ByName(protoName)
	case specFile != "":
		src, err := os.ReadFile(specFile)
		if err != nil {
			return nil, err
		}
		return ccpsl.Parse(string(src))
	default:
		return nil, fmt.Errorf("one of -protocol or -spec is required")
	}
}
