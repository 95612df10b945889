// Command cctrace is the concrete-simulation toolchain: it materializes
// the synthetic workload generators into deterministic cctrace v1 files,
// replays trace files through the concrete simulator under any built-in
// protocol, compares a set of protocols head-to-head on one identical
// reference stream — the classic trace-driven methodology the paper's
// protocol suite was originally evaluated with — and steps one block's
// global state through an explicit reference sequence.
//
// Usage:
//
//	cctrace gen -workload migratory -caches 4 -blocks 64 -ops 100000 -o mig.trace
//	cctrace gen -workload uniform -ops 1000000 -gzip -o u.trace.gz
//	cctrace replay -protocol mesi mig.trace
//	cctrace gen -workload hot-block -o - | cctrace replay -protocol dragon -capacity 8 -
//	cctrace compare -protocols msi,mesi,moesi,dragon -json report.json mig.trace
//	cctrace step -protocol illinois -n 3 -script "0R 1R 1W 0R 1Z"
//
// Trace files may be plain text or gzipped (detected by content, not file
// name); "-" reads standard input. Replays stop cleanly on SIGINT/SIGTERM
// or when -timeout expires, reporting partial statistics.
//
// Exit codes: 0 clean, 1 usage or internal error, 2 final-state invariant
// violations or stale reads, 3 stopped early (timeout, signal, budget).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/fsm"
	"repro/internal/obs"
	"repro/internal/protocols"
	"repro/internal/replay"
	"repro/internal/runctl"
)

// cli carries one invocation's standard streams, so every subcommand runs
// in-process under test.
type cli struct {
	stdin          io.Reader
	stdout, stderr io.Writer
}

func (c *cli) usage() {
	fmt.Fprintf(c.stderr, `usage:
  cctrace gen     -workload KIND -caches N -blocks N -ops N [-seed S] [-gzip] -o FILE
  cctrace replay  -protocol NAME [flags] FILE
  cctrace compare -protocols A,B,... [flags] FILE
  cctrace step    -protocol NAME -n N [-script "0R 1W 0Z"] [-timeout D]

Workload kinds: %s
Protocols: %s

Run 'cctrace <subcommand> -h' for the full flag list.
`, strings.Join(replay.Kinds(), ", "), strings.Join(protocols.Names(), ", "))
}

func main() {
	c := &cli{stdin: os.Stdin, stdout: os.Stdout, stderr: os.Stderr}
	os.Exit(c.run(os.Args[1:]))
}

// run dispatches one subcommand and returns the process exit code.
func (c *cli) run(args []string) int {
	if len(args) < 1 {
		c.usage()
		return runctl.ExitUsage
	}
	var (
		code int
		err  error
	)
	switch args[0] {
	case "gen":
		code, err = c.gen(args[1:])
	case "replay":
		code, err = c.replay(args[1:])
	case "compare":
		code, err = c.compare(args[1:])
	case "step":
		code, err = c.step(args[1:])
	case "-h", "-help", "--help", "help":
		c.usage()
		return runctl.ExitClean
	case "-version", "--version", "version":
		fmt.Fprintln(c.stdout, runctl.VersionString("cctrace"))
		return runctl.ExitClean
	default:
		fmt.Fprintf(c.stderr, "cctrace: unknown subcommand %q\n", args[0])
		c.usage()
		return runctl.ExitUsage
	}
	switch {
	case errors.Is(err, flag.ErrHelp):
		return runctl.ExitClean
	case errors.Is(err, errFlagParse):
		return runctl.ExitUsage // the flag set already reported it
	case err != nil:
		fmt.Fprintln(c.stderr, "cctrace:", err)
		return runctl.ExitUsage
	}
	return code
}

// errFlagParse marks a flag error the flag set has already printed.
var errFlagParse = errors.New("cctrace: bad flags")

// parse parses args into fs, reporting flag errors on stderr. It returns
// flag.ErrHelp for -h and errFlagParse for any other parse failure.
func (c *cli) parse(fs *flag.FlagSet, args []string) error {
	fs.SetOutput(c.stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errFlagParse
	}
	return nil
}

// gen materializes a workload spec into a trace file.
func (c *cli) gen(args []string) (int, error) {
	fs := flag.NewFlagSet("cctrace gen", flag.ContinueOnError)
	var (
		kind    = fs.String("workload", "uniform", "workload kind ("+strings.Join(replay.Kinds(), ", ")+")")
		seed    = fs.Int64("seed", 1993, "workload RNG seed; same seed, same bytes")
		caches  = fs.Int("caches", 4, "number of caches/processors")
		blocks  = fs.Int("blocks", 16, "blocks (groups for false-sharing, locks for lock)")
		ops     = fs.Int("ops", 100000, "references to materialize")
		pwrite  = fs.Float64("pwrite", 0, "write probability (uniform, hot-block, false-sharing; 0: default 0.3)")
		hotfrac = fs.Float64("hotfrac", 0, "hot-block reference fraction (0: default 0.5)")
		burst   = fs.Int("burst", 0, "migratory read-modify-write pairs per ownership period (0: default 4)")
		rpw     = fs.Int("reads-per-write", 0, "producer-consumer reads per write (0: default 4)")
		worklen = fs.Int("work-len", 0, "lock critical-section length (0: default 4)")
		gz      = fs.Bool("gzip", false, "gzip-compress the output")
		out     = fs.String("o", "-", "output file (-: stdout)")
	)
	if err := c.parse(fs, args); err != nil {
		return 0, err
	}
	if fs.NArg() != 0 {
		return 0, fmt.Errorf("gen takes no positional arguments, got %q", fs.Args())
	}
	spec := replay.WorkloadSpec{
		Kind: *kind, Seed: *seed, Caches: *caches, Blocks: *blocks, Ops: *ops,
		PWrite: *pwrite, HotFrac: *hotfrac, Burst: *burst, ReadsPerWrite: *rpw, WorkLen: *worklen,
	}
	if *out == "-" {
		if _, err := replay.MaterializeTo(c.stdout, spec, *gz); err != nil {
			return 0, err
		}
		return runctl.ExitClean, nil
	}
	f, err := os.Create(*out)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n, err := replay.MaterializeTo(f, spec, *gz)
	if err != nil {
		os.Remove(*out)
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	fmt.Fprintf(c.stderr, "cctrace: wrote %d references to %s\n", n, *out)
	return runctl.ExitClean, nil
}

// replayFlags are the flags shared by the replay and compare subcommands.
type replayFlags struct {
	blockSize   int
	maxBlocks   int
	capacity    int
	maxOps      int64
	skipOps     int64
	strict      bool
	progress    bool
	metricsJSON string
	timeout     time.Duration
}

// addReplayFlags registers the shared replay flags on fs.
func addReplayFlags(fs *flag.FlagSet) *replayFlags {
	rf := &replayFlags{}
	fs.IntVar(&rf.blockSize, "blocksize", 0, "address-to-block granularity in bytes (0: trace header, default 64)")
	fs.IntVar(&rf.maxBlocks, "max-blocks", 0, "distinct-block cap (0: 4096)")
	fs.IntVar(&rf.capacity, "capacity", 0, "cache capacity in blocks (0: unbounded)")
	fs.Int64Var(&rf.maxOps, "max-ops", 0, "replay at most this many references (0: whole trace)")
	fs.Int64Var(&rf.skipOps, "skip-ops", 0, "skip this many leading references before replaying")
	fs.BoolVar(&rf.strict, "strict", false, "check the CleanShared extension in the final invariants")
	fs.BoolVar(&rf.progress, "progress", false, "print one progress line per interval to stderr")
	fs.StringVar(&rf.metricsJSON, "metrics-json", "", "write the run's metrics snapshot to this JSON file")
	fs.DurationVar(&rf.timeout, "timeout", 0, "wall-clock limit for the whole run (0: none)")
	return rf
}

// validate rejects negative counts, which replay.Options would otherwise
// read as "use the default".
func (rf *replayFlags) validate() error {
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"-blocksize", int64(rf.blockSize)},
		{"-max-blocks", int64(rf.maxBlocks)},
		{"-max-ops", rf.maxOps},
		{"-skip-ops", rf.skipOps},
	} {
		if f.v < 0 {
			return fmt.Errorf("invalid %s %d (want 0 or a positive count)", f.name, f.v)
		}
	}
	return nil
}

// options converts the parsed flags into replay.Options, wiring the
// observer and registry.
func (rf *replayFlags) options(reg *obs.Registry, stderr io.Writer) replay.Options {
	opts := replay.Options{
		BlockSize: rf.blockSize,
		MaxBlocks: rf.maxBlocks,
		Capacity:  rf.capacity,
		MaxOps:    rf.maxOps,
		SkipOps:   rf.skipOps,
		Strict:    rf.strict,
	}
	if rf.progress {
		opts.Observer = obs.Progress(stderr)
	}
	opts.Metrics = reg
	return opts
}

// writeMetrics flushes the registry to -metrics-json, if requested.
func (rf *replayFlags) writeMetrics(reg *obs.Registry) error {
	if rf.metricsJSON == "" {
		return nil
	}
	return obs.WriteFile(rf.metricsJSON, reg)
}

// parseReplay parses a replay or compare command line, validates the
// shared flags and opens the positional trace argument ("-": stdin).
func (c *cli) parseReplay(fs *flag.FlagSet, rf *replayFlags, args []string) (io.ReadCloser, error) {
	if err := c.parse(fs, args); err != nil {
		return nil, err
	}
	if err := rf.validate(); err != nil {
		return nil, err
	}
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("expected exactly one trace file argument, got %d", fs.NArg())
	}
	name := fs.Arg(0)
	if name == "-" {
		return io.NopCloser(c.stdin), nil
	}
	return os.Open(name)
}

// replay replays one trace through one protocol.
func (c *cli) replay(args []string) (int, error) {
	fs := flag.NewFlagSet("cctrace replay", flag.ContinueOnError)
	protoName := fs.String("protocol", "illinois", "built-in protocol name ("+strings.Join(protocols.Names(), ", ")+")")
	rf := addReplayFlags(fs)
	in, err := c.parseReplay(fs, rf, args)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	p, err := protocols.ByName(*protoName)
	if err != nil {
		return 0, err
	}

	ctx, stop := runctl.WithSignals(context.Background(), rf.timeout)
	defer stop()
	reg := obs.NewRegistry()
	res, err := replay.Replay(ctx, in, p, rf.options(reg, c.stderr))
	if err != nil {
		return 0, err
	}
	if err := rf.writeMetrics(reg); err != nil {
		return 0, err
	}

	rep := &replay.ComparisonReport{}
	rep.Schema = replay.ReportSchema
	rep.AddResult(res)
	fmt.Fprint(c.stdout, rep.Table())
	return c.exitCodeFor(res), nil
}

// compare fans one trace out to several protocols.
func (c *cli) compare(args []string) (int, error) {
	fs := flag.NewFlagSet("cctrace compare", flag.ContinueOnError)
	protoNames := fs.String("protocols", "msi,mesi,moesi,dragon", "comma-separated protocol names")
	jsonOut := fs.String("json", "", "write the comparison report as JSON to this file (-: stdout)")
	rf := addReplayFlags(fs)
	in, err := c.parseReplay(fs, rf, args)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	var protos []*fsm.Protocol
	for _, name := range strings.Split(*protoNames, ",") {
		p, err := protocols.ByName(strings.TrimSpace(name))
		if err != nil {
			return 0, err
		}
		protos = append(protos, p)
	}

	ctx, stop := runctl.WithSignals(context.Background(), rf.timeout)
	defer stop()
	reg := obs.NewRegistry()
	cr, err := replay.Compare(ctx, in, protos, rf.options(reg, c.stderr))
	if err != nil {
		return 0, err
	}
	if err := rf.writeMetrics(reg); err != nil {
		return 0, err
	}

	rep := replay.NewReport(cr)
	enc, err := rep.Encode()
	if err != nil {
		return 0, err
	}
	switch *jsonOut {
	case "":
	case "-":
		c.stdout.Write(enc)
	default:
		if err := os.WriteFile(*jsonOut, enc, 0o644); err != nil {
			return 0, err
		}
	}
	if *jsonOut != "-" {
		fmt.Fprint(c.stdout, rep.Table())
	}

	code := runctl.ExitClean
	for _, r := range cr.Results {
		if rc := c.exitCodeFor(r); rc > code {
			code = rc
		}
	}
	return code, nil
}

// exitCodeFor classifies one replay result: violations and stale reads are
// incoherence (2), truncation is an early stop (3), otherwise clean.
func (c *cli) exitCodeFor(r *replay.Result) int {
	if len(r.Violations) > 0 || r.Stats.StaleReads > 0 {
		return runctl.ExitViolation
	}
	if r.Truncated && r.StopReason != nil {
		fmt.Fprintf(c.stderr, "cctrace: %s stopped early: %v\n", r.Protocol, r.StopReason)
		return runctl.ExitStopped
	}
	return runctl.ExitClean
}
