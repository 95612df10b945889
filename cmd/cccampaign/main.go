// Command cccampaign runs a self-healing verification campaign: a fleet of
// jobs (protocol × engine × cache count), each with bounded retries,
// durable checkpoints, a graceful-degradation ladder and quarantine for
// jobs that keep failing. Every violation a campaign reports carries a
// witness path that an independent concrete-FSM replay has confirmed.
//
// Usage:
//
//	cccampaign -protocols illinois,dragon -engines enum-strict,symbolic -n 3,4
//	cccampaign -protocols illinois -mutants -engines enum-strict -n 3
//	cccampaign -protocols illinois -engines enum-strict -n 4 \
//	           -checkpoint-dir /tmp/ckpt -chaos kill:illinois-enum-strict-n4:2
//
// The verdict lines on stdout and the -json report are deterministic for
// a fixed spec (same seed, same chaos plan): no timestamps, jobs sorted
// by name. Diffing the output of a clean run against a chaos run is the
// crash-recovery check the CI workflow performs.
//
// Exit codes: 0 every job clean, 1 usage/internal error or a witness that
// failed its audit, 2 confirmed violations found, 3 stopped early or jobs
// quarantined/canceled.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/ckptio"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/protocols"
	"repro/internal/runctl"
)

func main() {
	var (
		protos      = flag.String("protocols", "illinois", "comma-separated protocol names")
		engines     = flag.String("engines", "enum-strict,symbolic", "comma-separated engines: enum-strict, enum-counting, symbolic")
		ns          = flag.String("n", "3", "comma-separated cache counts for enumeration engines")
		strict      = flag.Bool("strict", false, "enable the clean-state/memory extension check")
		mutants     = flag.Bool("mutants", false, "campaign over the fault-injected mutants of each protocol instead of the protocol itself")
		attempts    = flag.Int("max-attempts", 4, "attempts per job before quarantine")
		atimeout    = flag.Duration("attempt-timeout", 0, "per-attempt wall-clock deadline (0: none)")
		maxStates   = flag.Int("max-states", 0, "per-attempt distinct-state budget (0: engine default)")
		workers     = flag.Int("workers", 1, "workers on every rung of the ladder")
		ckptDir     = flag.String("checkpoint-dir", "", "durable snapshot store directory (empty: no checkpoints)")
		ckptEvery   = flag.Int("checkpoint-every", 512, "periodic snapshot cadence in expanded states")
		keep        = flag.Int("checkpoint-keep", ckptio.DefaultKeep, "good snapshot generations each job retains")
		seed        = flag.Int64("seed", 1993, "campaign seed (backoff jitter determinism)")
		noAudit     = flag.Bool("no-audit", false, "skip the independent witness confirmation pass")
		noFallback  = flag.Bool("no-symbolic-fallback", false, "remove the symbolic rung from enumeration ladders")
		chaosSpec   = flag.String("chaos", "", "fault injection plan: comma-separated kind:job:at-save triples (kinds: corrupt, delete, kill, wedge)")
		jsonFile    = flag.String("json", "", "write the machine-readable campaign report to this JSON file")
		progress    = flag.Bool("progress", false, "print one progress line per expansion level and phase to stderr")
		metricsJSON = flag.String("metrics-json", "", "write the campaign's metrics snapshot to this JSON file")
		timeout     = flag.Duration("timeout", 0, "wall-clock limit for the whole campaign (0: none)")
		showVersion = flag.Bool("version", false, "print version information and exit")
	)
	flag.Parse()

	if *showVersion {
		fmt.Println(runctl.VersionString("cccampaign"))
		os.Exit(runctl.ExitClean)
	}

	ctx, stop := runctl.WithSignals(context.Background(), *timeout)
	defer stop()

	pol := campaign.Policy{
		MaxAttempts:        *attempts,
		AttemptTimeout:     *atimeout,
		MaxStates:          *maxStates,
		Workers:            *workers,
		CheckpointDir:      *ckptDir,
		CheckpointEvery:    *ckptEvery,
		Keep:               *keep,
		Seed:               *seed,
		NoAudit:            *noAudit,
		NoSymbolicFallback: *noFallback,
	}
	if *progress {
		pol.Observer = obs.Progress(os.Stderr)
	}
	if *metricsJSON != "" {
		pol.Metrics = obs.NewRegistry()
	}
	var err error
	pol.Chaos, err = parseChaos(*chaosSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cccampaign:", err)
		os.Exit(runctl.ExitUsage)
	}

	jobs, err := buildJobs(*protos, *engines, *ns, *strict, *mutants)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cccampaign:", err)
		os.Exit(runctl.ExitUsage)
	}

	code, err := run(ctx, os.Stdout, campaign.Spec{Jobs: jobs, Policy: pol}, *jsonFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cccampaign:", err)
		os.Exit(runctl.ExitUsage)
	}
	if *metricsJSON != "" {
		if err := obs.WriteFile(*metricsJSON, pol.Metrics); err != nil {
			fmt.Fprintln(os.Stderr, "cccampaign:", err)
			os.Exit(runctl.ExitUsage)
		}
	}
	os.Exit(code)
}

// buildJobs expands the protocol × engine × n cross-product (n applies to
// enumeration engines only; symbolic jobs appear once per protocol).
func buildJobs(protos, engines, ns string, strict, mutants bool) ([]campaign.JobSpec, error) {
	engs, err := parseEngines(engines)
	if err != nil {
		return nil, err
	}
	counts, err := parseInts(ns)
	if err != nil {
		return nil, err
	}
	var jobs []campaign.JobSpec
	for _, proto := range splitList(protos) {
		p, err := protocols.ByName(proto)
		if err != nil {
			return nil, err
		}
		targets := []campaign.JobSpec{{Protocol: p.Name, Strict: strict}}
		if mutants {
			targets = nil
			for _, m := range mutate.Catalog(p) {
				targets = append(targets, campaign.JobSpec{
					Protocol: m.Protocol.Name + "!" + m.Rule,
					Proto:    m.Protocol,
					Strict:   strict,
				})
			}
		}
		for _, tgt := range targets {
			for _, e := range engs {
				if e == campaign.EngineSymbolic {
					j := tgt
					j.Engine = e
					j.Name = campaign.JobName(tgt.Protocol, e, 0)
					jobs = append(jobs, j)
					continue
				}
				for _, n := range counts {
					j := tgt
					j.Engine = e
					j.N = n
					j.Name = campaign.JobName(tgt.Protocol, e, n)
					jobs = append(jobs, j)
				}
			}
		}
	}
	return jobs, nil
}

// run executes the campaign and renders its outputs, returning the
// process exit code.
func run(ctx context.Context, out *os.File, spec campaign.Spec, jsonFile string) (int, error) {
	rep, err := campaign.Run(ctx, spec)
	if err != nil {
		return 0, err
	}
	if err := rep.WriteVerdictLines(out); err != nil {
		return 0, err
	}
	if jsonFile != "" {
		data, err := rep.JSON()
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(jsonFile, data, 0o644); err != nil {
			return 0, err
		}
		fmt.Fprintf(os.Stderr, "cccampaign: wrote JSON report to %s\n", jsonFile)
	}
	switch {
	case !rep.Audited():
		// A violation without a replay-confirmed witness is a tooling
		// failure, not a verification verdict.
		fmt.Fprintf(os.Stderr, "cccampaign: %d of %d witnesses failed the independent replay audit\n",
			rep.Audit.Witnesses-rep.Audit.Confirmed, rep.Audit.Witnesses)
		return runctl.ExitUsage, nil
	case rep.Total.Quarantined > 0 || rep.Total.Canceled > 0 || rep.Total.Failed > 0:
		return runctl.ExitStopped, nil
	case rep.Total.Violations > 0:
		return runctl.ExitViolation, nil
	default:
		return runctl.ExitClean, nil
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseEngines(s string) ([]campaign.Engine, error) {
	var out []campaign.Engine
	for _, part := range splitList(s) {
		e := campaign.Engine(part)
		switch e {
		case campaign.EngineEnumStrict, campaign.EngineEnumCounting, campaign.EngineSymbolic:
			out = append(out, e)
		default:
			return nil, fmt.Errorf("unknown engine %q (want enum-strict, enum-counting or symbolic)", part)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no engines given")
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid cache count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no cache counts given")
	}
	return out, nil
}

// parseChaos parses "kind:job:at-save" triples.
func parseChaos(s string) ([]campaign.ChaosOp, error) {
	var out []campaign.ChaosOp
	for _, part := range splitList(s) {
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("invalid chaos op %q (want kind:job:at-save)", part)
		}
		kind := fields[0]
		switch kind {
		case "corrupt", "delete", "kill", "wedge":
		default:
			return nil, fmt.Errorf("unknown chaos kind %q", kind)
		}
		at, err := strconv.Atoi(fields[2])
		if err != nil || at < 1 {
			return nil, fmt.Errorf("invalid chaos save ordinal %q", fields[2])
		}
		out = append(out, campaign.ChaosOp{Kind: kind, Job: fields[1], AtSave: at})
	}
	return out, nil
}
