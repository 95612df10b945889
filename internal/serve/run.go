package serve

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/campaign"
	"repro/internal/enum"
	"repro/internal/fsm"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/symbolic"
)

// ReportSchema versions the result JSON; it rides inside every report so
// clients and the disk tier can detect incompatible producers.
const ReportSchema = 1

// Report is the verification result the service returns and caches. It is
// rendered exactly once per verdict (see encodeReport) and from then on
// moved around as opaque bytes, which is what makes cached and fresh
// responses byte-identical. It deliberately contains nothing
// run-dependent: no timestamps, durations or host data.
type Report struct {
	Schema         int    `json:"schema"`
	Protocol       string `json:"protocol"`
	Characteristic string `json:"characteristic"`
	Engine         string `json:"engine"`
	N              int    `json:"n,omitempty"`
	Strict         bool   `json:"strict,omitempty"`
	MaxStates      int    `json:"max_states,omitempty"`
	// Workers is the parallel engine width the result was produced with
	// (omitted when 1, the sequential default); the parallel engines are
	// bit-identical to the sequential ones, so it documents cost, not
	// verdict.
	Workers int `json:"workers,omitempty"`
	// CacheKey is the content address of this result.
	CacheKey string `json:"cache_key"`
	// Verdict is "clean" or "violations".
	Verdict string `json:"verdict"`
	// Essential counts essential states (symbolic) or distinct states
	// (enumeration); Visits is the engine's state-visit counter.
	Essential int `json:"essential"`
	Visits    int `json:"visits"`
	// EssentialStates lists the essential composite states in canonical
	// order (symbolic engine only).
	EssentialStates []string `json:"essential_states,omitempty"`
	// Violations lists erroneous states with audit outcomes.
	Violations []ViolationReport `json:"violations,omitempty"`
}

// ViolationReport is one erroneous state, its witness and the outcome of
// the engine-independent audit replay.
type ViolationReport struct {
	State   string   `json:"state"`
	Kinds   []string `json:"kinds"`
	Witness []string `json:"witness,omitempty"`
	// Confirmed reports that the campaign auditor reproduced the
	// violation by concrete replay. Unconfirmed violations are served but
	// never cached.
	Confirmed bool   `json:"confirmed"`
	AuditNote string `json:"audit_note,omitempty"`
}

// runVerification executes one verification job and renders its report.
// cacheable is false when the verdict must not enter the cache: the run
// was truncated, or a violation witness failed its independent audit.
// Errors follow the runctl taxonomy: a stopped run returns an error
// matching the runctl sentinels via errors.Is. Engine counters (level,
// visit and pruning totals) accumulate into reg, the server's registry.
func runVerification(ctx context.Context, p *fsm.Protocol, key string, opts JobOptions, reg *obs.Registry) (rep *Report, cacheable bool, err error) {
	switch opts.Engine {
	case EngineSymbolic:
		rep, err = runSymbolic(ctx, p, opts, reg)
	default:
		rep, err = runEnum(ctx, p, opts, reg)
	}
	if err != nil {
		return nil, false, err
	}
	rep.Schema = ReportSchema
	rep.Protocol = p.Name
	rep.Characteristic = p.Characteristic.String()
	rep.Engine = opts.Engine
	rep.N = opts.N
	rep.Strict = opts.Strict
	rep.MaxStates = opts.MaxStates
	if opts.Workers > 1 {
		rep.Workers = opts.Workers
	}
	rep.CacheKey = key
	rep.Verdict = VerdictClean
	cacheable = true
	for _, v := range rep.Violations {
		rep.Verdict = VerdictViolations
		if !v.Confirmed {
			cacheable = false
		}
	}
	return rep, cacheable, nil
}

// Report verdicts.
const (
	VerdictClean      = "clean"
	VerdictViolations = "violations"
)

// runSymbolic runs the Figure 3 symbolic expansion and audits any
// violations by concretization.
func runSymbolic(ctx context.Context, p *fsm.Protocol, opts JobOptions, reg *obs.Registry) (*Report, error) {
	_, res, err := expand(ctx, p, opts, reg)
	if err != nil {
		return nil, err
	}
	if len(res.SpecErrors) > 0 {
		return nil, fmt.Errorf("serve: specification error: %v", res.SpecErrors[0])
	}
	rep := &Report{Essential: len(res.Essential), Visits: res.Visits}
	for _, s := range symbolic.SortStates(res.Essential) {
		rep.EssentialStates = append(rep.EssentialStates, s.StructureString(p))
	}
	verdicts := campaign.ConfirmSymbolicWitnesses(p, opts.Strict, res.Violations)
	for i, v := range res.Violations {
		vr := ViolationReport{State: v.State.StructureString(p)}
		for _, viol := range v.Violations {
			vr.Kinds = append(vr.Kinds, viol.Kind.String())
		}
		for _, st := range v.Path {
			vr.Witness = append(vr.Witness, st.Label.String()+" -> "+st.To.StructureString(p))
		}
		vr.Confirmed, vr.AuditNote = verdicts[i].Confirmed, verdicts[i].Note
		rep.Violations = append(rep.Violations, vr)
	}
	return rep, nil
}

// runEnum runs an explicit-state enumeration (Figure 2 strict or
// Definition 5 counting) and audits any violations by step replay.
func runEnum(ctx context.Context, p *fsm.Protocol, opts JobOptions, reg *obs.Registry) (*Report, error) {
	res, err := enumerate(ctx, p, opts, enum.Options{RunConfig: runctl.RunConfig{Metrics: reg}})
	if err != nil {
		return nil, err
	}
	if len(res.SpecErrors) > 0 {
		return nil, fmt.Errorf("serve: specification error: %v", res.SpecErrors[0])
	}
	rep := &Report{Essential: res.Unique, Visits: res.Visits}
	verdicts := campaign.ConfirmEnumWitnesses(p, opts.N, res.Mode, opts.Strict, res.Violations)
	for i, v := range res.Violations {
		vr := ViolationReport{State: v.Config.Key()}
		for _, viol := range v.Violations {
			vr.Kinds = append(vr.Kinds, viol.Kind.String())
		}
		for _, st := range v.Path {
			vr.Witness = append(vr.Witness, strconv.Itoa(st.Cache)+string(st.Op)+" -> "+st.To)
		}
		vr.Confirmed, vr.AuditNote = verdicts[i].Confirmed, verdicts[i].Note
		rep.Violations = append(rep.Violations, vr)
	}
	return rep, nil
}

// expand runs a symbolic job's expansion under ctx, at the job's width,
// visit cap and strictness. A run that stops early returns an error
// matching the runctl sentinels.
func expand(ctx context.Context, p *fsm.Protocol, opts JobOptions, reg *obs.Registry) (*symbolic.Engine, *symbolic.Result, error) {
	eng, err := symbolic.NewEngine(p)
	if err != nil {
		return nil, nil, err
	}
	res, err := eng.ExpandContext(ctx, symbolic.Options{
		RunConfig: runctl.RunConfig{Metrics: reg, Workers: opts.Workers},
		Strict:    opts.Strict,
		MaxVisits: opts.MaxStates,
	})
	if err != nil {
		return nil, nil, err
	}
	if res.Truncated {
		return nil, nil, fmt.Errorf("serve: symbolic expansion stopped: %w", res.StopReason)
	}
	return eng, res, nil
}

// enumerate runs an enum job's enumeration under ctx, at the job's cache
// count, width, state cap and strictness, on top of eopts. A run that
// stops early returns an error matching the runctl sentinels.
func enumerate(ctx context.Context, p *fsm.Protocol, opts JobOptions, eopts enum.Options) (*enum.Result, error) {
	eopts.Workers, eopts.Strict, eopts.MaxStates = opts.Workers, opts.Strict, opts.MaxStates
	run := enum.ExhaustiveContext
	if opts.Engine == EngineEnumCounting {
		run = enum.CountingContext
	}
	res, err := run(ctx, p, opts.N, eopts)
	if err != nil {
		return nil, err
	}
	if res.Truncated {
		return nil, fmt.Errorf("serve: enumeration stopped: %w", res.StopReason)
	}
	return res, nil
}
