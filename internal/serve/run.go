package serve

import (
	"context"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/core"
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
// Errors are core.Run's: a stopped run returns an error matching the
// runctl sentinels via errors.Is, and a specification error one matching
// core.ErrSpec. Engine counters (level, visit and pruning totals)
// accumulate into reg, the server's registry.
func runVerification(ctx context.Context, p *fsm.Protocol, key string, opts JobOptions, reg *obs.Registry) (rep *Report, cacheable bool, err error) {
	out, err := core.Run(ctx, p, opts.job(reg))
	if err != nil {
		return nil, false, err
	}
	rep = &Report{Essential: out.Essential, Visits: out.Visits}
	if out.Symbolic != nil {
		fillSymbolic(rep, p, opts.Strict, out.Symbolic)
	} else if vs := out.Enum.Violations; len(vs) > 0 {
		verdicts := campaign.ConfirmEnumWitnesses(p, opts.N, out.Enum.Mode, opts.Strict, vs)
		fillEnumViolations(rep, p, vs, verdicts)
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

// job is the engine run of a verification job at its own engine, cache
// count, strictness, state cap and width; reg, when non-nil, collects the
// engine counters.
func (o JobOptions) job(reg *obs.Registry) core.Job {
	return core.Job{
		Engine:    o.Engine,
		N:         o.N,
		Strict:    o.Strict,
		MaxStates: o.MaxStates,
		RunConfig: runctl.RunConfig{Metrics: reg, Workers: o.Workers},
	}
}

// Report verdicts.
const (
	VerdictClean      = "clean"
	VerdictViolations = "violations"
)

// fillSymbolic renders a symbolic run's essential states into rep, and its
// violations with the verdicts of their audit by concretization.
func fillSymbolic(rep *Report, p *fsm.Protocol, strict bool, res *symbolic.Result) {
	for _, s := range symbolic.SortStates(res.Essential) {
		rep.EssentialStates = append(rep.EssentialStates, s.StructureString(p))
	}
	verdicts := campaign.ConfirmSymbolicWitnesses(p, strict, res.Violations)
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
}

// fillEnumViolations renders an enum run's violations into rep. Every
// state and witness line of the run is written into one buffer, sized up
// front, and is a substring of one string; the violation, kind and
// witness slices are each cut from one slab.
func fillEnumViolations(rep *Report, p *fsm.Protocol, vs []enum.Violation, verdicts []campaign.Verdict) {
	kinds, steps, size := 0, 0, 0
	for _, v := range vs {
		kinds += len(v.Violations)
		steps += len(v.Path)
		size += p.CanonicalKeyLen(len(v.Config.States))
		for _, st := range v.Path {
			size += len(strconv.Itoa(st.Cache)) + len(st.Op) + len(" -> ") + len(st.To)
		}
	}
	var text strings.Builder
	text.Grow(size)
	ends := make([]int, 0, len(vs)+steps) // each string's end in text, in order
	var buf [128]byte
	for _, v := range vs {
		text.Write(v.Config.AppendKey(buf[:0]))
		ends = append(ends, text.Len())
		for _, st := range v.Path {
			text.WriteString(strconv.Itoa(st.Cache))
			text.WriteString(string(st.Op))
			text.WriteString(" -> ")
			text.WriteString(st.To)
			ends = append(ends, text.Len())
		}
	}
	all := text.String()
	kindSlab, lineSlab := make([]string, kinds), make([]string, steps)
	rep.Violations = make([]ViolationReport, len(vs))
	from, e := 0, 0
	next := func() string {
		s := all[from:ends[e]]
		from, e = ends[e], e+1
		return s
	}
	for i, v := range vs {
		vr := &rep.Violations[i]
		vr.State = next()
		if k := len(v.Violations); k > 0 {
			vr.Kinds, kindSlab = kindSlab[:k:k], kindSlab[k:]
			for j, viol := range v.Violations {
				vr.Kinds[j] = viol.Kind.String()
			}
		}
		if k := len(v.Path); k > 0 {
			vr.Witness, lineSlab = lineSlab[:k:k], lineSlab[k:]
			for j := range v.Path {
				vr.Witness[j] = next()
			}
		}
		vr.Confirmed, vr.AuditNote = verdicts[i].Confirmed, verdicts[i].Note
	}
}
