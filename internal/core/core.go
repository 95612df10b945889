// Package core orchestrates the full verification pipeline of the paper:
// symbolic expansion of the global state space (internal/symbolic),
// permissibility and data-consistency checking (Definition 3), construction
// of the global transition diagram (internal/graph), and optional
// cross-validation against explicit-state enumeration for fixed cache
// counts (internal/enum) — the executable form of Theorem 1.
package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/enum"
	"repro/internal/fsm"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runctl"
	"repro/internal/symbolic"
)

// Options configure a verification run.
type Options struct {
	// Strict enables the CleanShared memory-consistency extension check.
	Strict bool
	// RecordLog keeps the full expansion log (the Appendix A.2 listing).
	RecordLog bool
	// StopOnViolation aborts the expansion at the first erroneous state.
	StopOnViolation bool
	// BuildGraph constructs the global transition diagram over the
	// essential states (skipped automatically when the protocol is
	// erroneous, since Theorem 1 coverage need not hold then).
	BuildGraph bool
	// CrossCheckN lists cache counts for explicit-state cross-validation:
	// for each n, every concrete reachable state must be covered by an
	// essential state and must satisfy the same invariants.
	CrossCheckN []int
	// MaxVisits bounds the symbolic expansion (0 = default).
	MaxVisits int
	// SymbolicWorkers is the symbolic expansion's speculation width
	// (RunConfig.Workers); 0 or 1 expands every item inline. Results are
	// bit-identical at every width.
	SymbolicWorkers int

	// Budget bounds the estimated memory of the symbolic expansion and of
	// every cross-check enumeration; the context bounds time and MaxVisits
	// the expansion's visits (one knob per bound). A memory or deadline
	// stop of the expansion happens at a worklist boundary and can carry a
	// checkpoint (CheckpointOnStop); a MaxVisits stop is mid-step and
	// never does. A stopped run returns the partial Report together with
	// an error matching one of the runctl sentinels via errors.Is.
	Budget runctl.Budget
	// CheckpointOnStop captures a resumable snapshot of the symbolic
	// expansion into Report.Symbolic.Checkpoint when the run is stopped
	// at a worklist boundary.
	CheckpointOnStop bool
	// Resume continues the symbolic expansion from a previously captured
	// checkpoint, encoded (symbolic.Checkpoint.Encode), instead of starting
	// from the initial composite state.
	Resume []byte

	// Observer receives phase boundaries (expand, graph, crosscheck),
	// per-level stats and discrete events from every stage of the pipeline;
	// nil disables the callbacks with no overhead (the engines' nil-check
	// fast path).
	Observer obs.Observer
	// Metrics, when non-nil, accumulates the pipeline's counters, gauges
	// and per-phase timing histograms across all stages; see internal/obs
	// for the metric-name catalog.
	Metrics *obs.Registry
}

// CrossCheck is the result of one explicit-state validation run.
type CrossCheck struct {
	N    int
	Enum *enum.Result
	// Uncovered lists reachable concrete states not covered by any
	// essential state (must be empty for a correct run; Theorem 1).
	Uncovered []string
}

// OK reports whether the cross-check found no discrepancy.
func (c *CrossCheck) OK() bool {
	return c.Enum.OK() && len(c.Uncovered) == 0 && !c.Enum.Truncated
}

// Report is the outcome of a full verification run.
type Report struct {
	Protocol    *fsm.Protocol
	Symbolic    *symbolic.Result
	Graph       *graph.Global
	CrossChecks []CrossCheck
	engine      *symbolic.Engine
}

// OK reports whether the protocol verified cleanly end to end.
func (r *Report) OK() bool {
	if !r.Symbolic.OK() {
		return false
	}
	for i := range r.CrossChecks {
		if !r.CrossChecks[i].OK() {
			return false
		}
	}
	return true
}

// Engine exposes the symbolic engine of the run (for callers that want to
// continue exploring, e.g. the graph or abstraction helpers).
func (r *Report) Engine() *symbolic.Engine { return r.engine }

// Verify runs the verification pipeline on protocol p.
func Verify(p *fsm.Protocol, opts Options) (*Report, error) {
	return VerifyContext(context.Background(), p, opts)
}

// VerifyContext runs the pipeline under a context. The context
// (cancellation, deadline) and the Options bounds stop whichever stage is
// active; the partial Report produced so far is then returned TOGETHER
// with a non-nil error that matches one of the runctl sentinels
// (ErrCanceled, ErrDeadline, ErrStateBudget, ErrMemBudget) via errors.Is,
// so callers can both classify the stop and render what was verified
// before it.
func VerifyContext(ctx context.Context, p *fsm.Protocol, opts Options) (*Report, error) {
	// The pipeline's own run handle times the graph and cross-check phases;
	// the engines open their own expand/reconcile phases on the same
	// observer and registry through their RunConfig.
	orun := obs.Sink{Observer: opts.Observer, Metrics: opts.Metrics}.Run("core", p.Name)
	out, err := Run(ctx, p, Job{
		Engine:    EngineSymbolic,
		Strict:    opts.Strict,
		MaxStates: opts.MaxVisits,
		RunConfig: runctl.RunConfig{
			Budget:           opts.Budget,
			CheckpointOnStop: opts.CheckpointOnStop,
			Observer:         opts.Observer,
			Metrics:          opts.Metrics,
			Workers:          opts.SymbolicWorkers,
		},
		RecordLog:       opts.RecordLog,
		StopOnViolation: opts.StopOnViolation,
		Resume:          opts.Resume,
	})
	if out == nil {
		return nil, err
	}
	// A run that returned is stopped or complete; its specification errors
	// are part of the verdict (Report.OK), not a failure of the pipeline.
	rep := &Report{Protocol: p, Symbolic: out.Symbolic, engine: out.Engine}
	if rep.Symbolic.Truncated {
		return rep, fmt.Errorf("core: symbolic expansion of %s stopped: %w", p.Name, rep.Symbolic.StopReason)
	}

	if opts.BuildGraph && rep.Symbolic.OK() {
		gsp := orun.Phase(obs.PhaseGraph)
		g, err := graph.BuildGlobal(rep.engine, rep.Symbolic.Essential)
		gsp.End()
		if err != nil {
			return nil, fmt.Errorf("core: building global diagram for %s: %w", p.Name, err)
		}
		rep.Graph = g
	}

	for _, n := range opts.CrossCheckN {
		csp := orun.Phase(obs.PhaseCrossCheck)
		cc, err := crossCheck(ctx, rep.engine, rep.Symbolic.Essential, n, opts)
		csp.End()
		if err != nil && !runctl.IsStop(err) {
			return nil, err
		}
		rep.CrossChecks = append(rep.CrossChecks, *cc)
		if err != nil {
			return rep, fmt.Errorf("core: cross-check of %s with %d caches stopped: %w", p.Name, n, err)
		}
	}
	return rep, nil
}

// crossCheck enumerates the concrete state space for n caches and verifies
// that every reachable state, replayed from the run, is covered by an
// essential state. A run or replay that stops returns the partial check
// with the stop.
func crossCheck(ctx context.Context, eng *symbolic.Engine, essential []*symbolic.CState, n int, opts Options) (*CrossCheck, error) {
	p := eng.Protocol()
	out, err := Run(ctx, p, Job{
		Engine: EngineEnumCounting,
		N:      n,
		Strict: opts.Strict,
		RunConfig: runctl.RunConfig{
			Budget:   opts.Budget,
			Observer: opts.Observer,
			Metrics:  opts.Metrics,
		},
	})
	if out == nil {
		return nil, fmt.Errorf("core: enumerating %s with %d caches: %w", p.Name, n, err)
	}
	// A stopped run is replayed as far as it got; specification errors
	// fail the check through Enum.OK.
	res := out.Enum
	cc := &CrossCheck{N: n, Enum: res}
	err = res.Configs(ctx, func(cfg *fsm.Config) error {
		cs, err := eng.Abstract(cfg)
		if err != nil {
			return err
		}
		if _, ok := symbolic.CoveredBy(cs, essential); !ok {
			cc.Uncovered = append(cc.Uncovered, cfg.String()+" ~ "+cs.StructureString(p))
		}
		return nil
	})
	if err == nil && res.Truncated {
		err = res.StopReason
	}
	return cc, err
}

// Summary renders a human-readable report.
func (r *Report) Summary() string {
	var b strings.Builder
	p := r.Protocol
	verdict := "PERMISSIBLE (no erroneous state reachable)"
	if !r.Symbolic.OK() {
		verdict = "ERRONEOUS"
	}
	if r.Symbolic.Truncated {
		verdict = "INCONCLUSIVE (run stopped early)"
		if !r.Symbolic.OK() {
			verdict = "ERRONEOUS (run stopped early; more errors may exist)"
		}
	}
	fmt.Fprintf(&b, "Protocol %s: %s\n", p.Name, verdict)
	if r.Symbolic.Truncated {
		fmt.Fprintf(&b, "  stopped: %v\n", r.Symbolic.StopReason)
	}
	fmt.Fprintf(&b, "  characteristic function: %s\n", p.Characteristic)
	fmt.Fprintf(&b, "  essential states: %d   state visits: %d   expansions: %d   superseded: %d\n",
		len(r.Symbolic.Essential), r.Symbolic.Visits, r.Symbolic.Expansions, r.Symbolic.Superseded)

	t := report.NewTable("state", "composite", "context")
	for i, s := range symbolic.SortStates(r.Symbolic.Essential) {
		t.AddRow(fmt.Sprintf("s%d", i), s.StructureString(p), s.ContextString(p))
	}
	b.WriteString(t.String())

	for _, sv := range r.Symbolic.Violations {
		fmt.Fprintf(&b, "  erroneous state %s:\n", sv.State.StructureString(p))
		for _, v := range sv.Violations {
			fmt.Fprintf(&b, "    - %s\n", v.Error())
		}
		if len(sv.Path) > 0 {
			fmt.Fprintf(&b, "    witness: %s\n", FormatWitness(p, r.engine, sv.Path))
		}
	}
	for _, e := range r.Symbolic.SpecErrors {
		fmt.Fprintf(&b, "  specification error: %v\n", e)
	}
	for i := range r.CrossChecks {
		cc := &r.CrossChecks[i]
		status := "OK"
		if !cc.OK() {
			status = "FAILED"
		}
		fmt.Fprintf(&b, "  cross-check n=%d: %s (%d concrete states, %d visits, %d violations, %d uncovered)\n",
			cc.N, status, cc.Enum.Unique, cc.Enum.Visits, len(cc.Enum.Violations), len(cc.Uncovered))
		if cc.Enum.Truncated {
			fmt.Fprintf(&b, "    stopped: %v\n", cc.Enum.StopReason)
		}
	}
	return b.String()
}

// FormatWitness renders a symbolic witness path.
func FormatWitness(p *fsm.Protocol, eng *symbolic.Engine, path []symbolic.PathStep) string {
	parts := []string{eng.Initial().StructureString(p)}
	for _, st := range path {
		parts = append(parts, fmt.Sprintf("--%s--> %s", st.Label, st.To.StructureString(p)))
	}
	return strings.Join(parts, " ")
}
