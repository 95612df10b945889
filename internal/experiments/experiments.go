// Package experiments regenerates every figure and table of the paper's
// evaluation (see DESIGN.md section 4 for the experiment index E1-E10).
// Each experiment has a structured form consumed by the test suite and the
// benchmark harness, and a rendered form printed by cmd/ccexperiments.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/enum"
	"repro/internal/fsm"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/protocols"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/symbolic"
	"repro/internal/trace"
)

// Fig1 is experiment E1: the per-cache (local) transition diagram of the
// Illinois protocol, Figure 1 of the paper.
func Fig1() (*graph.Local, error) {
	p := protocols.Illinois()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return graph.BuildLocal(p), nil
}

// RenderFig1 prints E1 as a table plus DOT.
func RenderFig1(w io.Writer) error {
	l, err := Fig1()
	if err != nil {
		return err
	}
	t := report.NewTable("from", "op", "guard", "to", "rule")
	for _, e := range l.Edges {
		t.AddRow(e.From, e.Op, e.Guard, e.To, e.Rule)
	}
	fmt.Fprint(w, report.Section(
		"E1 / Figure 1 — Illinois per-cache transition diagram", t.String()))
	fmt.Fprintln(w, "\nGraphviz DOT:")
	fmt.Fprintln(w, l.DOT())
	return nil
}

// Fig4Result bundles experiment E4/E5/E6: the Illinois global diagram, its
// context table, and the expansion visit log.
type Fig4Result struct {
	Report *core.Report
	Graph  *graph.Global
}

// Fig4 runs the symbolic verification of the Illinois protocol with the
// full expansion log.
func Fig4() (*Fig4Result, error) {
	p := protocols.Illinois()
	rep, err := core.Verify(p, core.Options{RecordLog: true, BuildGraph: true})
	if err != nil {
		return nil, err
	}
	if !rep.OK() {
		return nil, fmt.Errorf("experiments: Illinois unexpectedly erroneous")
	}
	return &Fig4Result{Report: rep, Graph: rep.Graph}, nil
}

// RenderFig4 prints E4: essential states and the labelled global edges.
func RenderFig4(w io.Writer) error {
	r, err := Fig4()
	if err != nil {
		return err
	}
	p := r.Report.Protocol
	g := r.Graph
	var b strings.Builder
	fmt.Fprintf(&b, "essential states: %d (paper: 5)   state visits: %d (paper: 22)\n\n",
		len(g.Nodes), r.Report.Symbolic.Visits)
	t := report.NewTable("node", "composite state")
	for i, n := range g.Nodes {
		t.AddRow(g.NodeName(i), n.StructureString(p))
	}
	b.WriteString(t.String())
	b.WriteByte('\n')
	et := report.NewTable("from", "label", "to")
	for _, e := range g.Edges {
		et.AddRow(g.NodeName(e.From), e.Label(), g.NodeName(e.To))
	}
	b.WriteString(et.String())
	fmt.Fprint(w, report.Section("E4 / Figure 4 — Illinois global transition diagram", b.String()))
	dot, err := g.DOT(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nGraphviz DOT:\n%s\n", dot)
	return nil
}

// RenderFig4Table prints E5: the sharing/cdata/mdata table of Figure 4.
func RenderFig4Table(w io.Writer) error {
	r, err := Fig4()
	if err != nil {
		return err
	}
	p := r.Report.Protocol
	t := report.NewTable("state", "composite", "sharing (F)", "cdata", "mdata")
	for i, n := range r.Graph.Nodes {
		t.AddRow(r.Graph.NodeName(i), n.StructureString(p),
			n.Attr(), cdataString(p, n), n.MData())
	}
	fmt.Fprint(w, report.Section("E5 / Figure 4 table — context variables per essential state", t.String()))
	return nil
}

func cdataString(p *fsm.Protocol, n *symbolic.CState) string {
	var parts []string
	for i := 0; i < n.NumClasses(); i++ {
		if n.Rep(i) == symbolic.RZero {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s:%s", p.States[i], n.CData(i)))
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// RenderA2 prints E6: the expansion visit log, the analogue of the paper's
// Appendix A.2 (22 state visits for Illinois).
func RenderA2(w io.Writer) error {
	r, err := Fig4()
	if err != nil {
		return err
	}
	p := r.Report.Protocol
	t := report.NewTable("#", "from", "event", "to", "disposition")
	for i, v := range r.Report.Symbolic.Log {
		t.AddRow(i+1, v.From.StructureString(p), v.Label, v.To.StructureString(p), v.Outcome)
	}
	body := fmt.Sprintf("state visits: %d (paper: 22; see EXPERIMENTS.md for the accounting difference)\n\n%s",
		r.Report.Symbolic.Visits, t.String())
	fmt.Fprint(w, report.Section("E6 / Appendix A.2 — Illinois expansion steps", body))
	return nil
}

// ComplexityRow is one line of experiment E7: explicit-state costs for a
// fixed cache count against the constant symbolic cost.
type ComplexityRow struct {
	N              int
	StrictStates   int
	StrictVisits   int
	CountingStates int
	CountingVisits int
	TupleStates    int
	SymbolicStates int
	SymbolicVisits int
}

// Complexity sweeps the cache count for one protocol (E7, the §3.1 claim:
// enumeration costs grow like mⁿ while the symbolic expansion is constant
// and independent of n).
func Complexity(p *fsm.Protocol, ns []int) ([]ComplexityRow, error) {
	sym, err := symbolic.Expand(p, symbolic.Options{})
	if err != nil {
		return nil, err
	}
	var rows []ComplexityRow
	for _, n := range ns {
		ex, err := enum.Exhaustive(p, n, enum.Options{})
		if err != nil {
			return nil, err
		}
		ct, err := enum.Counting(p, n, enum.Options{})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ComplexityRow{
			N:              n,
			StrictStates:   ex.Unique,
			StrictVisits:   ex.Visits,
			CountingStates: ct.Unique,
			CountingVisits: ct.Visits,
			TupleStates:    ex.TupleStates,
			SymbolicStates: len(sym.Essential),
			SymbolicVisits: sym.Visits,
		})
	}
	return rows, nil
}

// RenderComplexity prints E7 for the given protocols and cache counts.
func RenderComplexity(w io.Writer, names []string, ns []int) error {
	for _, name := range names {
		p, err := protocols.ByName(name)
		if err != nil {
			return err
		}
		rows, err := Complexity(p, ns)
		if err != nil {
			return err
		}
		t := report.NewTable("n", "strict states", "strict visits", "counting states",
			"counting visits", "state tuples", "symbolic essential", "symbolic visits")
		for _, r := range rows {
			t.AddRow(r.N, r.StrictStates, r.StrictVisits, r.CountingStates,
				r.CountingVisits, r.TupleStates, r.SymbolicStates, r.SymbolicVisits)
		}
		fmt.Fprint(w, report.Section(
			fmt.Sprintf("E7 / §3.1 — state-space growth, %s (enumeration ∝ mⁿ vs constant symbolic)", p.Name),
			t.String()))
		fmt.Fprintln(w)
	}
	return nil
}

// SuiteRow is one protocol's verification summary (E8).
type SuiteRow struct {
	Report *core.Report
}

// Suite verifies every built-in protocol (E8: the companion TR's result
// that the method applies to all protocols of Archibald & Baer's survey).
func Suite(crossCheckN []int) ([]SuiteRow, error) {
	var rows []SuiteRow
	for _, p := range protocols.All() {
		rep, err := core.Verify(p, core.Options{BuildGraph: true, CrossCheckN: crossCheckN})
		if err != nil {
			return nil, err
		}
		rows = append(rows, SuiteRow{Report: rep})
	}
	return rows, nil
}

// RenderSuite prints E8.
func RenderSuite(w io.Writer) error {
	rows, err := Suite([]int{2, 3, 4})
	if err != nil {
		return err
	}
	t := report.NewTable("protocol", "F", "essential", "visits", "edges", "verdict", "cross-checks n=2,3,4")
	for _, r := range rows {
		rep := r.Report
		verdict := "permissible"
		if !rep.Symbolic.OK() {
			verdict = "ERRONEOUS"
		}
		edges := 0
		if rep.Graph != nil {
			edges = len(rep.Graph.Edges)
		}
		var ccs []string
		for i := range rep.CrossChecks {
			cc := &rep.CrossChecks[i]
			s := "ok"
			if !cc.OK() {
				s = "FAIL"
			}
			ccs = append(ccs, fmt.Sprintf("%s(%d states)", s, cc.Enum.Unique))
		}
		t.AddRow(rep.Protocol.Name, rep.Protocol.Characteristic,
			len(rep.Symbolic.Essential), rep.Symbolic.Visits, edges, verdict, strings.Join(ccs, " "))
	}
	fmt.Fprint(w, report.Section("E8 — verification of the Archibald & Baer protocol suite", t.String()))
	return nil
}

// MutantRow is one fault-injection outcome (E9).
type MutantRow struct {
	Mutant   mutate.Mutant
	Report   *core.Report
	Detected bool
}

// MutantsExperiment verifies every mutant of every protocol (E9).
func MutantsExperiment() ([]MutantRow, error) {
	var rows []MutantRow
	for _, p := range protocols.All() {
		for _, m := range mutate.Catalog(p) {
			rep, err := core.Verify(m.Protocol, core.Options{Strict: true})
			if err != nil {
				return nil, err
			}
			rows = append(rows, MutantRow{
				Mutant:   m,
				Report:   rep,
				Detected: !rep.Symbolic.OK(),
			})
		}
	}
	return rows, nil
}

// RenderMutants prints E9 with one witness path per detected mutant.
func RenderMutants(w io.Writer) error {
	rows, err := MutantsExperiment()
	if err != nil {
		return err
	}
	detected := 0
	t := report.NewTable("mutant", "mutated rule", "fault", "verdict", "violations")
	for _, r := range rows {
		verdict := "MISSED"
		if r.Detected {
			verdict = "detected"
			detected++
		}
		t.AddRow(r.Mutant.Protocol.Name, r.Mutant.Rule, r.Mutant.Detail, verdict,
			len(r.Report.Symbolic.Violations))
	}
	body := fmt.Sprintf("detected %d/%d injected faults\n\n%s", detected, len(rows), t.String())
	fmt.Fprint(w, report.Section("E9 — erroneous-state detection on fault-injected protocols", body))

	fmt.Fprintln(w, "\nSample witnesses:")
	for _, r := range rows {
		if !r.Detected || len(r.Report.Symbolic.Violations) == 0 {
			continue
		}
		sv := r.Report.Symbolic.Violations[0]
		fmt.Fprintf(w, "  %s: %s\n    %s\n", r.Mutant.Protocol.Name,
			sv.Violations[0].Error(),
			core.FormatWitness(r.Mutant.Protocol, r.Report.Engine(), sv.Path))
	}
	return nil
}

// WorkloadRow is one simulator run (the Archibald & Baer-style protocol
// comparison, an extension experiment).
type WorkloadRow struct {
	Protocol string
	Workload string
	Stats    sim.Stats
}

// Workloads runs every protocol against the canonical sharing patterns and
// collects bus-traffic statistics.
func Workloads(caches, blocks, ops int, seed int64) ([]WorkloadRow, error) {
	mk := func(kind string) (trace.Workload, error) {
		switch kind {
		case "uniform":
			return trace.NewUniform(seed, caches, blocks, 0.3, 0.02)
		case "hot-block":
			return trace.NewHotBlock(seed, caches, blocks, 0.3, 0.5)
		case "migratory":
			return trace.NewMigratory(seed, caches, blocks, 4)
		case "producer-consumer":
			return trace.NewProducerConsumer(seed, caches, blocks, 4)
		default:
			return nil, fmt.Errorf("experiments: unknown workload %q", kind)
		}
	}
	var rows []WorkloadRow
	for _, p := range protocols.All() {
		for _, kind := range []string{"uniform", "hot-block", "migratory", "producer-consumer"} {
			w, err := mk(kind)
			if err != nil {
				return nil, err
			}
			m, err := sim.New(sim.Config{Protocol: p, Caches: caches, Blocks: blocks, Capacity: blocks})
			if err != nil {
				return nil, err
			}
			st, err := m.Run(w, ops)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%s: %w", p.Name, kind, err)
			}
			if v := m.CheckInvariants(); len(v) > 0 {
				return nil, fmt.Errorf("experiments: %s/%s: invariant violation: %v", p.Name, kind, v[0])
			}
			rows = append(rows, WorkloadRow{Protocol: p.Name, Workload: kind, Stats: st})
		}
	}
	return rows, nil
}

// RenderWorkloads prints the simulator comparison.
func RenderWorkloads(w io.Writer, caches, blocks, ops int, seed int64) error {
	rows, err := Workloads(caches, blocks, ops, seed)
	if err != nil {
		return err
	}
	t := report.NewTable("protocol", "workload", "miss ratio", "invalidations",
		"updates", "cache-to-cache", "write-backs", "bus txns", "stale reads")
	for _, r := range rows {
		t.AddRow(r.Protocol, r.Workload, fmt.Sprintf("%.4f", r.Stats.MissRatio()),
			r.Stats.Invalidations, r.Stats.Updates, r.Stats.CacheSupplies,
			r.Stats.WriteBacks, r.Stats.BusTransactions, r.Stats.StaleReads)
	}
	fmt.Fprint(w, report.Section(
		fmt.Sprintf("Extension — simulated bus traffic (%d caches, %d blocks, %d refs)", caches, blocks, ops),
		t.String()))
	return nil
}
