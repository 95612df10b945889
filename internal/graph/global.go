package graph

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/fsm"
	"repro/internal/runctl"
	"repro/internal/symbolic"
)

// Edge is one labelled transition of the global diagram between essential
// states.
type Edge struct {
	From, To int // node indexes
	Op       fsm.Op
	Origin   fsm.State
	NStep    bool
	Rule     string
}

// Label renders the edge label in the paper's notation (e.g. "R^n_Invalid").
func (e Edge) Label() string {
	return symbolic.Label{Op: e.Op, Origin: e.Origin, NStep: e.NStep}.String()
}

// Global is the global transition diagram over essential states (Figure 4).
type Global struct {
	Protocol *fsm.Protocol
	// Nodes are the essential states in canonical order (SortStates).
	Nodes []*symbolic.CState
	// Edges are deduplicated labelled transitions, sorted by (From, To, label).
	Edges []Edge
	// Initial is the node index of the initial state's representative.
	Initial int
}

// BuildGlobal recomputes the one-step successors of every essential state
// and maps each onto the containing essential state. Expansion must have
// verified the protocol already: every successor of an essential state must
// be covered by some essential state, otherwise BuildGlobal reports an
// error (a completeness failure).
func BuildGlobal(eng *symbolic.Engine, essential []*symbolic.CState) (*Global, error) {
	p := eng.Protocol()
	nodes := symbolic.SortStates(essential)
	index := make(map[string]int, len(nodes))
	for i, n := range nodes {
		index[n.Key()] = i
	}

	g := &Global{Protocol: p, Nodes: nodes, Initial: -1}
	init := eng.Initial()
	for i, n := range nodes {
		if symbolic.Contains(n, init) {
			g.Initial = i
			break
		}
	}
	if g.Initial < 0 {
		return nil, fmt.Errorf("graph: initial state %s not covered by any essential state", init.StructureString(p))
	}

	type edgeKey struct {
		from, to int
		op       fsm.Op
		origin   fsm.State
	}
	seen := make(map[edgeKey]*Edge)
	var order []edgeKey

	// accumulating reports whether applying (op, origin) at node keeps it
	// at node while growing (or shrinking) one class — the paper's N-steps
	// rule 4: an arbitrary number of repetitions of the same event stays in
	// the target family. Pure repetition requires the rule's coincident
	// transitions to be the identity on the classes the target populates
	// (e.g. consecutive read misses each add one Shared copy); events that
	// merely exchange roles between caches (a write miss replacing the
	// single Dirty owner) are not N-steps.
	accumCache := make(map[edgeKey]bool)
	accumulating := func(node int, op fsm.Op, origin fsm.State) bool {
		k := edgeKey{node, node, op, origin}
		if v, ok := accumCache[k]; ok {
			return v
		}
		target := g.Nodes[node]
		succs, _ := eng.Successors(target)
		res := false
		for _, su := range succs {
			if su.Label.Op != op || su.Label.Origin != origin {
				continue
			}
			if !symbolic.Contains(target, su.State) {
				continue
			}
			if su.Rule.From == su.Rule.Next {
				continue // a hit repeats nothing: no cache changes class
			}
			identity := true
			for i, st := range p.States {
				if target.Rep(i) != symbolic.RZero && su.Rule.ObservedNext(st) != st {
					identity = false
					break
				}
			}
			if identity {
				res = true
				break
			}
		}
		accumCache[k] = res
		return res
	}

	for fi, node := range nodes {
		succs, errs := eng.Successors(node)
		if len(errs) > 0 {
			return nil, fmt.Errorf("graph: expanding essential state %s: %v", node.StructureString(p), errs[0])
		}
		for _, su := range succs {
			target, ok := symbolic.CoveredBy(su.State, nodes)
			if !ok {
				return nil, fmt.Errorf("graph: successor %s of %s not covered by any essential state",
					su.State.StructureString(p), node.StructureString(p))
			}
			ti := index[target.Key()]
			nstep := su.Label.NStep
			if !nstep && accumulating(ti, su.Label.Op, su.Label.Origin) {
				nstep = true
			}
			k := edgeKey{fi, ti, su.Label.Op, su.Label.Origin}
			if prev, ok := seen[k]; ok {
				// Keep the strongest annotation for a duplicated edge.
				prev.NStep = prev.NStep || nstep
				continue
			}
			seen[k] = &Edge{From: fi, To: ti, Op: su.Label.Op, Origin: su.Label.Origin, NStep: nstep, Rule: su.Rule.Name}
			order = append(order, k)
		}
	}

	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.to != b.to {
			return a.to < b.to
		}
		if a.op != b.op {
			return a.op < b.op
		}
		return a.origin < b.origin
	})
	for _, k := range order {
		g.Edges = append(g.Edges, *seen[k])
	}
	return g, nil
}

// NodeName returns a short name for node i ("s0", "s1", ...).
func (g *Global) NodeName(i int) string { return fmt.Sprintf("s%d", i) }

// DOT renders the diagram in Graphviz format, with one record per node
// showing the composite structure and the context variables.
func (g *Global) DOT(ctx context.Context) ([]byte, error) {
	return writeDOT(ctx, g.Protocol.Name, "s", len(g.Nodes), g.Initial, func(i int) string {
		n := g.Nodes[i]
		return fmt.Sprintf("%s\\n%s\\n%s", g.NodeName(i),
			escape(n.StructureString(g.Protocol)), escape(n.ContextString(g.Protocol)))
	}, len(g.Edges), func(i int) (int, int, string) {
		e := g.Edges[i]
		return e.From, e.To, e.Label()
	})
}

// writeDOT renders a diagram in Graphviz format: node i is named prefix+i
// and labelled label(i) (escaped), the initial node is drawn heavier, and
// the edges edge(0..edges-1), grouped by source node as both diagrams list
// them, are pooled per node pair into one arrow labelled with theirs in
// order. It stops with ctx's run-control stop.
func writeDOT(ctx context.Context, title, prefix string, nodes, initial int, label func(int) string,
	edges int, edge func(int) (from, to int, label string)) ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n  node [shape=box, fontname=\"Helvetica\"];\n", title)
	for i := 0; i < nodes; i++ {
		if err := stopEvery(ctx, i); err != nil {
			return nil, err
		}
		attrs := ""
		if i == initial {
			attrs = ", penwidth=2"
		}
		fmt.Fprintf(&b, "  %s%d [label=\"%s\"%s];\n", prefix, i, label(i), attrs)
	}
	type arrow struct {
		to     int
		labels []string
	}
	var arrows []arrow // the current source's, in order of first appearance
	source := 0
	flush := func() {
		for _, a := range arrows {
			fmt.Fprintf(&b, "  %s%d -> %s%d [label=\"%s\"];\n",
				prefix, source, prefix, a.to, escape(strings.Join(a.labels, ", ")))
		}
		arrows = arrows[:0]
	}
	for i := 0; i < edges; i++ {
		if err := stopEvery(ctx, i); err != nil {
			return nil, err
		}
		from, to, l := edge(i)
		if from != source {
			flush()
			source = from
		}
		j := 0
		for j < len(arrows) && arrows[j].to != to {
			j++
		}
		if j == len(arrows) {
			arrows = append(arrows, arrow{to: to})
		}
		arrows[j].labels = append(arrows[j].labels, l)
	}
	flush()
	b.WriteString("}\n")
	return b.Bytes(), nil
}

// stopEvery returns ctx's run-control stop (runctl.ErrCanceled or
// runctl.ErrDeadline) at every 1024th index i, starting at 0.
func stopEvery(ctx context.Context, i int) error {
	if i&1023 != 0 {
		return nil
	}
	return runctl.FromContext(ctx)
}

func escape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return s
}
