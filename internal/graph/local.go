package graph

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fsm"
)

// LocalEdge is one transition of the per-cache diagram (Figure 1 of the
// paper): the originator's state change under an operation, qualified by
// the guard (the sharing-detection function value for non-null F).
type LocalEdge struct {
	From, To fsm.State
	Op       fsm.Op
	Guard    fsm.Guard
	Rule     string
}

// Label renders the edge label, e.g. "R [∄other∈{...}]".
func (e LocalEdge) Label() string {
	if e.Guard.Kind == fsm.GuardAlways {
		return string(e.Op)
	}
	return fmt.Sprintf("%s [%s]", e.Op, e.Guard)
}

// Local is the per-cache transition diagram of a protocol.
type Local struct {
	Protocol *fsm.Protocol
	Edges    []LocalEdge
}

// BuildLocal extracts the per-cache transition diagram from the protocol's
// rules (the originator's view; coincident transitions of the other caches
// are not part of Figure 1).
func BuildLocal(p *fsm.Protocol) *Local {
	l := &Local{Protocol: p}
	for i := range p.Rules {
		r := &p.Rules[i]
		l.Edges = append(l.Edges, LocalEdge{
			From: r.From, To: r.Next, Op: r.On, Guard: r.Guard, Rule: r.Name,
		})
	}
	sort.Slice(l.Edges, func(i, j int) bool {
		a, b := l.Edges[i], l.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.To < b.To
	})
	return l
}

// DOT renders the local diagram in Graphviz format.
func (l *Local) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", l.Protocol.Name+"-local")
	b.WriteString("  node [shape=ellipse, fontname=\"Helvetica\"];\n")
	for _, s := range l.Protocol.States {
		attrs := ""
		if s == l.Protocol.Initial {
			attrs = " [penwidth=2]"
		}
		fmt.Fprintf(&b, "  %q%s;\n", s, attrs)
	}
	for _, e := range l.Edges {
		fmt.Fprintf(&b, "  %q -> %q [label=\"%s\"];\n", e.From, e.To, escape(e.Label()))
	}
	b.WriteString("}\n")
	return b.String()
}
