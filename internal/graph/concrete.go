package graph

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/compile"
	"repro/internal/enum"
	"repro/internal/fsm"
)

// ConcreteEdge is one labelled transition of the concrete reachability
// diagram between canonical configurations.
type ConcreteEdge struct {
	From, To int // node indexes
	Op       fsm.Op
	Cache    int // issuing cache index
	Rule     string
}

// Label renders the edge label ("R0", "W2", "Z1": op mnemonic + issuing
// cache index).
func (e ConcreteEdge) Label() string {
	return string(e.Op) + strconv.Itoa(e.Cache)
}

// Concrete is the transition diagram over the canonical configurations an
// explicit-state enumeration reaches: the concrete counterpart of the
// paper's Figure 4, with one node per distinct canonical configuration
// instead of one per essential composite state.
type Concrete struct {
	Protocol *fsm.Protocol
	N        int
	Mode     string // enum.ModeStrict or enum.ModeCounting
	// Nodes are the canonical configuration keys in the enumeration's
	// admission order, so node numbering is deterministic.
	Nodes []string
	// Edges are the labelled transitions in discovery order, one per
	// (node, cache, op) step.
	Edges []ConcreteEdge
	// Initial is the node index of the initial configuration (always 0).
	Initial int
}

// BuildConcrete reads the labelled transition diagram off a completed
// enumeration run: res must come from an enum run of the given mode with
// KeepReachable set, and must not have stopped early. The nodes are
// res.Reachable in admission order. The edges come from re-stepping each
// node through the shared compiled representation in the engine's
// (cache, op) order, with its counting-mode symmetry skip, so every edge
// lands on a node of the run. A spec-level step error fails the build,
// matching the engines' refusal to certify an ill-formed protocol.
func BuildConcrete(res *enum.Result, mode string) (*Concrete, error) {
	if res.Truncated {
		return nil, fmt.Errorf("graph: the enumeration stopped early (%v); the diagram must cover the full reachable set", res.StopReason)
	}
	if len(res.Reachable) != res.Unique {
		return nil, fmt.Errorf("graph: the enumeration kept %d of its %d configurations; run it with KeepReachable", len(res.Reachable), res.Unique)
	}
	p, n := res.Protocol, res.N
	cp, err := compile.Compile(p)
	if err != nil {
		return nil, err
	}
	g := &Concrete{Protocol: p, N: n, Mode: mode, Nodes: make([]string, len(res.Reachable))}
	index := make(map[string]int, len(res.Reachable))
	for i, c := range res.Reachable {
		key, err := enum.CanonicalKey(c, mode)
		if err != nil {
			return nil, err
		}
		if _, dup := index[key]; dup {
			return nil, fmt.Errorf("graph: configuration %s repeats under %s equivalence; the enumeration ran in another mode", key, mode)
		}
		g.Nodes[i], index[key] = key, i
	}

	symmetric := mode == enum.ModeCounting
	var base, work compile.Config
	var decoded fsm.Config
	for from, cur := range res.Reachable {
		if err := cp.Encode(cur, &base); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			if symmetric && enum.SymmetryShadowed(cur, i) {
				continue
			}
			st := int(base.States[i])
			for k, op := range p.Ops {
				if !cp.HasRules(st, k) {
					continue
				}
				work.CopyFrom(&base)
				sr, err := cp.Step(&work, i, k)
				if err != nil {
					return nil, fmt.Errorf("graph: expanding %s: %w", g.Nodes[from], err)
				}
				cp.Decode(&work, &decoded)
				enum.Canonicalize(&decoded)
				key, err := enum.CanonicalKey(&decoded, mode)
				if err != nil {
					return nil, err
				}
				to, ok := index[key]
				if !ok {
					return nil, fmt.Errorf("graph: %s steps to %s, which the enumeration did not reach", g.Nodes[from], key)
				}
				rule := ""
				if r := cp.Result(sr).Rule; r != nil {
					rule = r.Name
				}
				g.Edges = append(g.Edges, ConcreteEdge{From: from, To: to, Op: op, Cache: i, Rule: rule})
			}
		}
	}
	return g, nil
}

// NodeName returns a short name for node i ("c0", "c1", ...).
func (g *Concrete) NodeName(i int) string { return fmt.Sprintf("c%d", i) }

// DOT renders the concrete diagram in Graphviz format. The output is
// deterministic: nodes in discovery order, parallel edges pooled into one
// arrow with a combined label in discovery order.
func (g *Concrete) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.Protocol.Name)
	b.WriteString("  rankdir=LR;\n  node [shape=box, fontname=\"Helvetica\"];\n")
	for i, key := range g.Nodes {
		attrs := ""
		if i == g.Initial {
			attrs = ", penwidth=2"
		}
		fmt.Fprintf(&b, "  %s [label=\"%s\\n%s\"%s];\n", g.NodeName(i), g.NodeName(i), escape(key), attrs)
	}
	type pair struct{ from, to int }
	labels := make(map[pair][]string)
	var pairs []pair
	for _, e := range g.Edges {
		pr := pair{e.From, e.To}
		if _, ok := labels[pr]; !ok {
			pairs = append(pairs, pr)
		}
		labels[pr] = append(labels[pr], e.Label())
	}
	for _, pr := range pairs {
		fmt.Fprintf(&b, "  %s -> %s [label=\"%s\"];\n",
			g.NodeName(pr.from), g.NodeName(pr.to), escape(strings.Join(labels[pr], ", ")))
	}
	b.WriteString("}\n")
	return b.String()
}
