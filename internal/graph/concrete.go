package graph

import (
	"context"
	"fmt"
	"strconv"

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
// enumeration run, which must not have stopped early. The nodes are the
// run's reachable set in admission order and the edges its states' steps
// in the engine's expansion order, both replayed from the run's provenance
// records (enum.Result.Configs and Steps). A spec-level step error fails
// the build, matching the engines' refusal to certify an ill-formed
// protocol. The build stops with ctx's run-control stop
// (runctl.ErrCanceled or runctl.ErrDeadline).
func BuildConcrete(ctx context.Context, res *enum.Result) (*Concrete, error) {
	if res.Truncated {
		return nil, fmt.Errorf("graph: the enumeration stopped early (%v); the diagram must cover the full reachable set", res.StopReason)
	}
	g := &Concrete{Protocol: res.Protocol, N: res.N, Mode: res.Mode, Nodes: make([]string, 0, res.Unique)}
	err := res.Configs(ctx, func(c *fsm.Config) error {
		key, err := enum.CanonicalKey(c, res.Mode)
		g.Nodes = append(g.Nodes, key)
		return err
	})
	if err == nil {
		err = res.Steps(ctx, func(from, to, cache int, op fsm.Op, rule *fsm.Rule) error {
			e := ConcreteEdge{From: from, To: to, Op: op, Cache: cache}
			if rule != nil {
				e.Rule = rule.Name
			}
			g.Edges = append(g.Edges, e)
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	return g, nil
}

// NodeName returns a short name for node i ("c0", "c1", ...).
func (g *Concrete) NodeName(i int) string { return fmt.Sprintf("c%d", i) }

// DOT renders the concrete diagram in Graphviz format: nodes in discovery
// order, parallel edges pooled into one arrow with a combined label in
// discovery order.
func (g *Concrete) DOT(ctx context.Context) ([]byte, error) {
	return writeDOT(ctx, g.Protocol.Name, "c", len(g.Nodes), g.Initial, func(i int) string {
		return g.NodeName(i) + `\n` + escape(g.Nodes[i])
	}, len(g.Edges), func(i int) (int, int, string) {
		e := g.Edges[i]
		return e.From, e.To, e.Label()
	})
}
