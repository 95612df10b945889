package graph

import (
	"context"
	"encoding/json"

	"repro/internal/runctl"
)

// This file renders both transition diagrams — the symbolic global diagram
// of Figure 4 (Global) and its concrete reachability counterpart (Concrete)
// — into one machine-readable JSON shape. The rendering is deterministic:
// nodes and edges are emitted in the diagrams' canonical orders and the
// encoder writes struct fields in declaration order, so equal diagrams
// produce byte-identical exports (the service pins this in its tests).

// GraphSchema versions the JSON export shape.
const GraphSchema = 1

// NodeJSON is one node of an exported diagram.
type NodeJSON struct {
	// Name is the short node name ("s0"/"c0", ...), the identifier edges
	// reference.
	Name string `json:"name"`
	// Label is the node's human-readable identity: the composite structure
	// string for global diagrams, the canonical configuration key for
	// concrete ones.
	Label string `json:"label"`
	// Context carries the global diagram's context variables ("" for
	// concrete diagrams).
	Context string `json:"context,omitempty"`
	Initial bool   `json:"initial,omitempty"`
}

// EdgeJSON is one labelled transition of an exported diagram.
type EdgeJSON struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Label string `json:"label"`
	Op    string `json:"op"`
	// Origin is the issuing cache's class (global diagrams); Cache is the
	// issuing cache's index (concrete diagrams).
	Origin string `json:"origin,omitempty"`
	Cache  *int   `json:"cache,omitempty"`
	NStep  bool   `json:"nstep,omitempty"`
	Rule   string `json:"rule,omitempty"`
}

// ExportJSON is the top-level JSON export shape shared by both diagrams.
type ExportJSON struct {
	Schema   int    `json:"schema"`
	Protocol string `json:"protocol"`
	// Kind is "global" (essential composite states, Figure 4) or
	// "concrete" (canonical configurations of an n-cache enumeration).
	Kind string `json:"kind"`
	// N and Mode describe a concrete diagram's geometry and equivalence
	// (absent for global diagrams).
	N     int        `json:"n,omitempty"`
	Mode  string     `json:"mode,omitempty"`
	Nodes []NodeJSON `json:"nodes"`
	Edges []EdgeJSON `json:"edges"`
}

// marshal renders an export with a trailing newline, the byte form both
// diagrams serve, unless ctx has ended.
func marshal(ctx context.Context, e *ExportJSON) ([]byte, error) {
	if err := runctl.FromContext(ctx); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// JSON renders the global diagram as deterministic bytes.
func (g *Global) JSON(ctx context.Context) ([]byte, error) {
	e := &ExportJSON{Schema: GraphSchema, Protocol: g.Protocol.Name, Kind: "global"}
	e.Nodes = make([]NodeJSON, len(g.Nodes))
	for i, n := range g.Nodes {
		e.Nodes[i] = NodeJSON{
			Name:    g.NodeName(i),
			Label:   n.StructureString(g.Protocol),
			Context: n.ContextString(g.Protocol),
			Initial: i == g.Initial,
		}
	}
	for _, ed := range g.Edges {
		e.Edges = append(e.Edges, EdgeJSON{
			From: g.NodeName(ed.From), To: g.NodeName(ed.To),
			Label: ed.Label(), Op: string(ed.Op), Origin: string(ed.Origin),
			NStep: ed.NStep, Rule: ed.Rule,
		})
	}
	return marshal(ctx, e)
}

// JSON renders the concrete diagram as deterministic bytes.
func (g *Concrete) JSON(ctx context.Context) ([]byte, error) {
	e := &ExportJSON{
		Schema: GraphSchema, Protocol: g.Protocol.Name, Kind: "concrete",
		N: g.N, Mode: g.Mode,
	}
	e.Nodes = make([]NodeJSON, len(g.Nodes))
	for i, key := range g.Nodes {
		e.Nodes[i] = NodeJSON{Name: g.NodeName(i), Label: key, Initial: i == g.Initial}
	}
	for _, ed := range g.Edges {
		cache := ed.Cache
		e.Edges = append(e.Edges, EdgeJSON{
			From: g.NodeName(ed.From), To: g.NodeName(ed.To),
			Label: ed.Label(), Op: string(ed.Op), Cache: &cache, Rule: ed.Rule,
		})
	}
	return marshal(ctx, e)
}
