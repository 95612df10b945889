package graph

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

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

// ExportJSON is the top-level JSON export shape shared by both diagrams:
// the header, then the node and edge lists.
type ExportJSON struct {
	jsonHeader
	Nodes []NodeJSON `json:"nodes"`
	Edges []EdgeJSON `json:"edges"`
}

// jsonHeader is the export's fields before its node and edge lists, the
// part a streamed export encodes whole.
type jsonHeader struct {
	Schema   int    `json:"schema"`
	Protocol string `json:"protocol"`
	// Kind is "global" (essential composite states, Figure 4) or
	// "concrete" (canonical configurations of an n-cache enumeration).
	Kind string `json:"kind"`
	// N and Mode describe a concrete diagram's geometry and equivalence
	// (absent for global diagrams).
	N    int    `json:"n,omitempty"`
	Mode string `json:"mode,omitempty"`
}

// jsonStopEvery is how many list elements an export writes between two
// checks of its context.
const jsonStopEvery = 4096

// writeExport streams an export into one buffer, byte-identical to
// json.MarshalIndent(e, "", "  ") of the ExportJSON holding the same
// header, nodes and edges, plus a trailing newline: the header is encoded
// whole, then each node and edge on its own at its nesting depth. Only one
// element's encoding is live besides the output. An empty node list
// encodes as [] and an empty edge list as null, the export's format. It
// stops with ctx's run-control stop every jsonStopEvery elements.
func writeExport(ctx context.Context, h jsonHeader, nodes int, node func(int) NodeJSON, edges int, edge func(int) EdgeJSON) ([]byte, error) {
	head, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	b.Write(head[:len(head)-len("\n}")])
	enc := json.NewEncoder(&b)
	enc.SetIndent("    ", "  ")
	seen := 0
	list := func(name string, count int, null bool, elem func(i int) any) error {
		fmt.Fprintf(&b, ",\n  %q: ", name)
		switch {
		case count == 0 && null:
			b.WriteString("null")
			return nil
		case count == 0:
			b.WriteString("[]")
			return nil
		}
		b.WriteByte('[')
		for i := 0; i < count; i++ {
			if seen%jsonStopEvery == 0 {
				if err := runctl.FromContext(ctx); err != nil {
					return err
				}
			}
			seen++
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString("\n    ")
			if err := enc.Encode(elem(i)); err != nil {
				return err
			}
			b.Truncate(b.Len() - 1) // Encode's trailing newline
		}
		b.WriteString("\n  ]")
		return nil
	}
	if err := list("nodes", nodes, false, func(i int) any { return node(i) }); err != nil {
		return nil, err
	}
	if err := list("edges", edges, true, func(i int) any { return edge(i) }); err != nil {
		return nil, err
	}
	b.WriteString("\n}\n")
	return b.Bytes(), nil
}

// JSON renders the global diagram as deterministic bytes.
func (g *Global) JSON(ctx context.Context) ([]byte, error) {
	return writeExport(ctx, jsonHeader{Schema: GraphSchema, Protocol: g.Protocol.Name, Kind: "global"},
		len(g.Nodes), func(i int) NodeJSON {
			n := g.Nodes[i]
			return NodeJSON{
				Name:    g.NodeName(i),
				Label:   n.StructureString(g.Protocol),
				Context: n.ContextString(g.Protocol),
				Initial: i == g.Initial,
			}
		}, len(g.Edges), func(i int) EdgeJSON {
			ed := g.Edges[i]
			return EdgeJSON{
				From: g.NodeName(ed.From), To: g.NodeName(ed.To),
				Label: ed.Label(), Op: string(ed.Op), Origin: string(ed.Origin),
				NStep: ed.NStep, Rule: ed.Rule,
			}
		})
}

// JSON renders the concrete diagram as deterministic bytes.
func (g *Concrete) JSON(ctx context.Context) ([]byte, error) {
	return writeExport(ctx, jsonHeader{Schema: GraphSchema, Protocol: g.Protocol.Name, Kind: "concrete", N: g.N, Mode: g.Mode},
		len(g.Nodes), func(i int) NodeJSON {
			return NodeJSON{Name: g.NodeName(i), Label: g.Nodes[i], Initial: i == g.Initial}
		}, len(g.Edges), func(i int) EdgeJSON {
			ed := g.Edges[i]
			cache := ed.Cache
			return EdgeJSON{
				From: g.NodeName(ed.From), To: g.NodeName(ed.To),
				Label: ed.Label(), Op: string(ed.Op), Cache: &cache, Rule: ed.Rule,
			}
		})
}
