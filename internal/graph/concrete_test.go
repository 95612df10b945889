package graph

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/enum"
	"repro/internal/protocols"
)

// enumerate runs the named built-in protocol's enumeration in mode with
// KeepReachable, the run BuildConcrete reads.
func enumerate(t *testing.T, name, mode string, n int, opts enum.Options) *enum.Result {
	t.Helper()
	p, err := protocols.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	opts.KeepReachable = true
	run := enum.ExhaustiveContext
	if mode == enum.ModeCounting {
		run = enum.CountingContext
	}
	res, err := run(context.Background(), p, n, opts)
	if err != nil {
		t.Fatalf("%s %s n=%d: %v", name, mode, n, err)
	}
	return res
}

// concreteOf builds the concrete diagram of the named built-in protocol.
func concreteOf(t *testing.T, name, mode string, n int) *Concrete {
	t.Helper()
	g, err := BuildConcrete(enumerate(t, name, mode, n, enum.Options{}), mode)
	if err != nil {
		t.Fatalf("%s %s n=%d: %v", name, mode, n, err)
	}
	return g
}

// TestConcreteMatchesEnumCensus pins the graph builder to the engines: for
// every built-in protocol, in both equivalence modes, the diagram's node set
// must equal the enumeration's distinct-state census, node for node in
// discovery order.
func TestConcreteMatchesEnumCensus(t *testing.T) {
	const n = 3
	for _, p := range protocols.All() {
		for _, mode := range []string{enum.ModeStrict, enum.ModeCounting} {
			res := enumerate(t, p.Name, mode, n, enum.Options{})
			g, err := BuildConcrete(res, mode)
			if err != nil {
				t.Fatalf("%s %s: %v", p.Name, mode, err)
			}
			if len(g.Nodes) != res.Unique {
				t.Errorf("%s %s: %d graph nodes, enum census %d", p.Name, mode, len(g.Nodes), res.Unique)
				continue
			}
			for i, c := range res.Reachable {
				key, err := enum.CanonicalKey(c, mode)
				if err != nil {
					t.Fatal(err)
				}
				if g.Nodes[i] != key {
					t.Errorf("%s %s: node %d = %q, enum discovered %q", p.Name, mode, i, g.Nodes[i], key)
					break
				}
			}
		}
	}
}

// TestConcreteDeterministicBytes requires two independent builds to render
// byte-identical DOT and JSON — the contract the service's graph memoization
// and the CLI goldens rely on.
func TestConcreteDeterministicBytes(t *testing.T) {
	a, b := concreteOf(t, "illinois", enum.ModeCounting, 3), concreteOf(t, "illinois", enum.ModeCounting, 3)
	if a.DOT() != b.DOT() {
		t.Error("DOT rendering is not deterministic")
	}
	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Error("JSON rendering is not deterministic")
	}
}

func TestConcreteDOTShape(t *testing.T) {
	g := concreteOf(t, "msi", enum.ModeStrict, 2)
	dot := g.DOT()
	for _, want := range []string{`digraph "MSI"`, "rankdir=LR", "penwidth=2", "c0 ["} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	if g.Initial != 0 {
		t.Errorf("initial node = %d, want 0", g.Initial)
	}
}

func TestConcreteJSONShape(t *testing.T) {
	g := concreteOf(t, "msi", enum.ModeStrict, 2)
	data, err := g.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var e ExportJSON
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if e.Schema != GraphSchema || e.Kind != "concrete" || e.Protocol != "MSI" ||
		e.N != 2 || e.Mode != enum.ModeStrict {
		t.Errorf("header = %+v", e)
	}
	if len(e.Nodes) != len(g.Nodes) || len(e.Edges) != len(g.Edges) {
		t.Errorf("%d/%d nodes, %d/%d edges", len(e.Nodes), len(g.Nodes), len(e.Edges), len(g.Edges))
	}
	if !e.Nodes[0].Initial {
		t.Error("node 0 not marked initial")
	}
	names := make(map[string]bool, len(e.Nodes))
	for _, nd := range e.Nodes {
		names[nd.Name] = true
	}
	for _, ed := range e.Edges {
		if !names[ed.From] || !names[ed.To] {
			t.Errorf("edge %+v references unknown node", ed)
		}
		if ed.Cache == nil {
			t.Errorf("edge %+v has no cache index", ed)
		}
	}
}

func TestGlobalJSONShape(t *testing.T) {
	_, g := illinoisGlobal(t)
	data, err := g.JSON()
	if err != nil {
		t.Fatal(err)
	}
	again, err := g.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("global JSON rendering is not deterministic")
	}
	var e ExportJSON
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if e.Schema != GraphSchema || e.Kind != "global" || e.Protocol != "Illinois" {
		t.Errorf("header = %+v", e)
	}
	if len(e.Nodes) != len(g.Nodes) || len(e.Edges) != len(g.Edges) {
		t.Errorf("%d/%d nodes, %d/%d edges", len(e.Nodes), len(g.Nodes), len(e.Edges), len(g.Edges))
	}
	if e.Nodes[g.Initial].Initial != true {
		t.Error("initial node not marked")
	}
	for _, ed := range e.Edges {
		if ed.Cache != nil {
			t.Errorf("global edge %+v carries a concrete cache index", ed)
		}
	}
}

// TestBuildConcreteErrors: BuildConcrete reads only a complete
// KeepReachable run of the mode it is given.
func TestBuildConcreteErrors(t *testing.T) {
	full := enumerate(t, "illinois", enum.ModeStrict, 3, enum.Options{})
	if _, err := BuildConcrete(full, "fuzzy"); err == nil {
		t.Error("unknown mode must error")
	}
	if _, err := BuildConcrete(full, enum.ModeCounting); err == nil {
		t.Error("a strict run read as a counting one must error")
	}
	counting := enumerate(t, "illinois", enum.ModeCounting, 3, enum.Options{})
	if _, err := BuildConcrete(counting, enum.ModeStrict); err == nil {
		t.Error("a counting run read as a strict one must error")
	}
	if _, err := BuildConcrete(enumerate(t, "illinois", enum.ModeStrict, 3, enum.Options{MaxStates: 4}), enum.ModeStrict); err == nil {
		t.Error("a run stopped by its state cap must error")
	}
	p, err := protocols.ByName("illinois")
	if err != nil {
		t.Fatal(err)
	}
	bare, err := enum.ExhaustiveContext(context.Background(), p, 3, enum.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildConcrete(bare, enum.ModeStrict); err == nil {
		t.Error("a run without KeepReachable must error")
	}
}
