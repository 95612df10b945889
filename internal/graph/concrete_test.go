package graph

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/enum"
	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/runctl"
)

// diagram is what the CLI and the service render: a global or a concrete
// diagram.
type diagram interface {
	DOT(context.Context) ([]byte, error)
	JSON(context.Context) ([]byte, error)
}

// render returns the diagram's DOT and JSON renderings.
func render(t *testing.T, g diagram) (string, []byte) {
	t.Helper()
	dot, err := g.DOT(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	js, err := g.JSON(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return string(dot), js
}

// enumerate runs the named built-in protocol's enumeration in mode, the
// run BuildConcrete reads.
func enumerate(t *testing.T, name, mode string, n int, opts enum.Options) *enum.Result {
	t.Helper()
	p, err := protocols.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
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
	g, err := BuildConcrete(context.Background(), enumerate(t, name, mode, n, enum.Options{}))
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
			g, err := BuildConcrete(context.Background(), res)
			if err != nil {
				t.Fatalf("%s %s: %v", p.Name, mode, err)
			}
			if len(g.Nodes) != res.Unique {
				t.Errorf("%s %s: %d graph nodes, enum census %d", p.Name, mode, len(g.Nodes), res.Unique)
				continue
			}
			i := 0
			if err := res.Configs(context.Background(), func(c *fsm.Config) error {
				key, err := enum.CanonicalKey(c, mode)
				if err != nil {
					return err
				}
				if g.Nodes[i] != key {
					return fmt.Errorf("node %d = %q, enum discovered %q", i, g.Nodes[i], key)
				}
				i++
				return nil
			}); err != nil {
				t.Errorf("%s %s: %v", p.Name, mode, err)
			}
		}
	}
}

// TestConcreteDeterministicBytes requires two independent builds to render
// byte-identical DOT and JSON — the contract the service's graph memoization
// and the CLI goldens rely on.
func TestConcreteDeterministicBytes(t *testing.T) {
	ad, aj := render(t, concreteOf(t, "illinois", enum.ModeCounting, 3))
	bd, bj := render(t, concreteOf(t, "illinois", enum.ModeCounting, 3))
	if ad != bd {
		t.Error("DOT rendering is not deterministic")
	}
	if !bytes.Equal(aj, bj) {
		t.Error("JSON rendering is not deterministic")
	}
}

func TestConcreteDOTShape(t *testing.T) {
	g := concreteOf(t, "msi", enum.ModeStrict, 2)
	dot, _ := render(t, g)
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
	_, data := render(t, g)
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
	_, data := render(t, g)
	_, again := render(t, g)
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

// TestBuildConcreteErrors: BuildConcrete reads only a complete run.
func TestBuildConcreteErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := BuildConcrete(ctx, enumerate(t, "illinois", enum.ModeStrict, 3, enum.Options{MaxStates: 4})); err == nil {
		t.Error("a run stopped by its state cap must error")
	}
}

// TestDiagramsCanceled: under a cancelled context, building the concrete
// diagram and rendering either diagram stop with runctl.ErrCanceled, and
// so does a JSON encode whose context ends partway through.
func TestDiagramsCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := enumerate(t, "illinois", enum.ModeCounting, 3, enum.Options{})
	if _, err := BuildConcrete(ctx, res); !errors.Is(err, runctl.ErrCanceled) {
		t.Errorf("BuildConcrete: err %v, want ErrCanceled", err)
	}
	_, global := illinoisGlobal(t)
	for _, g := range []diagram{concreteOf(t, "illinois", enum.ModeCounting, 3), global} {
		if _, err := g.DOT(ctx); !errors.Is(err, runctl.ErrCanceled) {
			t.Errorf("%T DOT: err %v, want ErrCanceled", g, err)
		}
		if _, err := g.JSON(ctx); !errors.Is(err, runctl.ErrCanceled) {
			t.Errorf("%T JSON: err %v, want ErrCanceled", g, err)
		}
	}

	// A context that ends while a large diagram is encoded stops the
	// encode at its next check, after the elements before it were written.
	g := concreteOf(t, "dragon", enum.ModeStrict, 7)
	if n := len(g.Nodes) + len(g.Edges); n <= 2*jsonStopEvery {
		t.Fatalf("dragon strict n=7 has %d nodes and edges, want over %d", n, 2*jsonStopEvery)
	}
	partway := &stopAfter{Context: context.Background(), live: 2}
	if _, err := g.JSON(partway); !errors.Is(err, runctl.ErrCanceled) {
		t.Errorf("JSON canceled partway: err %v, want ErrCanceled", err)
	}
	if partway.calls != 3 {
		t.Errorf("JSON canceled partway checked its context %d times, want 3", partway.calls)
	}
}

// stopAfter is a context that is live for its first live Err calls and
// canceled from then on, which ends a rendering partway through.
type stopAfter struct {
	context.Context
	live, calls int
}

func (c *stopAfter) Err() error {
	c.calls++
	if c.calls > c.live {
		return context.Canceled
	}
	return nil
}
