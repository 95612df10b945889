package graph

import (
	"strings"
	"testing"

	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/symbolic"
)

func illinoisGlobal(t *testing.T) (*symbolic.Engine, *Global) {
	t.Helper()
	p := protocols.Illinois()
	eng, err := symbolic.NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Expand(symbolic.Options{})
	if !res.OK() {
		t.Fatal("Illinois must verify clean")
	}
	g, err := BuildGlobal(eng, res.Essential)
	if err != nil {
		t.Fatal(err)
	}
	return eng, g
}

func TestGlobalIllinoisNodeSet(t *testing.T) {
	_, g := illinoisGlobal(t)
	if len(g.Nodes) != 5 {
		t.Fatalf("want 5 nodes, got %d", len(g.Nodes))
	}
	for _, want := range []string{
		"(Invalid+)",
		"(Invalid*, Valid-Exclusive)",
		"(Invalid*, Dirty)",
		"(Invalid*, Shared+)",
		"(Invalid+, Shared)",
	} {
		if g.FindNode(want) < 0 {
			t.Errorf("missing node %s", want)
		}
	}
	if g.FindNode("(Nonexistent)") != -1 {
		t.Error("FindNode must return -1 for unknown structures")
	}
}

func TestGlobalIllinoisInitialNode(t *testing.T) {
	_, g := illinoisGlobal(t)
	if g.Initial != g.FindNode("(Invalid+)") {
		t.Fatalf("initial node = %d (%s)", g.Initial,
			g.Nodes[g.Initial].StructureString(g.Protocol))
	}
}

// TestGlobalIllinoisPaperEdges asserts every edge of the paper's Figure 4 /
// Appendix A.2, translated to (source structure, op, originator class,
// target structure).
func TestGlobalIllinoisPaperEdges(t *testing.T) {
	_, g := illinoisGlobal(t)
	n := func(s string) int {
		i := g.FindNode(s)
		if i < 0 {
			t.Fatalf("missing node %s", s)
		}
		return i
	}
	s0 := n("(Invalid+)")
	s1 := n("(Invalid*, Valid-Exclusive)")
	s2 := n("(Invalid*, Dirty)")
	s3 := n("(Invalid*, Shared+)")
	s4 := n("(Invalid+, Shared)")

	type pe struct {
		from, to int
		op       fsm.Op
		origin   fsm.State
	}
	paper := []pe{
		// From (Invalid+).
		{s0, s2, fsm.OpWrite, "Invalid"},
		{s0, s1, fsm.OpRead, "Invalid"},
		// From (Dirty, Invalid*).
		{s2, s0, fsm.OpReplace, "Dirty"},
		{s2, s2, fsm.OpWrite, "Dirty"},
		{s2, s2, fsm.OpRead, "Dirty"},
		{s2, s2, fsm.OpWrite, "Invalid"},
		{s2, s3, fsm.OpRead, "Invalid"},
		// From (Valid-Exclusive, Invalid*).
		{s1, s0, fsm.OpReplace, "Valid-Exclusive"},
		{s1, s2, fsm.OpWrite, "Valid-Exclusive"},
		{s1, s1, fsm.OpRead, "Valid-Exclusive"},
		{s1, s2, fsm.OpWrite, "Invalid"},
		{s1, s3, fsm.OpRead, "Invalid"},
		// From (Shared+, Invalid*).
		{s3, s4, fsm.OpReplace, "Shared"},
		{s3, s2, fsm.OpWrite, "Shared"},
		{s3, s3, fsm.OpRead, "Shared"},
		{s3, s3, fsm.OpRead, "Invalid"},
		{s3, s2, fsm.OpWrite, "Invalid"},
		// From (Shared, Invalid+).
		{s4, s0, fsm.OpReplace, "Shared"},
		{s4, s2, fsm.OpWrite, "Shared"},
		{s4, s4, fsm.OpRead, "Shared"},
		{s4, s2, fsm.OpWrite, "Invalid"},
		{s4, s3, fsm.OpRead, "Invalid"},
	}
	for _, e := range paper {
		if !g.HasEdge(e.from, e.to, e.op, e.origin) {
			t.Errorf("missing paper edge %s --%s_%s--> %s",
				g.NodeName(e.from), e.op, e.origin, g.NodeName(e.to))
		}
	}
}

// TestGlobalIllinoisNStepAnnotations checks the four N-step edges the paper
// marks unambiguously.
func TestGlobalIllinoisNStepAnnotations(t *testing.T) {
	_, g := illinoisGlobal(t)
	s1 := g.FindNode("(Invalid*, Valid-Exclusive)")
	s2 := g.FindNode("(Invalid*, Dirty)")
	s3 := g.FindNode("(Invalid*, Shared+)")
	s4 := g.FindNode("(Invalid+, Shared)")

	nstepOf := func(from, to int, op fsm.Op, origin fsm.State) bool {
		for _, e := range g.Edges {
			if e.From == from && e.To == to && e.Op == op && e.Origin == origin {
				return e.NStep
			}
		}
		t.Fatalf("edge %d->%d %s_%s not found", from, to, op, origin)
		return false
	}
	// R^n_inv into (Shared+, Invalid*), from Dirty and V-Ex states.
	if !nstepOf(s2, s3, fsm.OpRead, "Invalid") {
		t.Error("(Dirty,Inv*) --R_inv--> (Shared+,Inv*) must be N-step")
	}
	if !nstepOf(s1, s3, fsm.OpRead, "Invalid") {
		t.Error("(V-Ex,Inv*) --R_inv--> (Shared+,Inv*) must be N-step")
	}
	// Rep^n_shared from (Shared+, Inv*) down to (Shared, Inv+).
	if !nstepOf(s3, s4, fsm.OpReplace, "Shared") {
		t.Error("(Shared+,Inv*) --Z_shared--> (Shared,Inv+) must be N-step")
	}
	// R^n_inv self-loop at (Shared+, Inv*).
	if !nstepOf(s3, s3, fsm.OpRead, "Invalid") {
		t.Error("(Shared+,Inv*) --R_inv--> self must be N-step")
	}
	// Negative cases: plain one-step edges.
	s0 := g.FindNode("(Invalid+)")
	if nstepOf(s0, s2, fsm.OpWrite, "Invalid") {
		t.Error("(Inv+) --W_inv--> (Dirty,Inv*) is a single step, not N-step")
	}
	if nstepOf(s0, s1, fsm.OpRead, "Invalid") {
		t.Error("(Inv+) --R_inv--> (V-Ex,Inv*) is a single step, not N-step")
	}
	if nstepOf(s3, s3, fsm.OpRead, "Shared") {
		t.Error("a read hit is never N-step")
	}
}

func TestGlobalEdgesSortedAndDeduped(t *testing.T) {
	_, g := illinoisGlobal(t)
	type key struct {
		f, t   int
		op     fsm.Op
		origin fsm.State
	}
	seen := map[key]bool{}
	for i, e := range g.Edges {
		k := key{e.From, e.To, e.Op, e.Origin}
		if seen[k] {
			t.Fatalf("duplicate edge %v", k)
		}
		seen[k] = true
		if i > 0 {
			prev := g.Edges[i-1]
			if prev.From > e.From {
				t.Fatal("edges not sorted by source")
			}
		}
	}
}

func TestGlobalDOTOutput(t *testing.T) {
	_, g := illinoisGlobal(t)
	dot, _ := render(t, g)
	for _, want := range []string{
		"digraph \"Illinois\"",
		"s0", "s4",
		"->",
		"(Invalid+)",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestGlobalAllProtocols(t *testing.T) {
	for _, p := range protocols.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			eng, err := symbolic.NewEngine(p)
			if err != nil {
				t.Fatal(err)
			}
			res := eng.Expand(symbolic.Options{})
			g, err := BuildGlobal(eng, res.Essential)
			if err != nil {
				t.Fatal(err)
			}
			if g.Initial < 0 || g.Initial >= len(g.Nodes) {
				t.Fatalf("bad initial node %d", g.Initial)
			}
			if len(g.Edges) == 0 {
				t.Fatal("no edges")
			}
			// Every node must be reachable from the initial node — the
			// strong-connectivity premise of Definition 1 lifts to the
			// global diagram for these protocols.
			adj := make(map[int][]int)
			for _, e := range g.Edges {
				adj[e.From] = append(adj[e.From], e.To)
			}
			seen := map[int]bool{g.Initial: true}
			stack := []int{g.Initial}
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, m := range adj[n] {
					if !seen[m] {
						seen[m] = true
						stack = append(stack, m)
					}
				}
			}
			if len(seen) != len(g.Nodes) {
				t.Fatalf("only %d/%d nodes reachable from the initial state", len(seen), len(g.Nodes))
			}
		})
	}
}

func TestBuildGlobalRejectsIncompleteEssentialSet(t *testing.T) {
	p := protocols.Illinois()
	eng, err := symbolic.NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Expand(symbolic.Options{})
	// Drop one essential state: coverage must fail.
	if _, err := BuildGlobal(eng, res.Essential[:len(res.Essential)-1]); err == nil {
		t.Fatal("BuildGlobal must reject an incomplete essential set")
	}
	if _, err := BuildGlobal(eng, nil); err == nil {
		t.Fatal("BuildGlobal must reject an empty essential set")
	}
}

func TestLocalIllinoisDiagram(t *testing.T) {
	p := protocols.Illinois()
	l := BuildLocal(p)
	if len(l.Edges) != len(p.Rules) {
		t.Fatalf("local diagram has %d edges, want %d", len(l.Edges), len(p.Rules))
	}
	// Spot-check the Figure 1 adjacency.
	checks := []struct {
		from, to fsm.State
		op       fsm.Op
	}{
		{"Invalid", "Valid-Exclusive", fsm.OpRead},
		{"Invalid", "Shared", fsm.OpRead},
		{"Invalid", "Dirty", fsm.OpWrite},
		{"Valid-Exclusive", "Dirty", fsm.OpWrite},
		{"Shared", "Dirty", fsm.OpWrite},
		{"Dirty", "Invalid", fsm.OpReplace},
	}
	for _, c := range checks {
		if !l.HasEdge(c.from, c.to, c.op) {
			t.Errorf("missing local edge %s --%s--> %s", c.from, c.op, c.to)
		}
	}
	if l.HasEdge("Dirty", "Shared", fsm.OpWrite) {
		t.Error("phantom local edge Dirty --W--> Shared")
	}
}

func TestLocalDiagramSorted(t *testing.T) {
	l := BuildLocal(protocols.Illinois())
	for i := 1; i < len(l.Edges); i++ {
		if l.Edges[i-1].From > l.Edges[i].From {
			t.Fatal("local edges not sorted")
		}
	}
}

func TestLocalDOTOutput(t *testing.T) {
	l := BuildLocal(protocols.Illinois())
	dot := l.DOT()
	for _, want := range []string{"Illinois-local", "\"Invalid\"", "\"Dirty\"", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("local DOT missing %q", want)
		}
	}
}

func TestLocalEdgeLabelIncludesGuard(t *testing.T) {
	l := BuildLocal(protocols.Illinois())
	sawGuarded, sawPlain := false, false
	for _, e := range l.Edges {
		label := e.Label()
		if e.Guard.Kind == fsm.GuardAlways {
			if strings.Contains(label, "[") {
				t.Errorf("unguarded label %q should not show a guard", label)
			}
			sawPlain = true
		} else {
			if !strings.Contains(label, "[") {
				t.Errorf("guarded label %q should show the guard", label)
			}
			sawGuarded = true
		}
	}
	if !sawGuarded || !sawPlain {
		t.Error("expected both guarded and unguarded edges")
	}
}

// HasEdge reports whether the diagram has an edge (from, to) labelled with
// op originated by origin, ignoring the N-step annotation.
func (g *Global) HasEdge(from, to int, op fsm.Op, origin fsm.State) bool {
	for _, e := range g.Edges {
		if e.From == from && e.To == to && e.Op == op && e.Origin == origin {
			return true
		}
	}
	return false
}

// FindNode returns the index of the essential state whose structure string
// matches, or -1.
func (g *Global) FindNode(structure string) int {
	for i, n := range g.Nodes {
		if n.StructureString(g.Protocol) == structure {
			return i
		}
	}
	return -1
}

// HasEdge reports whether the local diagram moves a cache from one state to
// another under op (any guard).
func (l *Local) HasEdge(from, to fsm.State, op fsm.Op) bool {
	for _, e := range l.Edges {
		if e.From == from && e.To == to && e.Op == op {
			return true
		}
	}
	return false
}
