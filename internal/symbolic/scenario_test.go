package symbolic

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/fsm"
	"repro/internal/protocols"
)

// mkScenario builds a post-removal scenario for white-box testing of the
// guard refinement machinery, which reads only the operators and the bound.
func mkScenario(e *Engine, rem []Rep, others ival) scenario {
	sc := scenario{others: others}
	for i, r := range rem {
		sc.set(i, r)
	}
	return sc
}

// guardTab builds a compiled any-other rule over the given guard states,
// the part of a rule splitExists reads.
func guardTab(e *Engine, states []fsm.State) *compile.Rule {
	r := &compile.Rule{GuardKind: fsm.GuardAnyOther}
	valid := 0
	for _, s := range states {
		i := e.cp.StateIndex(s)
		r.GuardStates = append(r.GuardStates, int32(i))
		r.GuardMask |= 1 << i
		if e.valid[i] {
			valid++
		}
	}
	r.GuardIsValidSet = valid == len(states) && valid == len(e.validIdxs)
	return r
}

func TestSplitExistsDefiniteTrue(t *testing.T) {
	e := illinoisEngine(t)
	p := e.Protocol()
	rem := make([]Rep, e.n)
	rem[p.StateIndex("Dirty")] = ROne
	rem[p.StateIndex("Invalid")] = RStar
	sc := mkScenario(e, rem, ival{1, 1})
	yes, no := e.splitExists(sc, guardTab(e, []fsm.State{"Dirty"}), nil, nil)
	if len(yes) != 1 || yes[0] != sc || len(no) != 0 {
		t.Fatalf("a singleton class must decide existence: yes %v, no %v", yes, no)
	}
}

func TestSplitExistsDefiniteFalse(t *testing.T) {
	e := illinoisEngine(t)
	p := e.Protocol()
	rem := make([]Rep, e.n)
	rem[p.StateIndex("Shared")] = ROne
	rem[p.StateIndex("Invalid")] = RStar
	sc := mkScenario(e, rem, ival{1, 1})
	yes, no := e.splitExists(sc, guardTab(e, []fsm.State{"Dirty"}), nil, nil)
	if len(yes) != 0 {
		t.Fatalf("an empty class must refute existence: %v", yes)
	}
	if len(no) != 1 {
		t.Fatal("the false scenario must be returned")
	}
}

func TestSplitExistsAmbiguousBranches(t *testing.T) {
	// A star class with a loose copy-count bound branches into a pinned
	// non-empty scenario and a pinned empty one.
	e := illinoisEngine(t)
	p := e.Protocol()
	si, di := p.StateIndex("Shared"), p.StateIndex("Dirty")
	rem := make([]Rep, e.n)
	rem[si] = RStar
	rem[di] = ROne
	rem[p.StateIndex("Invalid")] = RStar
	sc := mkScenario(e, rem, ival{1, 2})
	yes, no := e.splitExists(sc, guardTab(e, []fsm.State{"Shared"}), nil, nil)
	if len(yes) != 1 || yes[0].rep(si) != RPlus {
		t.Fatalf("true branch must pin Shared to +, got %v", yes)
	}
	if len(no) != 1 || no[0].rep(si) != RZero {
		t.Fatalf("false branch must zero the Shared ghost, got %v", no)
	}
}

func TestSplitExistsFastPathOnValidSet(t *testing.T) {
	// With the sharing-detection attribute, existence over the full
	// valid-copy set is decided by the copy-count bound alone.
	e := illinoisEngine(t)
	p := e.Protocol()
	valid := []fsm.State{"Valid-Exclusive", "Shared", "Dirty"}
	rem := make([]Rep, e.n)
	rem[p.StateIndex("Invalid")] = RPlus
	rem[p.StateIndex("Shared")] = RStar

	sc := mkScenario(e, rem, ival{1, 1})
	if yes, no := e.splitExists(sc, guardTab(e, valid), nil, nil); len(yes) != 1 || len(no) != 0 {
		t.Fatalf("bound lo≥1 must prove existence, got yes %v, no %v", yes, no)
	}
	sc = mkScenario(e, rem, ival{0, 0})
	yes, no := e.splitExists(sc, guardTab(e, valid), nil, nil)
	if len(yes) != 0 {
		t.Fatalf("bound hi=0 must refute existence, got %v", yes)
	}
	if len(no) != 1 || no[0].rep(p.StateIndex("Shared")) != RZero {
		t.Fatal("the false scenario must drop the star class")
	}
}

func TestPropagateZeroBoundClearsStars(t *testing.T) {
	e := illinoisEngine(t)
	p := e.Protocol()
	rem := make([]Rep, e.n)
	rem[p.StateIndex("Invalid")] = RPlus
	rem[p.StateIndex("Shared")] = RStar
	rem[p.StateIndex("Dirty")] = RStar
	sc := mkScenario(e, rem, ival{0, 0})
	if !e.propagate(&sc) {
		t.Fatal("scenario should be feasible")
	}
	if sc.rep(p.StateIndex("Shared")) != RZero || sc.rep(p.StateIndex("Dirty")) != RZero {
		t.Fatalf("zero bound must clear star copy classes: %v", sc.ops)
	}
}

func TestPropagateExactBoundPins(t *testing.T) {
	e := illinoisEngine(t)
	p := e.Protocol()
	rem := make([]Rep, e.n)
	rem[p.StateIndex("Invalid")] = RPlus
	rem[p.StateIndex("Dirty")] = RPlus
	rem[p.StateIndex("Shared")] = RStar
	sc := mkScenario(e, rem, ival{1, 1})
	if !e.propagate(&sc) {
		t.Fatal("scenario should be feasible")
	}
	if sc.rep(p.StateIndex("Dirty")) != ROne {
		t.Fatalf("Dirty+ must pin to a singleton under an exact bound of 1: %v", sc.ops)
	}
	if sc.rep(p.StateIndex("Shared")) != RZero {
		t.Fatalf("Shared* must be empty under an exact bound already met: %v", sc.ops)
	}
}

func TestPropagateDetectsInfeasible(t *testing.T) {
	e := illinoisEngine(t)
	p := e.Protocol()
	rem := make([]Rep, e.n)
	rem[p.StateIndex("Dirty")] = ROne
	rem[p.StateIndex("Shared")] = ROne
	sc := mkScenario(e, rem, ival{1, 1})
	if e.propagate(&sc) {
		t.Fatal("two definite copies cannot satisfy an exact bound of 1")
	}
}

func TestPropagateLeavesManyBoundLoose(t *testing.T) {
	// The ≥2 bound is saturated, not exact: stars must NOT be cleared.
	e := illinoisEngine(t)
	p := e.Protocol()
	rem := make([]Rep, e.n)
	rem[p.StateIndex("Shared")] = RPlus
	rem[p.StateIndex("Dirty")] = RStar
	sc := mkScenario(e, rem, ival{2, 2})
	if !e.propagate(&sc) {
		t.Fatal("scenario should be feasible")
	}
	if sc.rep(p.StateIndex("Dirty")) != RStar {
		t.Fatal("a saturated ≥2 bound must not pin star classes")
	}
}

func TestExpandEventSkipsInfeasibleOrigin(t *testing.T) {
	// Originating from a star class that the copy count proves empty must
	// produce no successors: e.g. Shared* in a state whose count is zero.
	e := illinoisEngine(t)
	p := protocols.Illinois()
	// The initial state has only the Invalid class; a hand-made state with
	// Shared* and CountZero normalizes Shared away entirely, so construct
	// the scenario through the public API and check no Shared-originated
	// successors appear.
	init := e.Initial()
	succs, _ := e.Successors(init)
	for _, su := range succs {
		if su.Label.Origin == "Shared" || su.Label.Origin == "Dirty" {
			t.Fatalf("empty classes cannot originate transitions: %v (protocol %s)", su.Label, p.Name)
		}
	}
}
