package symbolic

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/fsm"
	"repro/internal/protocols"
)

// findSuccs filters successors by op and originating class.
func findSuccs(succs []Succ, op fsm.Op, origin fsm.State) []Succ {
	var out []Succ
	for _, s := range succs {
		if s.Label.Op == op && s.Label.Origin == origin {
			out = append(out, s)
		}
	}
	return out
}

func TestInitialState(t *testing.T) {
	e := illinoisEngine(t)
	init := e.Initial()
	if got := init.StructureString(e.Protocol()); got != "(Invalid+)" {
		t.Fatalf("initial = %s, want (Invalid+)", got)
	}
	if init.Attr() != CountZero {
		t.Fatalf("initial attr = %v, want copies=0", init.Attr())
	}
	if init.MData() != DFresh {
		t.Fatal("memory must start fresh")
	}
}

func TestInitialStateNullCharacteristic(t *testing.T) {
	e, err := NewEngine(protocols.MSI())
	if err != nil {
		t.Fatal(err)
	}
	if e.Initial().Attr() != CountNull {
		t.Fatal("null-F protocols must not track a copy count")
	}
}

func TestNewEngineRejectsInvalidProtocol(t *testing.T) {
	if _, err := NewEngine(&fsm.Protocol{Name: "broken"}); err == nil {
		t.Fatal("NewEngine must validate the protocol")
	}
}

// TestIllinoisReadMissFromEmpty reproduces the first expansion step of
// Appendix A.2: (Inv+) --R_inv--> (V-Ex, Inv*).
func TestIllinoisReadMissFromEmpty(t *testing.T) {
	e := illinoisEngine(t)
	succs, errs := e.Successors(e.Initial())
	if len(errs) != 0 {
		t.Fatalf("spec errors: %v", errs)
	}
	reads := findSuccs(succs, fsm.OpRead, "Invalid")
	if len(reads) != 1 {
		t.Fatalf("want exactly one read successor, got %d", len(reads))
	}
	got := reads[0].State
	if got.StructureString(e.Protocol()) != "(Invalid*, Valid-Exclusive)" {
		t.Fatalf("R_inv from (Inv+) gave %s", got.StructureString(e.Protocol()))
	}
	if got.Attr() != CountOne {
		t.Fatalf("attr = %v, want copies=1", got.Attr())
	}
	vex := e.Protocol().StateIndex("Valid-Exclusive")
	if got.CData(vex) != DFresh || got.MData() != DFresh {
		t.Fatal("memory-serviced copy and memory must both be fresh")
	}
}

// TestIllinoisWriteMissFromEmpty reproduces (Inv+) --W_inv--> (Dirty, Inv*).
func TestIllinoisWriteMissFromEmpty(t *testing.T) {
	e := illinoisEngine(t)
	succs, _ := e.Successors(e.Initial())
	writes := findSuccs(succs, fsm.OpWrite, "Invalid")
	if len(writes) != 1 {
		t.Fatalf("want exactly one write successor, got %d", len(writes))
	}
	got := writes[0].State
	if got.StructureString(e.Protocol()) != "(Invalid*, Dirty)" {
		t.Fatalf("W_inv from (Inv+) gave %s", got.StructureString(e.Protocol()))
	}
	if got.MData() != DObsolete {
		t.Fatal("a write must leave memory obsolete (no write-through in Illinois)")
	}
	dirty := e.Protocol().StateIndex("Dirty")
	if got.CData(dirty) != DFresh {
		t.Fatal("the writer's copy must be fresh")
	}
}

// TestIllinoisReadMissSaturatesSharers reproduces the N-steps aggregation:
// (V-Ex, Inv*) --R_inv--> (Shared+, Inv*) with copies≥2 in one symbolic step.
func TestIllinoisReadMissSaturatesSharers(t *testing.T) {
	e := illinoisEngine(t)
	s1 := mk(t, e,
		[]Rep{RStar, ROne, RZero, RZero},
		[]Data{DNone, DFresh, DNone, DNone},
		CountOne, DFresh)
	succs, _ := e.Successors(s1)
	reads := findSuccs(succs, fsm.OpRead, "Invalid")
	if len(reads) != 1 {
		t.Fatalf("want one read successor, got %d", len(reads))
	}
	got := reads[0].State
	if got.StructureString(e.Protocol()) != "(Invalid*, Shared+)" || got.Attr() != CountMany {
		t.Fatalf("got %s %v", got.StructureString(e.Protocol()), got.Attr())
	}
}

// TestIllinoisDirtySupplierOnReadMiss reproduces
// (Dirty, Inv*) --R_inv--> (Shared+, Inv*) with the memory update.
func TestIllinoisDirtySupplierOnReadMiss(t *testing.T) {
	e := illinoisEngine(t)
	s2 := mk(t, e,
		[]Rep{RStar, RZero, RZero, ROne},
		[]Data{DNone, DNone, DNone, DFresh},
		CountOne, DObsolete)
	succs, _ := e.Successors(s2)
	reads := findSuccs(succs, fsm.OpRead, "Invalid")
	if len(reads) != 1 {
		t.Fatalf("want one read successor, got %d", len(reads))
	}
	got := reads[0].State
	if got.StructureString(e.Protocol()) != "(Invalid*, Shared+)" {
		t.Fatalf("got %s", got.StructureString(e.Protocol()))
	}
	if got.MData() != DFresh {
		t.Fatal("the dirty supplier must update memory during the transfer")
	}
	shared := e.Protocol().StateIndex("Shared")
	if got.CData(shared) != DFresh {
		t.Fatal("both Shared copies must be fresh")
	}
}

// TestIllinoisReplacementBranchesOnCount reproduces the rule 4(b) N-steps
// derivation: (Shared+, Inv*)[≥2] --Z_shared--> both (Shared, Inv+)[1]
// (tagged N-step) and a state still covered by (Shared+, Inv*)[≥2].
func TestIllinoisReplacementBranchesOnCount(t *testing.T) {
	e := illinoisEngine(t)
	s3 := mk(t, e,
		[]Rep{RStar, RZero, RPlus, RZero},
		[]Data{DNone, DNone, DFresh, DNone},
		CountMany, DFresh)
	succs, _ := e.Successors(s3)
	reps := findSuccs(succs, fsm.OpReplace, "Shared")
	if len(reps) != 2 {
		t.Fatalf("want two replacement branches, got %d", len(reps))
	}
	var one, many *Succ
	for i := range reps {
		switch reps[i].State.Attr() {
		case CountOne:
			one = &reps[i]
		case CountMany:
			many = &reps[i]
		}
	}
	if one == nil || many == nil {
		t.Fatalf("want one branch per count classification")
	}
	if got := one.State.StructureString(e.Protocol()); got != "(Invalid+, Shared)" {
		t.Fatalf("count-one branch = %s, want (Invalid+, Shared)", got)
	}
	if !one.Label.NStep {
		t.Error("the count-downgrade branch is the paper's Rep^n edge and must be tagged N-step")
	}
	if !Contains(s3, many.State) {
		t.Error("the stay-many branch must be contained in the source")
	}
}

// TestIllinoisWriteOnSharedInvalidatesClass reproduces
// (Shared+, Inv*) --W_shared--> a state contained in (Dirty, Inv*).
func TestIllinoisWriteOnSharedInvalidatesClass(t *testing.T) {
	e := illinoisEngine(t)
	s3 := mk(t, e,
		[]Rep{RStar, RZero, RPlus, RZero},
		[]Data{DNone, DNone, DFresh, DNone},
		CountMany, DFresh)
	succs, _ := e.Successors(s3)
	writes := findSuccs(succs, fsm.OpWrite, "Shared")
	if len(writes) != 1 {
		t.Fatalf("want one write successor, got %d", len(writes))
	}
	got := writes[0].State
	// The paper's A.2 lists exactly (Dirty, Inv*): the invalidated sharers
	// pool into the Invalid star class.
	if got.StructureString(e.Protocol()) != "(Invalid*, Dirty)" || got.Attr() != CountOne {
		t.Fatalf("got %s %v", got.StructureString(e.Protocol()), got.Attr())
	}
	if got.MData() != DObsolete {
		t.Fatal("the write must obsolete memory")
	}
}

// TestIllinoisReadHitIsSelfLoop: hits change nothing.
func TestIllinoisReadHitIsSelfLoop(t *testing.T) {
	e := illinoisEngine(t)
	s2 := mk(t, e,
		[]Rep{RStar, RZero, RZero, ROne},
		[]Data{DNone, DNone, DNone, DFresh},
		CountOne, DObsolete)
	succs, _ := e.Successors(s2)
	reads := findSuccs(succs, fsm.OpRead, "Dirty")
	if len(reads) != 1 || reads[0].State.Key() != s2.Key() {
		t.Fatalf("a read hit must be a self-loop, got %v", reads)
	}
}

// TestNoReplacementFromInvalid: (Z, Invalid) has no rules, so the engine
// must not generate successors for it.
func TestNoReplacementFromInvalid(t *testing.T) {
	e := illinoisEngine(t)
	succs, _ := e.Successors(e.Initial())
	if got := findSuccs(succs, fsm.OpReplace, "Invalid"); len(got) != 0 {
		t.Fatalf("replacement of Invalid must be a no-op, got %d successors", len(got))
	}
}

// TestGhostClassElimination regression-tests the Dragon bug: when a guard
// proves that no other copy exists, star classes in the guard set must be
// pruned from the successor instead of riding along as "ghosts".
func TestGhostClassElimination(t *testing.T) {
	p := protocols.Dragon()
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	// (Shared-Clean*, Shared-Dirty, Invalid+) with exactly one copy: the
	// Shared-Clean class is necessarily empty, so a write by the owner
	// finding the shared line low must yield (Dirty, Invalid+) with no
	// Shared-Clean ghost.
	sc := p.StateIndex("Shared-Clean")
	sd := p.StateIndex("Shared-Dirty")
	reps := make([]Rep, p.NumStates())
	data := make([]Data, p.NumStates())
	reps[p.StateIndex("Invalid")] = RPlus
	reps[sc] = RStar
	reps[sd] = ROne
	data[sc] = DFresh
	data[sd] = DFresh
	s, ok := e.MakeState(reps, data, CountOne, DObsolete)
	if !ok {
		t.Fatal("state should be feasible")
	}
	// Normalization alone must already drop the ghost.
	if s.Rep(sc) != RZero {
		t.Fatalf("normalization kept ghost Shared-Clean*: %s", s.StructureString(p))
	}
	succs, _ := e.Successors(s)
	for _, su := range succs {
		if su.Label.Op == fsm.OpWrite && su.Label.Origin == "Shared-Dirty" {
			if su.State.Rep(sc) != RZero {
				t.Fatalf("ghost class in successor %s", su.State.StructureString(p))
			}
		}
	}
}

// TestSuccessorsOfAllEssentialStatesAreCovered is the internal closure
// property behind Theorem 1: expanding any essential state only reaches
// states covered by essential states.
func TestSuccessorsOfAllEssentialStatesAreCovered(t *testing.T) {
	for _, p := range protocols.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			e, err := NewEngine(p)
			if err != nil {
				t.Fatal(err)
			}
			res := e.Expand(Options{})
			if !res.OK() {
				t.Fatalf("%s should verify clean", p.Name)
			}
			for _, es := range res.Essential {
				succs, errs := e.Successors(es)
				if len(errs) != 0 {
					t.Fatalf("spec errors expanding %s: %v", es.StructureString(p), errs)
				}
				for _, su := range succs {
					if _, ok := CoveredBy(su.State, res.Essential); !ok {
						t.Errorf("successor %s of %s not covered",
							su.State.StructureString(p), es.StructureString(p))
					}
				}
			}
		})
	}
}

// supplierProtocol is a contrived protocol in which a read miss can be
// serviced by either of two supplier classes that stay distinct from the
// requester's class, making the supplier-choice branch observable.
func supplierProtocol(t *testing.T) *fsm.Protocol {
	t.Helper()
	p := &fsm.Protocol{
		Name:           "SupplierBranch",
		States:         []fsm.State{"I", "A", "B", "C"},
		Initial:        "I",
		Ops:            []fsm.Op{fsm.OpRead, fsm.OpWrite, fsm.OpReplace},
		Characteristic: fsm.CharSharing,
		Inv: fsm.Invariants{
			ValidCopy: []fsm.State{"A", "B", "C"},
			Readable:  []fsm.State{"A", "B", "C"},
		},
		Rules: []fsm.Rule{
			{Name: "rm-cache", From: "I", On: fsm.OpRead, Guard: fsm.AnyOther("A", "B"),
				Next: "C", Data: fsm.DataEffect{Source: fsm.SrcCache, Suppliers: []fsm.State{"A", "B"}}},
			{Name: "rm-mem", From: "I", On: fsm.OpRead, Guard: fsm.NoOther("A", "B"),
				Next: "A", Data: fsm.DataEffect{Source: fsm.SrcMemory}},
			{Name: "rh-a", From: "A", On: fsm.OpRead, Guard: fsm.Always(), Next: "A",
				Data: fsm.DataEffect{Source: fsm.SrcKeep}},
			{Name: "rh-b", From: "B", On: fsm.OpRead, Guard: fsm.Always(), Next: "B",
				Data: fsm.DataEffect{Source: fsm.SrcKeep}},
			{Name: "rh-c", From: "C", On: fsm.OpRead, Guard: fsm.Always(), Next: "C",
				Data: fsm.DataEffect{Source: fsm.SrcKeep}},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSupplierBranching: with two possible supplier classes carrying
// different data, the engine must branch rather than pick one.
func TestSupplierBranching(t *testing.T) {
	p := supplierProtocol(t)
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]Rep, 4)
	data := make([]Data, 4)
	reps[p.StateIndex("I")] = RPlus
	reps[p.StateIndex("A")], data[p.StateIndex("A")] = ROne, DFresh
	reps[p.StateIndex("B")], data[p.StateIndex("B")] = ROne, DObsolete
	s, ok := e.MakeState(reps, data, CountMany, DFresh)
	if !ok {
		t.Fatal("state should be feasible")
	}
	succs, _ := e.Successors(s)
	reads := findSuccs(succs, fsm.OpRead, "I")
	sawFresh, sawStale := false, false
	ci := p.StateIndex("C")
	for _, su := range reads {
		switch su.State.CData(ci) {
		case DFresh:
			sawFresh = true
		case DObsolete:
			sawStale = true
		}
	}
	if !sawFresh || !sawStale {
		t.Fatalf("supplier choice must branch (fresh=%v stale=%v, %d successors)",
			sawFresh, sawStale, len(reads))
	}
}

func TestLabelString(t *testing.T) {
	l := Label{Op: fsm.OpRead, Origin: "Invalid", NStep: true}
	if l.String() != "R^n_Invalid" {
		t.Errorf("Label.String() = %q", l.String())
	}
	l2 := Label{Op: fsm.OpWrite, Origin: "Shared"}
	if l2.String() != "W_Shared" {
		t.Errorf("Label.String() = %q", l2.String())
	}
}

// TestNewEngineTooManyStates: the engine's class masks are one word, so a
// protocol with more than 64 states is refused with a typed error naming
// the count, and one with exactly 64 expands and matches the reference
// kernel.
func TestNewEngineTooManyStates(t *testing.T) {
	p, err := protocols.Synthetic(63) // 65 states
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewEngine(p)
	if !errors.Is(err, ErrTooManyStates) || !strings.Contains(err.Error(), "65 states") {
		t.Fatalf("NewEngine on 65 states: %v, want ErrTooManyStates naming the count", err)
	}
	if _, err := Expand(p, Options{}); !errors.Is(err, ErrTooManyStates) {
		t.Fatalf("Expand on 65 states: %v", err)
	}
	p, err = protocols.Synthetic(62) // 64 states
	if err != nil {
		t.Fatal(err)
	}
	res, err := Expand(p, Options{MaxVisits: 1 << 20})
	if err != nil || !res.OK() || len(res.Essential) != 64 {
		t.Fatalf("Synthetic(62): %v, ok=%v, %d essential states", err, res != nil && res.OK(), len(res.Essential))
	}
	matchReference(t, p) // the top class is bit 63
}
