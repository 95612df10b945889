package core

import (
	"testing"

	"repro/internal/fsm"
	"repro/internal/protocols"
)

func TestNoDeadRulesInSuiteProtocols(t *testing.T) {
	// Every rule of every shipped protocol must be reachable — the
	// definitions carry no dead weight.
	for _, p := range protocols.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			rep, err := Verify(p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if dead := DeadRules(rep); len(dead) != 0 {
				t.Errorf("dead rules: %v", dead)
			}
		})
	}
}

func TestDeadRulesDetected(t *testing.T) {
	// Add a rule guarded on an impossible configuration: a read miss that
	// requires two-or-more simultaneous Dirty copies can never fire in the
	// (coherent) Illinois protocol... expressed here as a rule from a state
	// made unreachable by removing its only entry path.
	p := protocols.Illinois()
	// Redirect the only transition INTO Valid-Exclusive (the read miss
	// from memory) to Shared: V-Ex becomes unreachable and its three rules
	// become dead.
	for i := range p.Rules {
		if p.Rules[i].Name == "read-miss-from-memory" {
			p.Rules[i].Next = "Shared"
		}
	}
	p = p.Clone()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dead := DeadRules(rep)
	want := map[string]bool{"read-hit-vex": true, "write-hit-vex": true, "replace-vex": true}
	if len(dead) != len(want) {
		t.Fatalf("dead = %v, want the three Valid-Exclusive rules", dead)
	}
	for _, name := range dead {
		if !want[name] {
			t.Errorf("unexpected dead rule %s", name)
		}
	}
}

func TestDeadRulesOnCustomProtocol(t *testing.T) {
	// A handwritten protocol with a deliberately unreachable state.
	p := &fsm.Protocol{
		Name:    "WithDead",
		States:  []fsm.State{"I", "V", "Ghost"},
		Initial: "I",
		Ops:     []fsm.Op{fsm.OpRead, fsm.OpReplace},
		Inv: fsm.Invariants{
			ValidCopy: []fsm.State{"V", "Ghost"},
			Readable:  []fsm.State{"V", "Ghost"},
		},
		Rules: []fsm.Rule{
			{Name: "miss", From: "I", On: fsm.OpRead, Guard: fsm.Always(),
				Next: "V", Data: fsm.DataEffect{Source: fsm.SrcMemory}},
			{Name: "hit", From: "V", On: fsm.OpRead, Guard: fsm.Always(),
				Next: "V", Data: fsm.DataEffect{Source: fsm.SrcKeep}},
			{Name: "drop", From: "V", On: fsm.OpReplace, Guard: fsm.Always(),
				Next: "I", Data: fsm.DataEffect{Source: fsm.SrcKeep, DropSelf: true}},
			{Name: "ghost-hit", From: "Ghost", On: fsm.OpRead, Guard: fsm.Always(),
				Next: "Ghost", Data: fsm.DataEffect{Source: fsm.SrcKeep}},
		},
	}
	rep, err := Verify(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dead := DeadRules(rep)
	if len(dead) != 1 || dead[0] != "ghost-hit" {
		t.Fatalf("dead = %v, want [ghost-hit]", dead)
	}
}
