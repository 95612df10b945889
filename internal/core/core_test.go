package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/enum"
	"repro/internal/fsm"
	"repro/internal/mutate"
	"repro/internal/protocols"
	"repro/internal/symbolic"
)

func TestVerifyAllProtocolsClean(t *testing.T) {
	for _, p := range protocols.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			rep, err := Verify(p, Options{Strict: true, BuildGraph: true, CrossCheckN: []int{2, 3}})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("should verify clean: %s", rep.Summary())
			}
			if rep.Graph == nil {
				t.Fatal("graph requested but missing")
			}
			if len(rep.CrossChecks) != 2 {
				t.Fatalf("want 2 cross-checks, got %d", len(rep.CrossChecks))
			}
		})
	}
}

func TestVerifyRejectsInvalidProtocol(t *testing.T) {
	if _, err := Verify(&fsm.Protocol{Name: "junk"}, Options{}); err == nil {
		t.Fatal("Verify must validate the protocol first")
	}
}

func TestVerifyBrokenProtocolReportsViolations(t *testing.T) {
	p := protocols.Illinois()
	for i := range p.Rules {
		if p.Rules[i].Name == "write-hit-shared" {
			p.Rules[i].Observe = nil
		}
	}
	p = p.Clone()
	rep, err := Verify(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("the broken protocol must be refuted")
	}
	if len(rep.Symbolic.Violations) == 0 {
		t.Fatal("no violations recorded")
	}
	if rep.Graph != nil {
		t.Fatal("no graph should be built for an erroneous protocol")
	}
	s := rep.Summary()
	if !strings.Contains(s, "ERRONEOUS") {
		t.Errorf("summary lacks the verdict: %s", s)
	}
	if !strings.Contains(s, "witness") {
		t.Errorf("summary lacks a witness path: %s", s)
	}
}

func TestSummaryContents(t *testing.T) {
	rep, err := Verify(protocols.Illinois(), Options{CrossCheckN: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary()
	for _, want := range []string{
		"Protocol Illinois: PERMISSIBLE",
		"sharing-detection",
		"essential states: 5",
		"state visits: 23",
		"(Invalid*, Shared+)",
		"cross-check n=2: OK",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestCrossCheckDetectsBrokenProtocolConcretely(t *testing.T) {
	// A broken protocol's concrete enumeration must surface violations
	// even when the caller only asked for cross-checks.
	p := protocols.Illinois()
	for i := range p.Rules {
		if p.Rules[i].Name == "replace-dirty" {
			p.Rules[i].Data.WriteBackSelf = false
		}
	}
	p = p.Clone()
	rep, err := Verify(p, Options{CrossCheckN: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("must be refuted")
	}
	cc := rep.CrossChecks[0]
	if len(cc.Enum.Violations) == 0 {
		t.Fatal("the concrete enumeration must also observe the bug")
	}
}

func TestMutantsAllDetected(t *testing.T) {
	for _, p := range protocols.All() {
		for _, m := range mutate.Catalog(p) {
			rep, err := Verify(m.Protocol, Options{Strict: true})
			if err != nil {
				t.Fatalf("%s: %v", m.Protocol.Name, err)
			}
			if rep.Symbolic.OK() {
				t.Errorf("mutant %s (%s) escaped the verifier", m.Protocol.Name, m.Detail)
			}
		}
	}
}

func TestMutantWitnessesReplaySymbolically(t *testing.T) {
	p := protocols.Illinois()
	muts := mutate.Catalog(p)
	if len(muts) == 0 {
		t.Fatal("no mutants generated")
	}
	m := muts[0]
	rep, err := Verify(m.Protocol, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Symbolic.Violations) == 0 {
		t.Fatal("no violations")
	}
	w := FormatWitness(m.Protocol, rep.Engine(), rep.Symbolic.Violations[0].Path)
	if !strings.Contains(w, "-->") || !strings.Contains(w, "(Invalid+)") {
		t.Errorf("witness rendering looks wrong: %s", w)
	}
}

func TestReportEngineExposed(t *testing.T) {
	rep, err := Verify(protocols.MSI(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine() == nil || rep.Engine().Protocol().Name != "MSI" {
		t.Fatal("Engine accessor broken")
	}
}

// TestVerifyTooManyStates: a protocol beyond the symbolic engine's 64
// states surfaces its typed error through VerifyContext, while the
// explicit-state engine still verifies it.
func TestVerifyTooManyStates(t *testing.T) {
	p, err := protocols.Synthetic(63) // 65 states
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyContext(context.Background(), p, Options{}); !errors.Is(err, symbolic.ErrTooManyStates) {
		t.Fatalf("VerifyContext on 65 states: %v, want symbolic.ErrTooManyStates", err)
	}
	res, err := enum.Exhaustive(p, 2, enum.Options{Strict: true})
	if err != nil || res.Truncated || len(res.Violations) != 0 || len(res.SpecErrors) != 0 {
		t.Fatalf("enum on 65 states: err %v, truncated %v, %d violations, %d spec errors",
			err, res != nil && res.Truncated, len(res.Violations), len(res.SpecErrors))
	}
}
