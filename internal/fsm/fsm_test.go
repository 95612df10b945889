package fsm

import (
	"errors"
	"strings"
	"testing"
)

// miniProtocol returns a small, valid two-state protocol used as a baseline
// for the validation tests. Tests mutate clones of it to provoke specific
// validation failures.
func miniProtocol() *Protocol {
	return &Protocol{
		Name:    "Mini",
		States:  []State{"I", "V"},
		Initial: "I",
		Ops:     []Op{OpRead, OpWrite, OpReplace},
		Inv: Invariants{
			ValidCopy: []State{"V"},
			Readable:  []State{"V"},
			Exclusive: []State{"V"},
		},
		Rules: []Rule{
			{
				Name: "read-miss", From: "I", On: OpRead, Guard: Always(),
				Next: "V", Data: DataEffect{Source: SrcMemory},
			},
			{
				Name: "read-hit", From: "V", On: OpRead, Guard: Always(),
				Next: "V", Data: DataEffect{Source: SrcKeep},
			},
			{
				Name: "write", From: "V", On: OpWrite, Guard: Always(),
				Next: "V", Observe: map[State]State{"V": "I"},
				Data: DataEffect{Source: SrcKeep, Store: true, WriteThrough: true},
			},
			{
				Name: "write-miss", From: "I", On: OpWrite, Guard: Always(),
				Next: "V", Observe: map[State]State{"V": "I"},
				Data: DataEffect{Source: SrcMemory, Store: true, WriteThrough: true},
			},
			{
				Name: "replace", From: "V", On: OpReplace, Guard: Always(),
				Next: "I", Data: DataEffect{Source: SrcKeep, DropSelf: true},
			},
		},
	}
}

func TestMiniProtocolValidates(t *testing.T) {
	if err := miniProtocol().Validate(); err != nil {
		t.Fatalf("baseline protocol should validate, got %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Protocol)
		wantSub string
	}{
		{
			name:    "no name",
			mutate:  func(p *Protocol) { p.Name = "" },
			wantSub: "no name",
		},
		{
			name:    "single state",
			mutate:  func(p *Protocol) { p.States = []State{"I"} },
			wantSub: "at least two states",
		},
		{
			name:    "no operations",
			mutate:  func(p *Protocol) { p.Ops = nil },
			wantSub: "no operations",
		},
		{
			name:    "duplicate state",
			mutate:  func(p *Protocol) { p.States = []State{"I", "V", "I"} },
			wantSub: "duplicate state",
		},
		{
			name:    "empty state name",
			mutate:  func(p *Protocol) { p.States = []State{"I", "V", ""} },
			wantSub: "empty state name",
		},
		{
			name:    "duplicate op",
			mutate:  func(p *Protocol) { p.Ops = []Op{OpRead, OpRead} },
			wantSub: "duplicate operation",
		},
		{
			name:    "empty op",
			mutate:  func(p *Protocol) { p.Ops = append(p.Ops, "") },
			wantSub: "empty operation",
		},
		{
			name:    "undeclared initial",
			mutate:  func(p *Protocol) { p.Initial = "X" },
			wantSub: "initial state",
		},
		{
			name:    "empty valid-copy set",
			mutate:  func(p *Protocol) { p.Inv.ValidCopy = nil },
			wantSub: "ValidCopy",
		},
		{
			name:    "initial is a valid copy",
			mutate:  func(p *Protocol) { p.Inv.ValidCopy = []State{"I", "V"} },
			wantSub: "must not be a valid-copy state",
		},
		{
			name:    "undeclared invariant state",
			mutate:  func(p *Protocol) { p.Inv.Exclusive = []State{"Z"} },
			wantSub: "undeclared state",
		},
		{
			name:    "undeclared owners state",
			mutate:  func(p *Protocol) { p.Inv.Owners = []State{"Z"} },
			wantSub: "undeclared state",
		},
		{
			name:    "undeclared clean state",
			mutate:  func(p *Protocol) { p.Inv.CleanShared = []State{"Z"} },
			wantSub: "undeclared state",
		},
		{
			name:    "rule without name",
			mutate:  func(p *Protocol) { p.Rules[0].Name = "" },
			wantSub: "has no name",
		},
		{
			name:    "rule undeclared from",
			mutate:  func(p *Protocol) { p.Rules[0].From = "X" },
			wantSub: "undeclared From",
		},
		{
			name:    "rule undeclared op",
			mutate:  func(p *Protocol) { p.Rules[0].On = "Q" },
			wantSub: "undeclared operation",
		},
		{
			name:    "rule undeclared next",
			mutate:  func(p *Protocol) { p.Rules[0].Next = "X" },
			wantSub: "undeclared Next",
		},
		{
			name:    "guard with undeclared state",
			mutate:  func(p *Protocol) { p.Rules[0].Guard = AnyOther("X") },
			wantSub: "undeclared state",
		},
		{
			name:    "conditional guard with empty set",
			mutate:  func(p *Protocol) { p.Rules[0].Guard = Guard{Kind: GuardAnyOther} },
			wantSub: "empty state set",
		},
		{
			name: "observe undeclared state",
			mutate: func(p *Protocol) {
				p.Rules[0].Observe = map[State]State{"V": "X"}
			},
			wantSub: "observe",
		},
		{
			name: "cache source without suppliers",
			mutate: func(p *Protocol) {
				p.Rules[0].Data = DataEffect{Source: SrcCache}
			},
			wantSub: "no supplier states",
		},
		{
			name: "suppliers without cache source",
			mutate: func(p *Protocol) {
				p.Rules[0].Data.Suppliers = []State{"V"}
			},
			wantSub: "suppliers given but Source",
		},
		{
			name: "drop to a valid-copy state",
			mutate: func(p *Protocol) {
				p.Rules[4].Next = "V" // replace rule keeps DropSelf
			},
			wantSub: "DropSelf",
		},
		{
			name: "always rule alongside guarded rule",
			mutate: func(p *Protocol) {
				p.Rules = append(p.Rules, Rule{
					Name: "extra", From: "I", On: OpRead,
					Guard: AnyOther("V"), Next: "V",
					Data: DataEffect{Source: SrcMemory},
				})
			},
			wantSub: "unconditional rule",
		},
		{
			name: "cascade without fallback",
			mutate: func(p *Protocol) {
				p.Rules[0].Guard = AnyOther("V")
				p.Rules = append(p.Rules, Rule{
					Name: "extra", From: "I", On: OpRead,
					Guard: AnyOther("I"), Next: "V",
					Data: DataEffect{Source: SrcMemory},
				})
			},
			wantSub: "no NoOther fallback",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := miniProtocol()
			tc.mutate(p)
			err := p.Validate()
			if err == nil {
				t.Fatalf("expected validation error containing %q, got nil", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestCharNullRequiresGuardIndependentNext(t *testing.T) {
	p := miniProtocol()
	p.Characteristic = CharNull
	p.Rules[0].Guard = AnyOther("V")
	p.Rules = append(p.Rules, Rule{
		Name: "read-miss-alone", From: "I", On: OpRead,
		Guard: NoOther("V"), Next: "I", // diverging next state
		Data: DataEffect{Source: SrcMemory},
	})
	err := p.Validate()
	if err == nil || !strings.Contains(err.Error(), "different next states") {
		t.Fatalf("want next-state divergence error, got %v", err)
	}
}

func TestCharNullRequiresGuardIndependentObserve(t *testing.T) {
	p := miniProtocol()
	p.Characteristic = CharNull
	p.Rules[0].Guard = AnyOther("V")
	p.Rules[0].Observe = map[State]State{"V": "I"}
	p.Rules = append(p.Rules, Rule{
		Name: "read-miss-alone", From: "I", On: OpRead,
		Guard: NoOther("V"), Next: "V",
		Data: DataEffect{Source: SrcMemory},
	})
	err := p.Validate()
	if err == nil || !strings.Contains(err.Error(), "observe differently") {
		t.Fatalf("want observe divergence error, got %v", err)
	}
}

func TestCharSharingAllowsGuardDependentNext(t *testing.T) {
	p := miniProtocol()
	p.Characteristic = CharSharing
	p.Rules[0].Guard = AnyOther("V")
	p.Rules = append(p.Rules, Rule{
		Name: "read-miss-alone", From: "I", On: OpRead,
		Guard: NoOther("V"), Next: "I",
		Data: DataEffect{Source: SrcMemory},
	})
	if err := p.Validate(); err != nil {
		t.Fatalf("sharing-detection protocols may branch on guards: %v", err)
	}
}

func TestStateIndexAndValidCopy(t *testing.T) {
	p := miniProtocol()
	if got := p.StateIndex("I"); got != 0 {
		t.Errorf("StateIndex(I) = %d, want 0", got)
	}
	if got := p.StateIndex("V"); got != 1 {
		t.Errorf("StateIndex(V) = %d, want 1", got)
	}
	if got := p.StateIndex("missing"); got != -1 {
		t.Errorf("StateIndex(missing) = %d, want -1", got)
	}
	if p.IsValidCopy("I") {
		t.Error("I must not be a valid copy")
	}
	if !p.IsValidCopy("V") {
		t.Error("V must be a valid copy")
	}
	if p.NumStates() != 2 {
		t.Errorf("NumStates = %d, want 2", p.NumStates())
	}
}

func TestRulesForLookup(t *testing.T) {
	p := miniProtocol()
	rules := p.RulesFor("I", OpRead)
	if len(rules) != 1 || rules[0].Name != "read-miss" {
		t.Fatalf("RulesFor(I, R) = %v", rules)
	}
	if got := p.RulesFor("I", OpReplace); len(got) != 0 {
		t.Fatalf("RulesFor(I, Z) should be empty, got %v", got)
	}
}

func TestObservedNextDefaultsToIdentity(t *testing.T) {
	r := &Rule{Observe: map[State]State{"V": "I"}}
	if got := r.ObservedNext("V"); got != "I" {
		t.Errorf("ObservedNext(V) = %s, want I", got)
	}
	if got := r.ObservedNext("X"); got != "X" {
		t.Errorf("ObservedNext(X) = %s, want X (identity)", got)
	}
	empty := &Rule{}
	if got := empty.ObservedNext("V"); got != "V" {
		t.Errorf("nil observe map must be identity, got %s", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := miniProtocol()
	q := p.Clone()
	q.Rules[2].Observe["V"] = "V"
	q.Inv.ValidCopy[0] = "I"
	q.States[0] = "Z"
	if p.Rules[2].Observe["V"] != "I" {
		t.Error("clone shares observe map with original")
	}
	if p.Inv.ValidCopy[0] != "V" {
		t.Error("clone shares invariant slice with original")
	}
	if p.States[0] != "I" {
		t.Error("clone shares state slice with original")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("original corrupted by clone mutation: %v", err)
	}
}

func TestGuardStringForms(t *testing.T) {
	cases := []struct {
		g    Guard
		want string
	}{
		{Always(), "true"},
		{AnyOther("A", "B"), "∃other∈{A,B}"},
		{NoOther("C"), "∄other∈{C}"},
	}
	for _, tc := range cases {
		if got := tc.g.String(); got != tc.want {
			t.Errorf("Guard.String() = %q, want %q", got, tc.want)
		}
	}
}

func TestEnumStringers(t *testing.T) {
	if CharNull.String() != "null" || CharSharing.String() != "sharing-detection" {
		t.Error("CharKind strings wrong")
	}
	if SrcNone.String() != "none" || SrcKeep.String() != "keep" ||
		SrcMemory.String() != "memory" || SrcCache.String() != "cache" {
		t.Error("DataSource strings wrong")
	}
	if GuardAlways.String() != "always" || GuardAnyOther.String() != "any-other" ||
		GuardNoOther.String() != "no-other" {
		t.Error("GuardKind strings wrong")
	}
	for _, k := range []ViolationKind{ViolationNone, ViolationExclusive,
		ViolationOwners, ViolationStaleRead, ViolationCleanShared} {
		if strings.Contains(k.String(), "ViolationKind(") {
			t.Errorf("missing String case for %d", int(k))
		}
	}
}

// TestValidateRejectsDuplicateInvariantState: a state listed twice in one
// invariant set is a typed error for every set. A repeated owner used to
// make the checkers pair the state with itself and report a coexistence
// no concretization has.
func TestValidateRejectsDuplicateInvariantState(t *testing.T) {
	for _, tc := range []struct {
		set    string
		mutate func(*Invariants)
	}{
		{"Exclusive", func(inv *Invariants) { inv.Exclusive = []State{"V", "V"} }},
		{"Owners", func(inv *Invariants) { inv.Owners = []State{"V", "V"} }},
		{"Readable", func(inv *Invariants) { inv.Readable = []State{"V", "V"} }},
		{"ValidCopy", func(inv *Invariants) { inv.ValidCopy = []State{"V", "V"} }},
		{"CleanShared", func(inv *Invariants) { inv.CleanShared = []State{"V", "I", "V"} }},
	} {
		t.Run(tc.set, func(t *testing.T) {
			p := miniProtocol()
			tc.mutate(&p.Inv)
			var dup *DuplicateInvariantError
			if err := p.Validate(); !errors.As(err, &dup) {
				t.Fatalf("want *DuplicateInvariantError, got %v", err)
			}
			if dup.Set != tc.set || dup.State != "V" || dup.Protocol != "Mini" {
				t.Fatalf("error fields = %+v, want set %s state V", dup, tc.set)
			}
		})
	}
}
