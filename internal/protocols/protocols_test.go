package protocols

import (
	"strings"
	"testing"

	"repro/internal/fsm"
)

func TestAllProtocolsValidate(t *testing.T) {
	for _, p := range All() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestRegistryNamesSortedAndComplete(t *testing.T) {
	names := Names()
	want := []string{"berkeley", "dragon", "firefly", "illinois", "lock-msi", "mesi", "mesif", "moesi", "msi", "synapse", "write-once", "write-through"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
}

func TestByNameLookupVariants(t *testing.T) {
	for _, variant := range []string{"illinois", "Illinois", "ILLINOIS", " illinois "} {
		p, err := ByName(variant)
		if err != nil {
			t.Errorf("ByName(%q): %v", variant, err)
			continue
		}
		if p.Name != "Illinois" {
			t.Errorf("ByName(%q) = %s", variant, p.Name)
		}
	}
	for _, variant := range []string{"write-once", "Write-Once", "write_once", "write once"} {
		if _, err := ByName(variant); err != nil {
			t.Errorf("ByName(%q): %v", variant, err)
		}
	}
	if _, err := ByName("tokyo"); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Errorf("ByName(tokyo) = %v, want unknown-protocol error", err)
	}
}

func TestByNameReturnsFreshInstances(t *testing.T) {
	a, _ := ByName("illinois")
	b, _ := ByName("illinois")
	if a == b {
		t.Fatal("ByName must return fresh instances")
	}
	a.Rules[0].Next = "Dirty"
	if b.Rules[0].Next == "Dirty" {
		t.Fatal("instances must be independent")
	}
}

func TestProtocolShapes(t *testing.T) {
	cases := []struct {
		name       string
		states     int
		rules      int
		char       fsm.CharKind
		exclusive  int
		owners     int
		hasInitial fsm.State
	}{
		{"illinois", 4, 15, fsm.CharSharing, 2, 1, "Invalid"},
		{"write-once", 4, 13, fsm.CharNull, 2, 1, "Invalid"},
		{"synapse", 3, 10, fsm.CharNull, 1, 1, "Invalid"},
		{"berkeley", 4, 13, fsm.CharNull, 1, 2, "Invalid"},
		{"firefly", 4, 16, fsm.CharSharing, 2, 1, "Invalid"},
		{"dragon", 5, 20, fsm.CharSharing, 2, 2, "Invalid"},
		{"msi", 3, 10, fsm.CharNull, 1, 1, "Invalid"},
		{"write-through", 2, 5, fsm.CharNull, 0, 0, "Invalid"},
	}
	for _, tc := range cases {
		p, err := ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(p.States); got != tc.states {
			t.Errorf("%s: %d states, want %d", tc.name, got, tc.states)
		}
		if got := len(p.Rules); got != tc.rules {
			t.Errorf("%s: %d rules, want %d", tc.name, got, tc.rules)
		}
		if p.Characteristic != tc.char {
			t.Errorf("%s: characteristic %v, want %v", tc.name, p.Characteristic, tc.char)
		}
		if got := len(p.Inv.Exclusive); got != tc.exclusive {
			t.Errorf("%s: %d exclusive states, want %d", tc.name, got, tc.exclusive)
		}
		if got := len(p.Inv.Owners); got != tc.owners {
			t.Errorf("%s: %d owner states, want %d", tc.name, got, tc.owners)
		}
		if p.Initial != tc.hasInitial {
			t.Errorf("%s: initial %s", tc.name, p.Initial)
		}
	}
}

func TestEveryValidStateIsReadable(t *testing.T) {
	// In all of these protocols a processor can read any resident copy.
	for _, p := range All() {
		readable := map[fsm.State]bool{}
		for _, s := range p.Inv.Readable {
			readable[s] = true
		}
		for _, s := range p.Inv.ValidCopy {
			if !readable[s] {
				t.Errorf("%s: valid state %s is not readable", p.Name, s)
			}
		}
	}
}

func TestEveryProtocolHasReplacementForDirtyStates(t *testing.T) {
	// Every owner state must have a replacement rule, and owners that are
	// not memory-consistent (not in CleanShared) must write back. (MESIF's
	// Forward state is a clean owner: uniqueness only, silent eviction.)
	for _, p := range All() {
		clean := map[fsm.State]bool{}
		for _, s := range p.Inv.CleanShared {
			clean[s] = true
		}
		for _, s := range p.Inv.Owners {
			rules := p.RulesFor(s, fsm.OpReplace)
			switch len(rules) {
			case 0:
				// Pinned states (Lock-MSI's Locked) are never replaced.
				if s != LkLocked {
					t.Errorf("%s: owner state %s has no replacement rule", p.Name, s)
				}
			case 1:
				if !clean[s] && !rules[0].Data.WriteBackSelf {
					t.Errorf("%s: replacing dirty owner state %s must write back", p.Name, s)
				}
			default:
				t.Errorf("%s: owner state %s has %d replacement rules", p.Name, s, len(rules))
			}
		}
	}
}

func TestIllinoisMatchesPaperFigure1(t *testing.T) {
	// The per-cache transitions of Figure 1, spelled out.
	p := Illinois()
	type edge struct {
		from fsm.State
		op   fsm.Op
		next fsm.State
	}
	want := []edge{
		{"Invalid", fsm.OpRead, "Valid-Exclusive"}, // read miss, not shared
		{"Invalid", fsm.OpRead, "Shared"},          // read miss, shared
		{"Invalid", fsm.OpWrite, "Dirty"},          // write miss
		{"Valid-Exclusive", fsm.OpRead, "Valid-Exclusive"},
		{"Valid-Exclusive", fsm.OpWrite, "Dirty"},
		{"Valid-Exclusive", fsm.OpReplace, "Invalid"},
		{"Shared", fsm.OpRead, "Shared"},
		{"Shared", fsm.OpWrite, "Dirty"},
		{"Shared", fsm.OpReplace, "Invalid"},
		{"Dirty", fsm.OpRead, "Dirty"},
		{"Dirty", fsm.OpWrite, "Dirty"},
		{"Dirty", fsm.OpReplace, "Invalid"},
	}
	for _, e := range want {
		found := false
		for _, r := range p.RulesFor(e.from, e.op) {
			if r.Next == e.next {
				found = true
			}
		}
		if !found {
			t.Errorf("missing Figure 1 transition %s --%s--> %s", e.from, e.op, e.next)
		}
	}
}

func TestWriteOnceFirstWriteIsWriteThrough(t *testing.T) {
	p := WriteOnce()
	rules := p.RulesFor("Valid", fsm.OpWrite)
	if len(rules) != 1 {
		t.Fatalf("want one write-hit rule on Valid, got %d", len(rules))
	}
	r := rules[0]
	if r.Next != "Reserved" {
		t.Errorf("the write-once must leave the block Reserved, got %s", r.Next)
	}
	if !r.Data.WriteThrough || !r.Data.Store {
		t.Error("the write-once must write through to memory")
	}
	// Second write: Reserved -> Dirty without bus traffic.
	rules = p.RulesFor("Reserved", fsm.OpWrite)
	if len(rules) != 1 || rules[0].Next != "Dirty" || rules[0].Data.WriteThrough {
		t.Error("the second write must be a local upgrade to Dirty")
	}
}

func TestSynapseDirtyOwnerYieldsToMemory(t *testing.T) {
	// Synapse's signature behavior: on a read miss the Dirty holder writes
	// back and invalidates itself.
	p := Synapse()
	for _, r := range p.RulesFor("Invalid", fsm.OpRead) {
		if r.ObservedNext("Dirty") != "Invalid" {
			t.Errorf("rule %s: a bus read must invalidate the Dirty holder, got %s",
				r.Name, r.ObservedNext("Dirty"))
		}
	}
}

func TestBerkeleyOwnerSuppliesWithoutMemoryUpdate(t *testing.T) {
	p := Berkeley()
	var owned *fsm.Rule
	for _, r := range p.RulesFor("Invalid", fsm.OpRead) {
		if r.Guard.Kind == fsm.GuardAnyOther {
			owned = r
		}
	}
	if owned == nil {
		t.Fatal("missing owned read-miss rule")
	}
	if owned.Data.SupplierWriteBack {
		t.Error("Berkeley owners supply without updating memory")
	}
	if owned.ObservedNext("Dirty") != "Shared-Dirty" {
		t.Error("the owner must degrade to Shared-Dirty on a bus read")
	}
}

func TestFireflyNeverInvalidates(t *testing.T) {
	p := Firefly()
	for _, r := range p.Rules {
		if r.On == fsm.OpReplace {
			continue
		}
		for from, to := range r.Observe {
			if p.IsValidCopy(from) && !p.IsValidCopy(to) {
				t.Errorf("Firefly rule %s invalidates %s", r.Name, from)
			}
		}
	}
}

func TestFireflySharedWritesAreWriteThrough(t *testing.T) {
	p := Firefly()
	for _, r := range p.RulesFor("Shared", fsm.OpWrite) {
		if !r.Data.WriteThrough {
			t.Errorf("rule %s: Firefly shared writes must update memory", r.Name)
		}
	}
}

func TestDragonSharedWritesSkipMemory(t *testing.T) {
	p := Dragon()
	for _, r := range p.RulesFor("Shared-Clean", fsm.OpWrite) {
		if r.Data.WriteThrough {
			t.Errorf("rule %s: Dragon shared writes must NOT update memory", r.Name)
		}
	}
	// The writer takes ownership when sharers remain.
	var line *fsm.Rule
	for _, r := range p.RulesFor("Shared-Clean", fsm.OpWrite) {
		if r.Guard.Kind == fsm.GuardAnyOther {
			line = r
		}
	}
	if line == nil || line.Next != "Shared-Dirty" {
		t.Fatal("a shared write with the line asserted must take ownership (Shared-Dirty)")
	}
	if line.ObservedNext("Shared-Dirty") != "Shared-Clean" {
		t.Error("the previous owner must yield ownership")
	}
}

func TestDragonNeverInvalidates(t *testing.T) {
	p := Dragon()
	for _, r := range p.Rules {
		if r.On == fsm.OpReplace {
			continue
		}
		for from, to := range r.Observe {
			if p.IsValidCopy(from) && !p.IsValidCopy(to) {
				t.Errorf("Dragon rule %s invalidates %s", r.Name, from)
			}
		}
	}
}

func TestInvalidateProtocolsHaveInvalidationOnWrite(t *testing.T) {
	for _, name := range []string{"illinois", "write-once", "synapse", "berkeley", "msi"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range p.Rules {
			if r.On != fsm.OpWrite {
				continue
			}
			for from, to := range r.Observe {
				if p.IsValidCopy(from) && !p.IsValidCopy(to) {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("%s: no write rule invalidates remote copies", name)
		}
	}
}
