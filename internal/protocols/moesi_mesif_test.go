package protocols

import (
	"testing"

	"repro/internal/fsm"
)

func TestMOESIModifiedDegradesToOwnedOnBusRead(t *testing.T) {
	p := MOESI()
	var owned *fsm.Rule
	for _, r := range p.RulesFor("Invalid", fsm.OpRead) {
		if r.Guard.Kind == fsm.GuardAnyOther && len(r.Guard.States) == 2 &&
			r.Guard.States[0] == "Owned" {
			owned = r
		}
	}
	if owned == nil {
		t.Fatal("missing owner-serviced read miss")
	}
	if owned.ObservedNext("Modified") != "Owned" {
		t.Errorf("a bus read must degrade Modified to Owned, got %s",
			owned.ObservedNext("Modified"))
	}
	if owned.Data.SupplierWriteBack {
		t.Error("MOESI owners supply without a memory update (that is the point of O)")
	}
}

func TestMOESIOwnedWritesBackOnReplacement(t *testing.T) {
	p := MOESI()
	rules := p.RulesFor("Owned", fsm.OpReplace)
	if len(rules) != 1 || !rules[0].Data.WriteBackSelf {
		t.Fatal("replacing an Owned block must write back")
	}
}

func TestMESIFSharedCopiesNeverSupply(t *testing.T) {
	p := MESIF()
	for _, r := range p.RulesFor("Invalid", fsm.OpRead) {
		for _, s := range r.Data.Suppliers {
			if s == "Shared" {
				t.Errorf("rule %s: plain Shared copies never respond in MESIF", r.Name)
			}
		}
	}
	// The shared-only branch must fetch from memory.
	found := false
	for _, r := range p.RulesFor("Invalid", fsm.OpRead) {
		if r.Guard.Kind == fsm.GuardAnyOther && len(r.Guard.States) == 1 &&
			r.Guard.States[0] == "Shared" {
			found = true
			if r.Data.Source != fsm.SrcMemory {
				t.Error("with only Shared copies present, the miss must be serviced by memory")
			}
			if r.Next != "Forward" {
				t.Error("the requester must pick up the forwarding duty")
			}
		}
	}
	if !found {
		t.Fatal("missing shared-only read-miss branch")
	}
}

func TestMESIFForwarderMovesToRequester(t *testing.T) {
	p := MESIF()
	for _, r := range p.RulesFor("Invalid", fsm.OpRead) {
		if r.Guard.Kind != fsm.GuardAnyOther {
			continue
		}
		for _, s := range r.Guard.States {
			if s == "Forward" {
				if r.ObservedNext("Forward") != "Shared" {
					t.Error("the old forwarder must degrade to Shared")
				}
				if r.Next != "Forward" {
					t.Error("the requester must become the forwarder")
				}
			}
		}
	}
}

func TestMESIFForwardIsCleanOwner(t *testing.T) {
	p := MESIF()
	inOwners, inClean := false, false
	for _, s := range p.Inv.Owners {
		if s == "Forward" {
			inOwners = true
		}
	}
	for _, s := range p.Inv.CleanShared {
		if s == "Forward" {
			inClean = true
		}
	}
	if !inOwners || !inClean {
		t.Fatal("Forward must be declared a clean, unique state")
	}
}
