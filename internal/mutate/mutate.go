// Package mutate injects protocol design faults. Each mutation operator
// produces a plausible-but-wrong variant of a correct protocol — the kind of
// bug the paper's verification method is meant to catch at the early design
// stage (a forgotten invalidation, a skipped write-back, a block loaded in
// an exclusive state while copies exist elsewhere). The test suite and the
// mutant-detection experiment verify that the symbolic verifier flags every
// mutant as erroneous while the original verifies cleanly.
package mutate

import (
	"fmt"

	"repro/internal/fsm"
)

// Mutant pairs a mutated protocol with what was broken.
type Mutant struct {
	// Protocol is the mutated clone; its Name is suffixed with the
	// mutation kind.
	Protocol *fsm.Protocol
	// Kind is the mutation operator's name.
	Kind string
	// Rule is the name of the mutated rule.
	Rule string
	// Detail describes the injected fault.
	Detail string
	// NeedsStrict is true when only the strict (CleanShared) extension
	// check can see the fault symbolically.
	NeedsStrict bool
}

// Operator transforms one rule in place, returning a description, or false
// when it does not apply to the rule. An operator that returns false has
// not touched the rule or the protocol, which lets Catalog try the next
// pair on the same clone.
type operator struct {
	kind  string
	apply func(p *fsm.Protocol, r *fsm.Rule) (string, bool)
}

var operators = []operator{
	{
		// A write that forgets to invalidate (or degrade) remote copies:
		// the classic coherence bug. Remote caches keep readable stale
		// copies.
		kind: "drop-invalidation",
		apply: func(p *fsm.Protocol, r *fsm.Rule) (string, bool) {
			if r.On != fsm.OpWrite || len(r.Observe) == 0 {
				return "", false
			}
			killed := false
			for from, to := range r.Observe {
				if p.IsValidCopy(from) && !p.IsValidCopy(to) {
					killed = true
				}
			}
			if !killed {
				return "", false
			}
			r.Observe = nil
			return "write no longer invalidates remote copies", true
		},
	},
	{
		// A replacement that forgets to write a dirty block back: memory
		// keeps the obsolete value and later misses read it.
		kind: "skip-writeback",
		apply: func(p *fsm.Protocol, r *fsm.Rule) (string, bool) {
			if r.On != fsm.OpReplace || !r.Data.WriteBackSelf {
				return "", false
			}
			r.Data.WriteBackSelf = false
			return "dirty replacement no longer updates memory", true
		},
	},
	{
		// A miss serviced by a dirty owner without the simultaneous memory
		// update: the copies are clean-state but memory is stale, and once
		// they are silently replaced the stale memory value resurfaces.
		kind: "skip-supplier-writeback",
		apply: func(p *fsm.Protocol, r *fsm.Rule) (string, bool) {
			if !r.Data.SupplierWriteBack {
				return "", false
			}
			// Only meaningful when the copies end in states that replace
			// silently; keep it general and let the verifier decide.
			if r.Data.Store {
				return "", false // the store already obsoletes memory
			}
			r.Data.SupplierWriteBack = false
			return "dirty supplier no longer updates memory on a read miss", true
		},
	},
	{
		// A broadcast write that forgets to update the other cached
		// copies: sharers keep readable stale data.
		kind: "forget-update-sharers",
		apply: func(p *fsm.Protocol, r *fsm.Rule) (string, bool) {
			if !r.Data.Store || !r.Data.UpdateSharers {
				return "", false
			}
			r.Data.UpdateSharers = false
			return "broadcast write no longer updates remote copies", true
		},
	},
	{
		// A write-through that silently stops reaching memory.
		kind: "forget-write-through",
		apply: func(p *fsm.Protocol, r *fsm.Rule) (string, bool) {
			if !r.Data.Store || !r.Data.WriteThrough {
				return "", false
			}
			r.Data.WriteThrough = false
			return "write-through no longer updates memory", true
		},
	},
	{
		// A read miss that loads the block in an exclusive state although
		// other copies exist (wrong use of the sharing-detection function).
		kind: "exclusive-on-shared-miss",
		apply: func(p *fsm.Protocol, r *fsm.Rule) (string, bool) {
			if p.Characteristic != fsm.CharSharing {
				return "", false // would break CharNull validation
			}
			if r.On != fsm.OpRead || r.Guard.Kind != fsm.GuardAnyOther {
				return "", false
			}
			if len(p.Inv.Exclusive) == 0 || p.IsValidCopy(r.From) {
				return "", false // only read misses qualify
			}
			excl := p.Inv.Exclusive[0]
			if r.Next == excl {
				return "", false
			}
			r.Next = excl
			return fmt.Sprintf("read miss loads %s although remote copies exist", excl), true
		},
	},
}

// Catalog generates every applicable mutant of p. Each mutation changes
// exactly one rule; the first rule each operator applies to is mutated.
// All returned protocols pass Validate (mutations that would not are
// skipped), so the verifier sees them as legitimate — but wrong — designs.
func Catalog(p *fsm.Protocol) []Mutant {
	var out []Mutant
	// scratch is the clone the next (operator, rule) pair is tried on. A
	// pair that does not apply leaves it untouched, so p is cloned again
	// only after a mutation has landed in scratch.
	var scratch *fsm.Protocol
	for _, op := range operators {
		for ri := range p.Rules {
			if scratch == nil {
				scratch = p.Clone()
			}
			scratch.Name = p.Name + "!" + op.kind
			detail, ok := op.apply(scratch, &scratch.Rules[ri])
			if !ok {
				continue
			}
			clone := scratch
			scratch = nil
			if clone.Validate() != nil {
				continue
			}
			out = append(out, Mutant{
				Protocol: clone,
				Kind:     op.kind,
				Rule:     p.Rules[ri].Name,
				Detail:   detail,
			})
			break // one mutant per operator kind
		}
	}
	return out
}
