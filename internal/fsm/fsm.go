package fsm

import (
	"fmt"
	"slices"
	"strings"
)

// State is a symbolic per-cache state such as "Invalid" or "Dirty".
type State string

// Op is an operation from Σ that a processor applies to its local cache.
type Op string

// The three operations used by every protocol in Archibald & Baer's survey
// and in the paper: processor read, processor write, and block replacement.
const (
	OpRead    Op = "R"
	OpWrite   Op = "W"
	OpReplace Op = "Z"
)

// CharKind identifies the characteristic function F of the protocol
// (Definition 1). The paper restricts F to either the null function or the
// sharing-detection function of Section 2.1.
type CharKind int

const (
	// CharNull means transitions depend only on the local cache state and
	// the operation. Containment degrades to structural covering
	// (Corollary 1).
	CharNull CharKind = iota
	// CharSharing means transitions may depend on the sharing-detection
	// function: whether any OTHER cache holds a valid copy. The symbolic
	// engine then tracks the copy-count classification of Appendix A.1
	// (v1: no copy, v2: one copy, v3: two or more copies).
	CharSharing
)

func (c CharKind) String() string {
	switch c {
	case CharNull:
		return "null"
	case CharSharing:
		return "sharing-detection"
	default:
		return fmt.Sprintf("CharKind(%d)", int(c))
	}
}

// GuardKind classifies the condition under which a Rule fires.
type GuardKind int

const (
	// GuardAlways fires unconditionally.
	GuardAlways GuardKind = iota
	// GuardAnyOther fires when at least one other cache is in one of the
	// guard's states.
	GuardAnyOther
	// GuardNoOther fires when no other cache is in any of the guard's
	// states.
	GuardNoOther
)

func (g GuardKind) String() string {
	switch g {
	case GuardAlways:
		return "always"
	case GuardAnyOther:
		return "any-other"
	case GuardNoOther:
		return "no-other"
	default:
		return fmt.Sprintf("GuardKind(%d)", int(g))
	}
}

// Guard is a predicate over the states of all caches other than the
// originator. It generalizes the sharing-detection function f_i of Section
// 2.1: f_i is GuardAnyOther over the set of valid-copy states.
type Guard struct {
	Kind   GuardKind
	States []State // states tested by AnyOther / NoOther; ignored for Always
}

// Always is the unconditional guard.
func Always() Guard { return Guard{Kind: GuardAlways} }

// AnyOther returns a guard satisfied when another cache is in one of states.
func AnyOther(states ...State) Guard {
	return Guard{Kind: GuardAnyOther, States: states}
}

// NoOther returns a guard satisfied when no other cache is in any of states.
func NoOther(states ...State) Guard {
	return Guard{Kind: GuardNoOther, States: states}
}

func (g Guard) String() string {
	switch g.Kind {
	case GuardAlways:
		return "true"
	case GuardAnyOther:
		return "∃other∈" + stateSetString(g.States)
	case GuardNoOther:
		return "∄other∈" + stateSetString(g.States)
	default:
		return g.Kind.String()
	}
}

func stateSetString(states []State) string {
	parts := make([]string, len(states))
	for i, s := range states {
		parts[i] = string(s)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// DataSource says where the originating cache's data copy comes from when a
// rule fires, before any store is applied. It drives the context-variable
// updates of Definition 4 / Section 2.4.
type DataSource int

const (
	// SrcNone: the originator ends up without a data copy (replacement,
	// invalidation).
	SrcNone DataSource = iota
	// SrcKeep: the originator keeps its current copy (hit).
	SrcKeep
	// SrcMemory: the block is loaded from main memory (cdata := mdata).
	SrcMemory
	// SrcCache: the block is supplied by another cache whose state is in
	// the rule's Suppliers set (cdata_i := cdata_j).
	SrcCache
)

func (s DataSource) String() string {
	switch s {
	case SrcNone:
		return "none"
	case SrcKeep:
		return "keep"
	case SrcMemory:
		return "memory"
	case SrcCache:
		return "cache"
	default:
		return fmt.Sprintf("DataSource(%d)", int(s))
	}
}

// DataEffect specifies the data-transfer semantics of a rule, used to update
// the context variables (cdata_i, mdata) of Definition 4. Effects apply in
// this order:
//
//  1. The originator acquires data per Source (from memory, from a supplier
//     cache, kept, or none). If SupplierWriteBack is set, the supplier also
//     updates memory during the transfer (mdata := cdata_supplier), as in
//     the Illinois read miss serviced by a Dirty cache.
//  2. If Store is set, the processor writes a new value: every fresh copy
//     anywhere (cache or memory) first becomes obsolete, then the
//     originator's copy becomes fresh. WriteThrough additionally makes
//     memory fresh (write-broadcast protocols); UpdateSharers makes every
//     other cache that retains a valid copy fresh as well (Firefly/Dragon
//     bus update).
//  3. If WriteBackSelf is set, the originator flushes its copy to memory
//     (mdata := cdata_i), as on replacement of a Dirty block.
//  4. If DropSelf is set, the originator's copy leaves the cache
//     (cdata_i := nodata).
type DataEffect struct {
	Source            DataSource
	Suppliers         []State // candidate supplier states for SrcCache
	SupplierWriteBack bool
	Store             bool
	WriteThrough      bool
	UpdateSharers     bool
	WriteBackSelf     bool
	DropSelf          bool
	// Spin marks a rule whose operation does NOT complete: the requester
	// backs off and will retry (e.g. a lock acquire finding the block
	// locked elsewhere). A spinning read returns no data, so the stale-read
	// check does not apply to it. Spin rules must leave the originator in
	// its current state.
	Spin bool
}

// Rule is one guarded transition of the protocol from the perspective of the
// originating cache. It combines the paper's transition function δ with the
// coincident transitions forced on the other caches (expansion rules 2 and 3
// of Section 3.2.3) and the data effects of Section 2.4.
type Rule struct {
	// Name identifies the rule in diagnostics, e.g. "read-miss-shared".
	Name string
	// From is the originator's current state; On is the operation.
	From State
	On   Op
	// Guard conditions the rule on the states of the other caches. For a
	// given (From, On) pair the guards of all rules must partition the
	// possible configurations (checked by Validate).
	Guard Guard
	// Next is the originator's next state.
	Next State
	// Observe maps the state of every other cache to its coincident next
	// state. States absent from the map are unchanged. (Example: an
	// Illinois write miss maps every valid state to Invalid.)
	Observe map[State]State
	// Data describes the data-transfer side effects.
	Data DataEffect
}

// ObservedNext returns the coincident next state for another cache currently
// in state s when this rule fires.
func (r *Rule) ObservedNext(s State) State {
	if r.Observe != nil {
		if t, ok := r.Observe[s]; ok {
			return t
		}
	}
	return s
}

// Invariants declares the correctness conditions of a protocol, evaluated
// over every reachable (composite or concrete) global state.
type Invariants struct {
	// Exclusive lists states that must be the unique valid copy: a cache in
	// such a state may not coexist with any other valid copy (Illinois:
	// Dirty and Valid-Exclusive).
	Exclusive []State
	// Owners lists ownership states: at most one cache in total may be in
	// any of them (Berkeley: Dirty, Shared-Dirty).
	Owners []State
	// Readable lists states in which a processor read hits on the local
	// copy; Definition 3 (data consistency) requires that no cache in a
	// readable state holds an obsolete value.
	Readable []State
	// ValidCopy lists every state that denotes "this cache holds a copy of
	// the block"; its complement (typically just Invalid) means the block
	// is absent or invalidated. The sharing-detection function is
	// GuardAnyOther over this set.
	ValidCopy []State
	// CleanShared optionally lists states asserting the copy is identical
	// to main memory (Illinois: Shared, Valid-Exclusive). When non-empty,
	// the verifier additionally flags states where such a copy coexists
	// with obsolete memory. This is a strengthening beyond the paper used
	// by the ablation benchmarks.
	CleanShared []State
}

// DuplicateInvariantError reports a state listed twice in one invariant
// set. The sets are sets: a repeated entry would make the pairwise checks
// pair the state with itself and report a coexistence that no
// concretization has.
type DuplicateInvariantError struct {
	Protocol string
	// Set names the invariant set: Exclusive, Owners, Readable, ValidCopy
	// or CleanShared.
	Set   string
	State State
}

func (e *DuplicateInvariantError) Error() string {
	return fmt.Sprintf("fsm: protocol %s: state %q listed twice in the %s invariant set", e.Protocol, e.State, e.Set)
}

// Protocol is a complete behavioral protocol specification.
type Protocol struct {
	// Name is the protocol's conventional name, e.g. "Illinois".
	Name string
	// States is Q; the order fixes the canonical class order in composite
	// states and reports.
	States []State
	// Initial is the per-cache initial state; the system starts with every
	// cache in this state and memory fresh (the paper's (Invalid⁺) start).
	Initial State
	// Ops is Σ.
	Ops []Op
	// Rules is the transition relation δ plus coincident and data effects.
	Rules []Rule
	// Characteristic is F (Definition 1).
	Characteristic CharKind
	// Inv declares the correctness invariants.
	Inv Invariants

	index     map[State]int
	ruleIndex map[ruleKey][]*Rule
	validSet  map[State]bool
}

type ruleKey struct {
	from State
	on   Op
}

// StateIndex returns the position of s in the protocol's canonical state
// order, or -1 when s is not a declared state.
func (p *Protocol) StateIndex(s State) int {
	p.ensureIndex()
	if i, ok := p.index[s]; ok {
		return i
	}
	return -1
}

// NumStates returns |Q|.
func (p *Protocol) NumStates() int { return len(p.States) }

// IsValidCopy reports whether state s denotes a held copy of the block.
func (p *Protocol) IsValidCopy(s State) bool {
	p.ensureIndex()
	return p.validSet[s]
}

// RulesFor returns the rules matching an originator in state from applying
// op, in declaration order. An empty result means the operation is a no-op
// in that state (e.g. replacement of an Invalid block).
//
// Deprecated for hot paths: engines should dispatch through the shared
// compiled representation (compile.Compile, then Protocol.RuleIDs), which
// resolves this lookup into dense jump tables once per protocol. RulesFor
// remains the authoritative declaration-order index for construction-time
// and diagnostic use, and is what the compiler itself lowers from.
func (p *Protocol) RulesFor(from State, op Op) []*Rule {
	p.ensureIndex()
	return p.ruleIndex[ruleKey{from, op}]
}

func (p *Protocol) ensureIndex() {
	if p.index != nil {
		return
	}
	p.index = make(map[State]int, len(p.States))
	for i, s := range p.States {
		p.index[s] = i
	}
	p.validSet = make(map[State]bool, len(p.Inv.ValidCopy))
	for _, s := range p.Inv.ValidCopy {
		p.validSet[s] = true
	}
	p.ruleIndex = make(map[ruleKey][]*Rule)
	for i := range p.Rules {
		r := &p.Rules[i]
		k := ruleKey{r.From, r.On}
		p.ruleIndex[k] = append(p.ruleIndex[k], r)
	}
}

// Validate checks the well-formedness of the protocol definition and returns
// a descriptive error for the first problem found. A valid protocol:
//
//   - declares at least two states and one operation, with no duplicates;
//   - has an Initial state outside the valid-copy set;
//   - references only declared states in rules, guards, observe maps,
//     suppliers and invariants, and lists no state twice in one invariant
//     set (a *DuplicateInvariantError);
//   - for every (From, On) pair, has guards forming a partition: at most
//     one Always rule and no Always rule alongside conditional ones, and
//     AnyOther/NoOther rules pairing over identical state sets;
//   - if Characteristic is CharNull, has Next and Observe independent of
//     the guard for each (From, On) pair (Corollary 1's premise);
//   - declares a non-empty ValidCopy set disjoint from {Initial}.
func (p *Protocol) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("fsm: protocol has no name")
	}
	if len(p.States) < 2 {
		return fmt.Errorf("fsm: protocol %s: need at least two states", p.Name)
	}
	if len(p.Ops) == 0 {
		return fmt.Errorf("fsm: protocol %s: no operations", p.Name)
	}
	seen := make(map[State]bool)
	for _, s := range p.States {
		if s == "" {
			return fmt.Errorf("fsm: protocol %s: empty state name", p.Name)
		}
		if seen[s] {
			return fmt.Errorf("fsm: protocol %s: duplicate state %q", p.Name, s)
		}
		seen[s] = true
	}
	seenOp := make(map[Op]bool)
	for _, op := range p.Ops {
		if op == "" {
			return fmt.Errorf("fsm: protocol %s: empty operation name", p.Name)
		}
		if seenOp[op] {
			return fmt.Errorf("fsm: protocol %s: duplicate operation %q", p.Name, op)
		}
		seenOp[op] = true
	}
	if !seen[p.Initial] {
		return fmt.Errorf("fsm: protocol %s: initial state %q not declared", p.Name, p.Initial)
	}
	if len(p.Inv.ValidCopy) == 0 {
		return fmt.Errorf("fsm: protocol %s: empty ValidCopy invariant set", p.Name)
	}
	checkSet := func(where string, states []State) error {
		for _, s := range states {
			if !seen[s] {
				return fmt.Errorf("fsm: protocol %s: %s references undeclared state %q", p.Name, where, s)
			}
		}
		return nil
	}
	for _, inv := range []struct {
		name   string
		states []State
	}{
		{"Exclusive", p.Inv.Exclusive},
		{"Owners", p.Inv.Owners},
		{"Readable", p.Inv.Readable},
		{"ValidCopy", p.Inv.ValidCopy},
		{"CleanShared", p.Inv.CleanShared},
	} {
		if err := checkSet(inv.name, inv.states); err != nil {
			return err
		}
		for i, s := range inv.states {
			if slices.Contains(inv.states[:i], s) {
				return &DuplicateInvariantError{Protocol: p.Name, Set: inv.name, State: s}
			}
		}
	}
	for _, s := range p.Inv.ValidCopy {
		if s == p.Initial {
			return fmt.Errorf("fsm: protocol %s: initial state %q must not be a valid-copy state", p.Name, s)
		}
	}

	byKey := make(map[ruleKey][]*Rule)
	for i := range p.Rules {
		r := &p.Rules[i]
		if r.Name == "" {
			return fmt.Errorf("fsm: protocol %s: rule %d has no name", p.Name, i)
		}
		if !seen[r.From] {
			return fmt.Errorf("fsm: protocol %s: rule %s: undeclared From state %q", p.Name, r.Name, r.From)
		}
		if !seenOp[r.On] {
			return fmt.Errorf("fsm: protocol %s: rule %s: undeclared operation %q", p.Name, r.Name, r.On)
		}
		if !seen[r.Next] {
			return fmt.Errorf("fsm: protocol %s: rule %s: undeclared Next state %q", p.Name, r.Name, r.Next)
		}
		if err := checkSet("rule "+r.Name+" guard", r.Guard.States); err != nil {
			return err
		}
		if r.Guard.Kind != GuardAlways && len(r.Guard.States) == 0 {
			return fmt.Errorf("fsm: protocol %s: rule %s: conditional guard with empty state set", p.Name, r.Name)
		}
		for from, to := range r.Observe {
			if !seen[from] || !seen[to] {
				return fmt.Errorf("fsm: protocol %s: rule %s: observe %q->%q references undeclared state", p.Name, r.Name, from, to)
			}
		}
		if err := checkSet("rule "+r.Name+" suppliers", r.Data.Suppliers); err != nil {
			return err
		}
		if r.Data.Source == SrcCache && len(r.Data.Suppliers) == 0 {
			return fmt.Errorf("fsm: protocol %s: rule %s: SrcCache with no supplier states", p.Name, r.Name)
		}
		if r.Data.Source != SrcCache && len(r.Data.Suppliers) != 0 {
			return fmt.Errorf("fsm: protocol %s: rule %s: suppliers given but Source is %v", p.Name, r.Name, r.Data.Source)
		}
		if r.Data.DropSelf && p.IsValidCopy(r.Next) {
			return fmt.Errorf("fsm: protocol %s: rule %s: DropSelf but Next %q is a valid-copy state", p.Name, r.Name, r.Next)
		}
		if r.Data.Spin {
			if r.Next != r.From {
				return fmt.Errorf("fsm: protocol %s: rule %s: Spin rules must stay in place (Next %q != From %q)",
					p.Name, r.Name, r.Next, r.From)
			}
			if r.Data.Store || r.Data.DropSelf || r.Data.WriteBackSelf ||
				r.Data.Source != SrcNone && r.Data.Source != SrcKeep {
				return fmt.Errorf("fsm: protocol %s: rule %s: Spin rules must have no data side effects", p.Name, r.Name)
			}
		}
		k := ruleKey{r.From, r.On}
		byKey[k] = append(byKey[k], r)
	}

	for k, rules := range byKey {
		if err := p.validateGuardPartition(k, rules); err != nil {
			return err
		}
		if p.Characteristic == CharNull && len(rules) > 1 {
			first := rules[0]
			for _, r := range rules[1:] {
				if r.Next != first.Next {
					return fmt.Errorf("fsm: protocol %s: null characteristic function but rules %s and %s give different next states for (%s,%s)",
						p.Name, first.Name, r.Name, k.from, k.on)
				}
				if !sameObserve(first.Observe, r.Observe, p.States) {
					return fmt.Errorf("fsm: protocol %s: null characteristic function but rules %s and %s observe differently for (%s,%s)",
						p.Name, first.Name, r.Name, k.from, k.on)
				}
			}
		}
	}
	return nil
}

func (p *Protocol) validateGuardPartition(k ruleKey, rules []*Rule) error {
	if len(rules) == 1 {
		return nil
	}
	// More than one rule: no Always allowed, and conditional guards must be
	// pairwise disjoint. We accept the common patterns:
	//   {AnyOther(S), NoOther(S)} over the same set S, and
	//   {AnyOther(S1), AnyOther(S2)\S1, ..., NoOther(S1∪S2∪...)} expressed
	// as an ordered cascade (first match wins at evaluation time). To stay
	// simple and safe we only verify that no two rules are both Always and
	// that the final rule set is evaluable in declaration order.
	for _, r := range rules {
		if r.Guard.Kind == GuardAlways {
			return fmt.Errorf("fsm: protocol %s: (%s,%s): unconditional rule %s coexists with other rules; use guards",
				p.Name, k.from, k.on, r.Name)
		}
	}
	// Require that the last rule's guard complements something: at least
	// one NoOther guard must be present so the cascade is total whenever
	// any rule should fire. (Protocols wanting partial applicability
	// simply omit all rules for the pair.)
	hasNoOther := false
	for _, r := range rules {
		if r.Guard.Kind == GuardNoOther {
			hasNoOther = true
		}
	}
	if !hasNoOther {
		return fmt.Errorf("fsm: protocol %s: (%s,%s): guard cascade has no NoOther fallback; cascade may be partial",
			p.Name, k.from, k.on)
	}
	return nil
}

func sameObserve(a, b map[State]State, states []State) bool {
	get := func(m map[State]State, s State) State {
		if m != nil {
			if t, ok := m[s]; ok {
				return t
			}
		}
		return s
	}
	for _, s := range states {
		if get(a, s) != get(b, s) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the protocol, detached from the receiver's
// internal indexes. Mutation operators (internal/mutate) work on clones.
func (p *Protocol) Clone() *Protocol {
	q := &Protocol{
		Name:           p.Name,
		States:         append([]State(nil), p.States...),
		Initial:        p.Initial,
		Ops:            append([]Op(nil), p.Ops...),
		Characteristic: p.Characteristic,
		Inv: Invariants{
			Exclusive:   append([]State(nil), p.Inv.Exclusive...),
			Owners:      append([]State(nil), p.Inv.Owners...),
			Readable:    append([]State(nil), p.Inv.Readable...),
			ValidCopy:   append([]State(nil), p.Inv.ValidCopy...),
			CleanShared: append([]State(nil), p.Inv.CleanShared...),
		},
	}
	q.Rules = make([]Rule, len(p.Rules))
	for i, r := range p.Rules {
		nr := r
		nr.Guard.States = append([]State(nil), r.Guard.States...)
		nr.Data.Suppliers = append([]State(nil), r.Data.Suppliers...)
		if r.Observe != nil {
			nr.Observe = make(map[State]State, len(r.Observe))
			for k, v := range r.Observe {
				nr.Observe[k] = v
			}
		}
		q.Rules[i] = nr
	}
	return q
}
