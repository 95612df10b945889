// Package compile lowers an fsm.Protocol into the one shared compiled
// representation every execution layer runs on: dense integer-indexed jump
// tables ([state][op] → rule IDs) with flat guard, observe and data-source
// arrays. The interpreted protocol keeps string states and lazy map indexes,
// which is the right shape for authoring and reporting; the compiled form is
// the right shape for the hot loops — the simulator's per-reference step
// (millions of refs/sec in trace replay), the enumeration engines'
// successor expansion, and the symbolic engine's pre-resolved rule tables
// all read from it, so a protocol is lowered exactly once per run instead
// of once per consumer.
//
// The semantics of Step are a transliteration of fsm.Step onto integer
// states: identical transition order, identical data-version bookkeeping
// and identical error text, which the compile-parity suite pins across
// every library spec and every mutant.
package compile

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/fsm"
)

// Rule is the index-resolved form of one transition rule. The ID doubles as
// the index into both Protocol.Rules and the source fsm.Protocol.Rules, so
// a compiled result can always be mapped back to its declaration.
type Rule struct {
	// ID is the rule's declaration index.
	ID int32
	// From and Next are the originator's state indexes; Op indexes
	// Protocol.Ops.
	From, Next int32
	Op         int32

	// GuardKind with GuardStates (state indexes) mirrors fsm.Guard.
	// GuardMask has bit s%64 set for every guard state s: the guard set
	// itself when the protocol has at most 64 states (every library
	// protocol and every randproto sweep so far; the symbolic engine's
	// limit), a superset of it folded onto 64 bits otherwise.
	// GuardIsValidSet records whether the set equals the valid-copy set,
	// which lets the symbolic engine's copy-count attribute decide the
	// guard outright.
	GuardKind       fsm.GuardKind
	GuardStates     []int32
	GuardIsValidSet bool
	GuardMask       uint64

	// Obs[c] is the coincident next state of a cache observed in state c;
	// identity entries are materialized so the hot path never consults a
	// map. HasObserve preserves len(rule.Observe) > 0 — the simulator's
	// "this rule broadcasts on the bus" predicate — which is NOT implied by
	// Obs being non-identity (an explicit identity observe still snoops).
	Obs        []int32
	HasObserve bool
	// obsCode[c] is Obs[c] with two flags Fire's observer loop reads in
	// the same load: obsDrop when Obs[c] is not a valid copy, so the
	// observer's data is dropped, and obsIdle when Obs[c] is the initial
	// state, so the observer ends idle.
	obsCode []uint32

	// Kills[c] reports whether the coincident transition invalidates the
	// valid copy of an observer in state c, and Keeps[c] whether an
	// observer in state c holds a valid copy after it (the copies a store
	// with UpdateSharers refreshes). Remote reports whether the rule kills
	// any observer's copy or refreshes sharers, so a caller can skip the
	// observers entirely when it does neither. The simulator reads them to
	// account for a step in one walk before the rule fires; Step does not.
	Kills, Keeps []bool
	Remote       bool

	// TouchesIdle reports whether firing the rule changes an idle cache
	// (see Config): its Obs moves the initial state. A store's sharer
	// refresh never reaches an idle cache that stays put, since the
	// initial state is never a valid copy (fsm.Protocol.Validate). Fire
	// and the simulator visit only the occupied caches for every other
	// rule, and every cache for this one.
	TouchesIdle bool
	// quiet reports whether firing the rule changes no cache but the
	// originator, so Fire skips the observers: Obs is the identity, the
	// rule refreshes no sharers, and no rule of the protocol leaves data
	// in a state that is not a valid copy, so no configuration reachable
	// from NewConfig holds data an observer would drop.
	quiet bool

	// Data-effect fields, flattened from fsm.DataEffect. Suppliers keeps
	// the declared candidate order: supplier choice is order-sensitive.
	Source            fsm.DataSource
	Suppliers         []int32
	SupplierWriteBack bool
	Store             bool
	WriteThrough      bool
	UpdateSharers     bool
	WriteBackSelf     bool
	DropSelf          bool
	Spin              bool
}

// Protocol is the compiled representation of one protocol: every state, op
// and rule resolved to a dense integer index, with the per-(state, op)
// dispatch precomputed. Build one with Compile; the zero value is unusable.
type Protocol struct {
	// Src is the source definition, retained for reporting, error text and
	// mapping rule IDs back to *fsm.Rule. The compiled tables never read
	// its lazy map indexes.
	Src *fsm.Protocol

	// States and Ops alias the canonical declaration order; NumStates and
	// NumOps are their lengths.
	States    []fsm.State
	Ops       []fsm.Op
	NumStates int
	NumOps    int

	// Initial is the per-cache initial state index.
	Initial int32

	// Rules holds the compiled rules in declaration order (Rules[i].ID == i).
	Rules []Rule

	// rulesFor[from*NumOps+op] lists the applicable rule IDs in declaration
	// order; an empty list means the operation is a no-op in that state.
	rulesFor [][]int32
	// unguarded[from*NumOps+op] reports whether the first rule of the
	// slot is unguarded and reads no cache: it fires without Select
	// looking at the other caches.
	unguarded []bool

	// Per-state invariant membership, indexed by state.
	ValidCopy   []bool
	Exclusive   []bool
	Owner       []bool
	Readable    []bool
	CleanShared []bool

	// opIsRead[k] reports Ops[k] == fsm.OpRead (the read-version probe of
	// StepResult applies only to reads).
	opIsRead []bool

	stateIdx map[fsm.State]int32
}

// Compile validates p and lowers it into the compiled representation. The
// result shares p's state and op slices but never mutates them; p itself is
// retained as Src.
func Compile(p *fsm.Protocol) (*Protocol, error) {
	if p == nil {
		return nil, fmt.Errorf("compile: nil protocol")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ns, no := len(p.States), len(p.Ops)
	cp := &Protocol{
		Src:       p,
		States:    p.States,
		Ops:       p.Ops,
		NumStates: ns,
		NumOps:    no,
		rulesFor:  make([][]int32, ns*no),
		stateIdx:  make(map[fsm.State]int32, ns),
		opIsRead:  make([]bool, no),
	}
	for i, s := range p.States {
		cp.stateIdx[s] = int32(i)
	}
	opIdx := make(map[fsm.Op]int32, no)
	for k, op := range p.Ops {
		opIdx[op] = int32(k)
		cp.opIsRead[k] = op == fsm.OpRead
	}
	cp.ValidCopy = cp.stateSet(p.Inv.ValidCopy)
	cp.Exclusive = cp.stateSet(p.Inv.Exclusive)
	cp.Owner = cp.stateSet(p.Inv.Owners)
	cp.Readable = cp.stateSet(p.Inv.Readable)
	cp.CleanShared = cp.stateSet(p.Inv.CleanShared)

	validCount := 0
	for _, v := range cp.ValidCopy {
		if v {
			validCount++
		}
	}

	cp.Rules = make([]Rule, len(p.Rules))
	obsSlab := make([]int32, len(p.Rules)*ns)
	codeSlab := make([]uint32, len(p.Rules)*ns)
	remoteSlab := make([]bool, 2*len(p.Rules)*ns)
	initial := cp.stateIdx[p.Initial]
	for i := range p.Rules {
		r := &p.Rules[i]
		cr := &cp.Rules[i]
		cr.ID = int32(i)
		cr.From = cp.stateIdx[r.From]
		cr.Next = cp.stateIdx[r.Next]
		cr.Op = opIdx[r.On]
		cr.GuardKind = r.Guard.Kind
		for _, gs := range r.Guard.States {
			gi := cp.stateIdx[gs]
			cr.GuardStates = append(cr.GuardStates, gi)
			cr.GuardMask |= fold(gi)
		}
		cr.GuardIsValidSet = len(cr.GuardStates) == validCount && cp.allValid(cr.GuardStates)
		cr.Obs = obsSlab[i*ns : (i+1)*ns]
		for c := 0; c < ns; c++ {
			cr.Obs[c] = cp.stateIdx[r.ObservedNext(p.States[c])]
		}
		cr.HasObserve = len(r.Observe) > 0
		cr.obsCode = codeSlab[i*ns : (i+1)*ns]
		for c, next := range cr.Obs {
			cr.obsCode[c] = uint32(next)
			if !cp.ValidCopy[next] {
				cr.obsCode[c] |= obsDrop
			}
			if next == initial {
				cr.obsCode[c] |= obsIdle
			}
		}
		cr.Kills = remoteSlab[2*i*ns : (2*i+1)*ns]
		cr.Keeps = remoteSlab[(2*i+1)*ns : (2*i+2)*ns]
		for c, next := range cr.Obs {
			cr.Kills[c] = cp.ValidCopy[c] && !cp.ValidCopy[next]
			cr.Keeps[c] = cp.ValidCopy[next]
			cr.Remote = cr.Remote || cr.Kills[c]
		}
		cr.Source = r.Data.Source
		for _, ss := range r.Data.Suppliers {
			cr.Suppliers = append(cr.Suppliers, cp.stateIdx[ss])
		}
		cr.SupplierWriteBack = r.Data.SupplierWriteBack
		cr.Store = r.Data.Store
		cr.WriteThrough = r.Data.WriteThrough
		cr.UpdateSharers = r.Data.UpdateSharers
		cr.WriteBackSelf = r.Data.WriteBackSelf
		cr.DropSelf = r.Data.DropSelf
		cr.Spin = r.Data.Spin
		cr.Remote = cr.Remote || (cr.Store && cr.UpdateSharers)
		cr.TouchesIdle = cr.Obs[initial] != initial

		slot := int(cr.From)*no + int(cr.Op)
		cp.rulesFor[slot] = append(cp.rulesFor[slot], cr.ID)
	}
	// A cache keeps data in a state that is not a valid copy only when a
	// rule leaves its originator there with some version.
	invalidData := false
	for i := range cp.Rules {
		r := &cp.Rules[i]
		invalidData = invalidData || (!cp.ValidCopy[r.Next] && !r.DropSelf && (r.Source != fsm.SrcNone || r.Store))
	}
	for i := range cp.Rules {
		r := &cp.Rules[i]
		r.quiet = !invalidData && !(r.Store && r.UpdateSharers)
		for c, next := range r.Obs {
			r.quiet = r.quiet && next == int32(c)
		}
	}
	cp.unguarded = make([]bool, ns*no)
	for slot, ids := range cp.rulesFor {
		if len(ids) > 0 {
			first := &cp.Rules[ids[0]]
			cp.unguarded[slot] = first.GuardKind == fsm.GuardAlways && first.Source != fsm.SrcCache
		}
	}
	cp.Initial = initial
	return cp, nil
}

// Flags of Rule.obsCode above the state index.
const (
	obsDrop  = 1 << 30
	obsIdle  = 1 << 31
	obsState = obsDrop - 1
)

// fold returns state s's bit in a 64-bit state set: bit s%64, so the set
// is exact for protocols of at most 64 states and a superset otherwise.
func fold(s int32) uint64 { return 1 << uint(s&63) }

// stateSet renders a state list as a per-state membership array.
func (cp *Protocol) stateSet(states []fsm.State) []bool {
	out := make([]bool, cp.NumStates)
	for _, s := range states {
		out[cp.stateIdx[s]] = true
	}
	return out
}

func (cp *Protocol) allValid(idxs []int32) bool {
	for _, i := range idxs {
		if !cp.ValidCopy[i] {
			return false
		}
	}
	return true
}

// StateIndex resolves a state name to its index, or -1 when undeclared.
// Boundary-conversion helper; the hot paths never call it.
func (cp *Protocol) StateIndex(s fsm.State) int {
	if i, ok := cp.stateIdx[s]; ok {
		return int(i)
	}
	return -1
}

// OpIndex resolves an operation to its index in Ops, or -1 when undeclared.
func (cp *Protocol) OpIndex(op fsm.Op) int {
	for k, o := range cp.Ops {
		if o == op {
			return k
		}
	}
	return -1
}

// RuleIDs returns the applicable rule IDs for an originator in state from
// applying op, in declaration order. The returned slice is shared; callers
// must not mutate it.
func (cp *Protocol) RuleIDs(from, op int) []int32 {
	return cp.rulesFor[from*cp.NumOps+op]
}

// HasRules reports whether (from, op) dispatches to at least one rule —
// the no-op skip of the enumeration engines.
func (cp *Protocol) HasRules(from, op int) bool {
	return len(cp.rulesFor[from*cp.NumOps+op]) != 0
}

// RulePtr maps a rule ID back to the source declaration.
func (cp *Protocol) RulePtr(id int32) *fsm.Rule { return &cp.Src.Rules[id] }

// Config is the integer-state counterpart of fsm.Config: the same concrete
// global state of one block, with per-cache states held as indexes instead
// of strings so the step hot path does no map lookups and no string
// comparisons.
//
// A cache is idle when it is in the protocol's initial state with no data
// (fsm.NoData), as every cache starts. Occ is the occupancy bitset, the
// caches that are not idle: bit j%64 of Occ[j/64] is set exactly when
// cache j is not idle, it has ⌈n/64⌉ words for n caches, and the bits past
// cache n-1 are clear. Select and Fire visit only the occupied caches and
// decide the idle ones in closed form, so most steps of a block that few
// caches hold touch few caches. Every writer of a Config keeps Occ exact:
// NewConfig, Encode, CopyFrom and Fire here, and the two places that build
// a Config from other storage, the simulator's block windows (sim.New)
// and the enumerator's key decoder. CheckOccupancy recomputes it.
type Config struct {
	States     []int32
	Versions   []int64
	Occ        []uint64
	MemVersion int64
	Latest     int64
}

// OccWords returns the length of the occupancy bitset of n caches.
func OccWords(n int) int { return (n + 63) >> 6 }

// ClearOcc returns the empty occupancy bitset of n caches in occ's
// storage when it has the capacity.
func ClearOcc(occ []uint64, n int) []uint64 {
	occ = slices.Grow(occ[:0], OccWords(n))[:OccWords(n)]
	clear(occ)
	return occ
}

// NewConfig returns the initial compiled configuration for n caches: every
// cache in the initial state with no data, memory fresh at version 0.
func (cp *Protocol) NewConfig(n int) *Config {
	c := &Config{
		States:   make([]int32, n),
		Versions: make([]int64, n),
		Occ:      make([]uint64, OccWords(n)),
	}
	for i := range c.States {
		c.States[i] = cp.Initial
		c.Versions[i] = fsm.NoData
	}
	return c
}

// CopyFrom overwrites c with src, reusing c's capacity.
func (c *Config) CopyFrom(src *Config) {
	c.States = append(c.States[:0], src.States...)
	c.Versions = append(c.Versions[:0], src.Versions...)
	// The bitset is a word or two: a loop copies it faster than memmove.
	if cap(c.Occ) < len(src.Occ) {
		c.Occ = make([]uint64, len(src.Occ))
	}
	c.Occ = c.Occ[:len(src.Occ)]
	for w, word := range src.Occ {
		c.Occ[w] = word
	}
	c.MemVersion = src.MemVersion
	c.Latest = src.Latest
}

// Visit returns word w of the caches whose states rule r's observers must
// visit: the occupied caches, or every cache when r touches idle ones.
// Bit j%64 of word j/64 stands for cache j.
func (c *Config) Visit(r *Rule, w int) uint64 {
	if r.TouchesIdle {
		return allCaches(len(c.States), w)
	}
	return c.Occ[w]
}

// allCaches returns word w of the bitset of all n caches.
func allCaches(n, w int) uint64 {
	if rest := n - w<<6; rest < 64 {
		return 1<<uint(rest) - 1
	}
	return ^uint64(0)
}

// firstIdle returns the lowest-index idle cache other than origin, or -1
// when every other cache is occupied.
func (c *Config) firstIdle(origin int) int {
	for w, word := range c.Occ {
		free := ^word
		if origin>>6 == w {
			free &^= 1 << uint(origin&63)
		}
		if free != 0 {
			if j := w<<6 | bits.TrailingZeros64(free); j < len(c.States) {
				return j
			}
			return -1
		}
	}
	return -1
}

// CheckOccupancy recomputes c's occupancy bitset from its states and
// versions and reports the first difference from c.Occ, or nil when Occ
// holds the Config invariant.
func (cp *Protocol) CheckOccupancy(c *Config) error {
	if len(c.Occ) != OccWords(len(c.States)) {
		return fmt.Errorf("compile: %d caches with %d occupancy words", len(c.States), len(c.Occ))
	}
	for w, word := range c.Occ {
		for b := 0; b < 64; b++ {
			j := w<<6 | b
			want := j < len(c.States) && (c.States[j] != cp.Initial || c.Versions[j] != fsm.NoData)
			if got := word>>uint(b)&1 != 0; got != want {
				return fmt.Errorf("compile: cache %d of %s: occupied %v, want %v", j, cp.String(c), got, want)
			}
		}
	}
	return nil
}

// N returns the number of caches.
func (c *Config) N() int { return len(c.States) }

// Encode converts an interpreted configuration into compiled form, reusing
// dst's capacity. It errors on states outside the compiled protocol — the
// only place a name lookup happens, once per conversion rather than once
// per step.
func (cp *Protocol) Encode(src *fsm.Config, dst *Config) error {
	dst.States = dst.States[:0]
	for _, s := range src.States {
		i, ok := cp.stateIdx[s]
		if !ok {
			return fmt.Errorf("compile: protocol %s: state %q not declared", cp.Src.Name, s)
		}
		dst.States = append(dst.States, i)
	}
	dst.Versions = append(dst.Versions[:0], src.Versions...)
	dst.Occ = ClearOcc(dst.Occ, len(dst.States))
	for j, s := range dst.States {
		if s != cp.Initial || dst.Versions[j] != fsm.NoData {
			dst.Occ[j>>6] |= 1 << uint(j&63)
		}
	}
	dst.MemVersion = src.MemVersion
	dst.Latest = src.Latest
	return nil
}

// Decode converts a compiled configuration back to the interpreted form,
// reusing dst's capacity. State strings come from the canonical declaration
// slice, so decoded configurations share storage with the protocol.
func (cp *Protocol) Decode(src *Config, dst *fsm.Config) {
	dst.States = dst.States[:0]
	for _, i := range src.States {
		dst.States = append(dst.States, cp.States[i])
	}
	dst.Versions = append(dst.Versions[:0], src.Versions...)
	dst.MemVersion = src.MemVersion
	dst.Latest = src.Latest
}

// String renders the configuration as (q1, q2, ..., qn), matching
// fsm.Config.String for the same state tuple. Error-path only.
func (cp *Protocol) String(c *Config) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, s := range c.States {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(cp.States[s]))
	}
	b.WriteByte(')')
	return b.String()
}

// StepResult reports what happened during one compiled Step; it carries the
// rule by ID so hot-path callers can count without touching the source
// declaration.
type StepResult struct {
	// RuleID is the declaration index of the rule that fired, or -1 when
	// the operation was a no-op in the originator's state.
	RuleID int32
	// ReadVersion is the version the processor observed on a read, or
	// fsm.NoData for other operations.
	ReadVersion int64
	// Supplier is the index of the cache that supplied data, or -1.
	Supplier int
}

// Result converts to the interpreted fsm.StepResult.
func (cp *Protocol) Result(r StepResult) fsm.StepResult {
	out := fsm.StepResult{ReadVersion: r.ReadVersion, Supplier: r.Supplier}
	if r.RuleID >= 0 {
		out.Rule = &cp.Src.Rules[r.RuleID]
	}
	return out
}

// guardHolds decides a guard of kind k, given whether a cache other than
// the originator is in its state set: the semantics of fsm.EvalGuard.
func guardHolds(k fsm.GuardKind, found bool) bool {
	switch k {
	case fsm.GuardAlways:
		return true
	case fsm.GuardAnyOther:
		return found
	case fsm.GuardNoOther:
		return !found
	}
	return false
}

// inOthers reports whether a cache other than origin is in one of the
// states of set: an idle one when set holds the initial state, or an
// occupied one.
func (cp *Protocol) inOthers(set []int32, c *Config, origin int) bool {
	if slices.Contains(set, cp.Initial) && c.firstIdle(origin) >= 0 {
		return true
	}
	for w, word := range c.Occ {
		for ; word != 0; word &= word - 1 {
			if j := w<<6 | bits.TrailingZeros64(word); j != origin && slices.Contains(set, c.States[j]) {
				return true
			}
		}
	}
	return false
}

// supplier returns the lowest-index cache other than origin in state ss,
// or -1. When ss is the initial state that is the lower of the first idle
// cache and the first occupied one in ss.
func (cp *Protocol) supplier(c *Config, ss int32, origin int) int {
	idle := -1
	if ss == cp.Initial {
		idle = c.firstIdle(origin)
	}
	for w, word := range c.Occ {
		for ; word != 0; word &= word - 1 {
			j := w<<6 | bits.TrailingZeros64(word)
			if idle >= 0 && idle < j {
				return idle
			}
			if j != origin && c.States[j] == ss {
				return j
			}
		}
	}
	return idle
}

// Step applies operation op (by index) issued by cache origin to
// configuration c, mutating it in place. It is the compiled transliteration
// of fsm.Step: same transition order, same version bookkeeping, and —
// because spec-level errors surface in enumeration reports — the same error
// text, rendered from the pre-step configuration exactly as the interpreted
// path renders it. On error c is unchanged.
//
// Step is Select followed by Fire. Callers that account for a step before
// it changes c (the simulator) call the two themselves.
func (cp *Protocol) Step(c *Config, origin, op int) (StepResult, error) {
	rule, sup, err := cp.Select(c, origin, op)
	if err != nil || rule == nil {
		return Unfired(rule), err
	}
	return cp.Fire(c, origin, op, rule, sup), nil
}

// Unfired is the result of a step that fired no rule: a no-op (rule nil)
// or a failed Select, which carries the rule it selected when only the
// supplier was missing.
func Unfired(rule *Rule) StepResult {
	res := StepResult{RuleID: -1, ReadVersion: fsm.NoData, Supplier: -1}
	if rule != nil {
		res.RuleID = rule.ID
	}
	return res
}

// Select chooses the rule that operation op (by index) issued by cache
// origin fires in configuration c, and the cache that supplies its data
// (-1 when it reads none from a cache). It reads c and changes nothing. A
// nil rule with a nil error is a no-op in the originator's state. It fails
// when the index is out of range, when no guard matches, or when the rule
// reads from a cache and none holds a supplier state; in the last case it
// also returns the rule. Every failure of Step is a failure of Select, so
// a selected rule always fires.
func (cp *Protocol) Select(c *Config, origin, op int) (*Rule, int, error) {
	if origin < 0 || origin >= len(c.States) {
		return nil, -1, fmt.Errorf("fsm: step: cache index %d out of range", origin)
	}
	states := c.States
	slot := int(states[origin])*cp.NumOps + op
	rules := cp.rulesFor[slot]
	if len(rules) == 0 {
		return nil, -1, nil // no-op in this state
	}
	// others folds the states of the caches other than origin onto 64
	// bits (see fold): the occupied caches' states, and the initial state
	// when any other cache is idle. An unguarded slot needs no others.
	occ := c.Occ
	if cp.unguarded[slot] {
		occ = nil
	}
	var others uint64
	held := 0
	for w, word := range occ {
		if w == origin>>6 {
			word &^= 1 << uint(origin&63)
		}
		for ; word != 0; word &= word - 1 {
			held++
			others |= fold(states[w<<6|bits.TrailingZeros64(word)])
		}
	}
	if held < len(states)-1 {
		others |= fold(cp.Initial)
	}
	// A guard state missing from others is in no other cache; above 64
	// states inOthers confirms a folded match.
	var rule *Rule
	for _, id := range rules {
		r := &cp.Rules[id]
		found := r.GuardMask&others != 0
		if found && cp.NumStates > 64 {
			found = cp.inOthers(r.GuardStates, c, origin)
		}
		if guardHolds(r.GuardKind, found) {
			rule = r
			break
		}
	}
	if rule == nil {
		return nil, -1, fmt.Errorf("fsm: protocol %s: no guard matched for cache %d in state %s on %s of %s",
			cp.Src.Name, origin, cp.States[c.States[origin]], cp.Ops[op], cp.String(c))
	}
	if rule.Source != fsm.SrcCache {
		return rule, -1, nil
	}
	for _, ss := range rule.Suppliers {
		if others&fold(ss) == 0 {
			continue // no other cache is in ss
		}
		if j := cp.supplier(c, ss, origin); j >= 0 {
			return rule, j, nil
		}
	}
	src := cp.Src.Rules[rule.ID]
	return rule, -1, fmt.Errorf("fsm: protocol %s: rule %s fired with no supplier in %v for %s",
		cp.Src.Name, src.Name, src.Data.Suppliers, cp.String(c))
}

// Fire applies rule, which Select chose for the same configuration, origin
// and op, with Select's supplier sup. It mutates c in place and cannot
// fail. c must be reachable from NewConfig, as every configuration the
// engines and the simulator step is: a quiet rule skips the observers,
// which would otherwise drop data no reachable configuration holds.
func (cp *Protocol) Fire(c *Config, origin, op int, rule *Rule, sup int) StepResult {
	res := StepResult{RuleID: rule.ID, ReadVersion: fsm.NoData, Supplier: sup}

	// 1. Capture the supplier's data before any state changes.
	origVer := c.Versions[origin]
	switch rule.Source {
	case fsm.SrcNone:
		origVer = fsm.NoData
	case fsm.SrcKeep:
		// unchanged
	case fsm.SrcMemory:
		origVer = c.MemVersion
	case fsm.SrcCache:
		origVer = c.Versions[sup]
		if rule.SupplierWriteBack {
			c.MemVersion = c.Versions[sup]
		}
	}

	// 2. Coincident (observed) transitions on the caches c.Visit names,
	// unless the rule is quiet. The others are idle and the rule leaves
	// them idle. The loop keeps the occupancy bits: a visited cache ends
	// idle exactly when it lands in the initial state (obsIdle), which is
	// never a valid copy, so its data is dropped. It skips the originator,
	// whose state, version and bit the end of the step sets.
	states, versions, occs := c.States, c.Versions[:len(c.States)], c.Occ
	if !rule.quiet {
		codes := rule.obsCode
		for w, occ := range occs {
			word := c.Visit(rule, w)
			if w == origin>>6 {
				word &^= 1 << uint(origin&63)
			}
			occ |= word
			for ; word != 0; word &= word - 1 {
				j := w<<6 | bits.TrailingZeros64(word)
				code := codes[states[j]]
				states[j] = int32(code & obsState)
				v := versions[j]
				if code&obsDrop != 0 {
					v = fsm.NoData
				}
				versions[j] = v
				// code>>31 is 1 exactly when obsIdle is set.
				occ &^= word & -word & -uint64(code>>31)
			}
			occs[w] = occ
		}
	}

	// 3. Originator transition.
	states[origin] = rule.Next

	// 4. Store semantics: a new value is created; every copy not explicitly
	// updated becomes stale relative to it. Every valid copy is held by an
	// occupied cache, since the initial state is never a valid copy. The
	// refresh reaches the originator too, whose version is set below.
	if rule.Store {
		c.Latest++
		origVer = c.Latest
		if rule.WriteThrough {
			c.MemVersion = c.Latest
		}
		if rule.UpdateSharers {
			for w, word := range occs {
				for ; word != 0; word &= word - 1 {
					if j := w<<6 | bits.TrailingZeros64(word); cp.ValidCopy[states[j]] {
						versions[j] = c.Latest
					}
				}
			}
		}
	}

	// 5. Write-back and drop.
	if rule.WriteBackSelf {
		c.MemVersion = origVer
	}
	if rule.DropSelf {
		origVer = fsm.NoData
	}
	c.Versions[origin] = origVer
	obit := uint64(1) << uint(origin&63)
	o := occs[origin>>6] &^ obit
	if rule.Next != cp.Initial || origVer != fsm.NoData {
		o |= obit
	}
	occs[origin>>6] = o

	if cp.opIsRead[op] {
		res.ReadVersion = c.Versions[origin]
	}
	return res
}
