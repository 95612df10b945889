package symbolic

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/compile"
	"repro/internal/fsm"
)

// Engine computes symbolic successors of composite states for one protocol.
// It implements the expansion rules of Section 3.2.3 (aggregation, coincident
// transitions, one-step transitions and the N-steps transitions, the latter
// via abstract copy-count arithmetic plus containment pruning).
//
// Expansion runs directly on the compiled protocol (internal/compile):
// every (class, operation) event dispatches through cp.RuleIDs into
// cp.Rules, and the rule step works on the states' class bitmasks with
// per-rule masks (ruleMasks) derived here, once. The string-keyed protocol
// maps are only touched at construction time.
type Engine struct {
	p  *fsm.Protocol
	cp *compile.Protocol
	n  int
	// valid is the per-class valid-copy membership (cp.ValidCopy);
	// validIdxs lists the valid-copy classes and validMask holds them.
	valid     []bool
	validIdxs []int
	validMask uint64
	// rm[id] is compiled rule id's masks.
	rm []ruleMasks
	// The invariant sets of p.Inv as class indexes, in declaration order:
	// Check reports violations in that order.
	exclusive, owners, readable, cleanShared []int
}

// ruleMasks is one rule's coincident transition (Obs) as bitmasks. The
// classes Obs leaves in place, and nothing else moves into, form ident;
// every other class is pooled into its target, together with the target
// itself when the target stays in place. survive, lose and gain flag the
// classes whose valid copy survives Obs, is lost, or is gained.
type ruleMasks struct {
	ident               uint64
	pools               []pool
	survive, lose, gain uint64
}

// pool is the set of classes src whose members Obs moves into class t.
type pool struct {
	t   int
	src uint64
}

// ErrTooManyStates reports a protocol with more state symbols than the
// symbolic engine's one-word class masks hold (64); errors.Is matches it.
var ErrTooManyStates = errors.New("symbolic: too many states")

// NewEngine validates the protocol, compiles it and returns an engine for
// it. A protocol with more than 64 states yields ErrTooManyStates.
func NewEngine(p *fsm.Protocol) (*Engine, error) {
	cp, err := compile.Compile(p) // validates p
	if err != nil {
		return nil, err
	}
	if cp.NumStates > 64 {
		return nil, fmt.Errorf("%w: protocol %s has %d states, the symbolic engine handles at most 64",
			ErrTooManyStates, p.Name, cp.NumStates)
	}
	e := &Engine{p: p, cp: cp, n: cp.NumStates, valid: cp.ValidCopy}
	for i, v := range e.valid {
		if v {
			e.validIdxs = append(e.validIdxs, i)
			e.validMask |= 1 << i
		}
	}
	e.rm = make([]ruleMasks, len(cp.Rules))
	into := make([]uint64, e.n)
	var pools []pool // one backing array for every rule's pools
	for id := range cp.Rules {
		r, rm := &cp.Rules[id], &e.rm[id]
		clear(into)
		for c, t := range r.Obs {
			into[t] |= 1 << c
			switch {
			case e.valid[c] && e.valid[t]:
				rm.survive |= 1 << c
			case e.valid[c]:
				rm.lose |= 1 << c
			case e.valid[t]:
				rm.gain |= 1 << c
			}
		}
		first := len(pools)
		for t, src := range into {
			if src == 1<<t {
				rm.ident |= src
			} else if src != 0 {
				pools = append(pools, pool{t: t, src: src})
			}
		}
		rm.pools = pools[first:len(pools):len(pools)]
	}
	idxs := func(states []fsm.State) []int {
		out := make([]int, len(states))
		for i, s := range states {
			out[i] = cp.StateIndex(s)
		}
		return out
	}
	e.exclusive = idxs(p.Inv.Exclusive)
	e.owners = idxs(p.Inv.Owners)
	e.readable = idxs(p.Inv.Readable)
	e.cleanShared = idxs(p.Inv.CleanShared)
	return e, nil
}

// Protocol returns the protocol the engine was built for.
func (e *Engine) Protocol() *fsm.Protocol { return e.p }

// Initial returns the paper's initial composite state: every cache Invalid
// with no data — (Initial⁺) — and memory fresh.
func (e *Engine) Initial() *CState {
	var m cmask
	m.set(int(e.cp.Initial), RPlus)
	attr := CountNull
	if e.p.Characteristic == fsm.CharSharing {
		attr = CountZero
	}
	m, ok := e.normalize(m, attr)
	if !ok {
		panic("symbolic: initial state infeasible")
	}
	return newCState(e.n, m, attr, DFresh)
}

// MakeState builds a normalized composite state from explicit components;
// it returns false when the combination is infeasible. Primarily used by
// tests and by the abstraction function of the cross-validation harness.
func (e *Engine) MakeState(reps []Rep, cdata []Data, attr Count, mdata Data) (*CState, bool) {
	m, ok := e.normalize(masksOf(reps, cdata), attr)
	if !ok {
		return nil, false
	}
	return newCState(e.n, m, attr, mdata), true
}

// Label identifies a symbolic transition: the operation, the state class of
// the originating cache, and whether the edge stands for an N-steps
// derivation (rule 4 of Section 3.2.3).
type Label struct {
	Op     fsm.Op
	Origin fsm.State
	NStep  bool
}

// String renders the label like the paper's Figure 4: operation with the
// originator class as a subscript and the N-step superscript, e.g. "R^n_inv".
func (l Label) String() string {
	s := string(l.Op)
	if l.NStep {
		s += "^n"
	}
	if l.Origin != "" {
		s += "_" + string(l.Origin)
	}
	return s
}

// Succ is one symbolic successor.
type Succ struct {
	Label Label
	Rule  *fsm.Rule
	State *CState
}

// scenario is a refinement of a composite state during one transition: the
// originating cache has been removed, star classes may have been pinned
// non-empty (RPlus) or empty (RZero) to decide guards and suppliers, and
// others bounds the number of valid copies held by the other caches.
// Refinement only ever touches the operators, so the context variables
// are read straight from the expanded state (stepBuf.src).
type scenario struct {
	ops
	others ival
}

// stepBuf is the scratch space one goroutine's expansion calls share: the
// expanded state and origin class of the current event, the guard
// cascade's scenario lists, and the table that interns the successors of
// the current worklist item.
type stepBuf struct {
	src                    *CState
	oi                     int
	pending, next, matched []scenario
	picks                  []pick
	tab                    internTab
}

// pick is a guard-resolved scenario with the rule that fires in it.
type pick struct {
	sc   scenario
	rule *compile.Rule
}

func newStepBuf() *stepBuf {
	buf := &stepBuf{}
	buf.tab.reset()
	return buf
}

// stepBufPool recycles the buffers of Successors, which callers such as
// graph.BuildGlobal make once per state, so repeated calls reuse one
// buffer's scenario lists and intern table.
var stepBufPool = sync.Pool{New: func() any { return newStepBuf() }}

// feasible checks the scenario's class operators against its copy-count
// bound.
func (e *Engine) feasible(sc *scenario) bool {
	c := sc.count(e.validMask)
	return c.lo <= sc.others.hi && c.hi >= sc.others.lo
}

// propagate tightens a scenario's class operators against its copy-count
// bound and reports feasibility. Two propagations matter for precision:
// when the bound forbids any copy, every star-operated valid class must be
// empty; and when the bound is exact and already met by the definite
// instances, stars must be empty and plus classes are pinned to singletons.
// Without this, classes that a guard has proven empty would ride along as
// "ghosts" and later be mistaken for populated ones.
func (e *Engine) propagate(sc *scenario) bool {
	if !e.feasible(sc) {
		return false
	}
	b := sc.others
	if b.hi == 0 {
		sc.star &^= e.validMask
	} else if b.lo == b.hi && b.hi < manyCount && sc.count(e.validMask).lo == b.hi {
		sc.pin(e.validMask)
	}
	return true
}

// Successors expands every applicable (class, operation) pair of s and
// returns the generated successors. Spec-level problems (a guard cascade
// that fails to cover a reachable scenario, or a rule firing with no
// available supplier) are returned as errors alongside the successors that
// could be generated; they indicate an ill-formed protocol definition.
func (e *Engine) Successors(s *CState) ([]Succ, []error) {
	buf := stepBufPool.Get().(*stepBuf)
	m := e.expandItem(s, buf)
	buf.src = nil
	stepBufPool.Put(buf)
	var errs []error
	for _, ev := range m.events {
		if ev.err != nil {
			errs = append(errs, ev.err)
		}
	}
	out := m.succs
	m.succs = nil // the caller's now
	putItemMemo(m)
	return out, errs
}

// expandEvent applies operation index k originated by a cache in class oi,
// whose applicable rules are ids, and appends the successors to out.
func (e *Engine) expandEvent(out []Succ, s *CState, oi, k int, ids []int32, buf *stepBuf) ([]Succ, error) {
	// Build the base scenario: remove the originator from the origin
	// class's non-empty members, and derive the copy-count bound for the
	// other caches.
	base := scenario{ops: s.ops, others: s.attr.interval()}
	r := base.rep(oi)
	if r == RStar {
		r = RPlus // originate only from the non-empty members
	}
	r, err := removeOne(r)
	if err != nil {
		return out, err
	}
	base.set(oi, r)
	if e.valid[oi] && s.attr != CountNull {
		base.others = base.others.sub1()
	}
	if !e.propagate(&base) {
		return out, nil // the origin class cannot actually be populated
	}
	buf.src, buf.oi = s, oi

	// Resolve the guard cascade, splitting scenarios over ambiguity.
	picks := buf.picks[:0]
	pending := append(buf.pending[:0], base)
	next := buf.next[:0]
	for _, id := range ids {
		if len(pending) == 0 {
			break
		}
		r := &e.cp.Rules[id]
		matched := buf.matched[:0]
		next = next[:0]
		for _, sc := range pending {
			matched, next = e.splitGuard(sc, r, matched, next)
		}
		for _, m := range matched {
			picks = append(picks, pick{m, r})
		}
		buf.matched = matched
		pending, next = next, pending
	}
	var specErr error
	if len(pending) > 0 {
		specErr = fmt.Errorf("symbolic: protocol %s: guard cascade for (%s,%s) does not cover state %s",
			e.p.Name, e.p.States[oi], e.cp.Ops[k], s.StructureString(e.p))
	}
	buf.pending, buf.next = pending, next

	first := len(out)
	for _, pk := range picks {
		var err error
		out, err = e.applyRule(out, first, pk.sc, pk.rule, k, buf)
		if err != nil && specErr == nil {
			specErr = err
		}
	}
	buf.picks = picks
	return out, specErr
}

// appendSucc appends su unless out[first:], the successors of the current
// event, already holds the same state with the same N-step tag. Successors
// are interned, so the same state is the same pointer; an event yields a
// handful of successors, so a scan beats a map.
func appendSucc(out []Succ, first int, su Succ) []Succ {
	for _, o := range out[first:] {
		if o.Label.NStep == su.Label.NStep && o.State == su.State {
			return out
		}
	}
	return append(out, su)
}

// splitGuard refines scenario sc until rule r's guard is decided, appending
// the scenarios in which it holds to matched and those in which it does
// not to unmatched.
func (e *Engine) splitGuard(sc scenario, r *compile.Rule, matched, unmatched []scenario) ([]scenario, []scenario) {
	switch r.GuardKind {
	case fsm.GuardAlways:
		return append(matched, sc), unmatched
	case fsm.GuardAnyOther:
		return e.splitExists(sc, r, matched, unmatched)
	case fsm.GuardNoOther:
		unmatched, matched = e.splitExists(sc, r, unmatched, matched)
		return matched, unmatched
	default:
		return matched, append(unmatched, sc)
	}
}

// splitExists decides "∃ another cache in one of rule r's guard states",
// appending the scenarios in which it holds to yes and the one in which it
// does not to no. When the answer is ambiguous, yes gets one refinement per
// star class of the set pinned non-empty, in guard-state order (their
// union covers the ∃ case), and no gets sc with all of them pinned empty
// (the ∄ case). Infeasible refinements are dropped. A definite-false
// scenario has the set's star classes zeroed out (they are provably
// empty), so downstream rules do not mistake ghost classes for populated
// ones.
func (e *Engine) splitExists(sc scenario, r *compile.Rule, yes, no []scenario) ([]scenario, []scenario) {
	g := r.GuardMask
	// Fast path: when the tested set is exactly the valid-copy set and the
	// copy count is tracked, the bound decides existence outright.
	if r.GuardIsValidSet && sc.others.lo >= 1 {
		return append(yes, sc), no
	}
	none := sc // the ∄ case: the set's star classes pinned empty
	none.star &^= g
	if r.GuardIsValidSet && sc.others.hi == 0 {
		if e.propagate(&none) {
			no = append(no, none)
		}
		return yes, no
	}
	if (sc.one|sc.plus)&g != 0 {
		return append(yes, sc), no
	}
	if sc.star&g == 0 {
		return yes, append(no, sc)
	}
	n0 := len(yes)
	for _, i := range r.GuardStates {
		bit := uint64(1) << i
		if sc.star&bit == 0 {
			continue
		}
		t := sc
		t.star &^= bit
		t.plus |= bit
		if e.propagate(&t) {
			yes = append(yes, t)
		}
	}
	noneOK := e.propagate(&none)
	switch {
	case len(yes) == n0 && !noneOK:
		return yes, append(no, sc) // cannot happen for a normalized state
	case len(yes) == n0:
		return yes, append(no, none)
	case !noneOK:
		// All-empty is infeasible: existence is certain.
		return append(yes[:n0], sc), no
	}
	return yes, append(no, none)
}

// applyRule performs rule r on a guard-resolved scenario, branching over
// supplier choice and over copy-count ambiguity, and appends the
// successors to out (deduplicated against out[first:]).
func (e *Engine) applyRule(out []Succ, first int, sc scenario, r *compile.Rule, k int, buf *stepBuf) ([]Succ, error) {
	if r.Source != fsm.SrcCache {
		return e.applySupplied(out, first, &sc, r, k, DNone, buf), nil
	}
	supplied := false
	for _, i := range r.Suppliers {
		bit := uint64(1) << i
		if sc.occ()&bit == 0 {
			continue
		}
		t := sc
		if t.star&bit != 0 {
			t.star &^= bit
			t.plus |= bit
		}
		if !e.propagate(&t) {
			continue
		}
		supplied = true
		out = e.applySupplied(out, first, &t, r, k, buf.src.data(int(i)), buf)
	}
	if !supplied {
		rule := &e.p.Rules[r.ID]
		return out, fmt.Errorf("symbolic: protocol %s: rule %s fired with no possible supplier in %v",
			e.p.Name, rule.Name, rule.Data.Suppliers)
	}
	return out, nil
}

func (e *Engine) applySupplied(out []Succ, first int, sc *scenario, r *compile.Rule, k int, supplierData Data, buf *stepBuf) []Succ {
	src, rm, V := buf.src, &e.rm[r.ID], e.validMask

	// 1. Originator's incoming data and supplier write-back.
	var origVal Data
	newMdata := src.mdata
	switch r.Source {
	case fsm.SrcNone:
		origVal = DNone
	case fsm.SrcKeep:
		origVal = src.data(buf.oi)
	case fsm.SrcMemory:
		origVal = src.mdata
	case fsm.SrcCache:
		origVal = supplierData
		if r.SupplierWriteBack {
			newMdata = supplierData
		}
	}

	// 2+3. Coincident transitions — pool every remaining class into its
	// observed target (aggregation rules) — fused with the abstract
	// copy-count arithmetic over the other caches. Classes Obs leaves in
	// place keep their operator, and their context variable when valid.
	occ := sc.occ()
	keep := rm.ident & occ
	nm := cmask{ops: ops{sc.one & keep, sc.plus & keep, sc.star & keep}}
	nm.fresh, nm.obs = src.fresh&keep&V, src.obs&keep&V
	for _, pl := range rm.pools {
		if in := pl.src & occ; in != 0 {
			nm.set(pl.t, sc.pooled(in))
			if e.valid[pl.t] {
				nm.setData(pl.t, src.pooledData(in))
			}
		}
	}
	var othersAfter ival
	var ok bool
	if occ&rm.lose == 0 {
		othersAfter, ok = sc.count(rm.survive).intersect(sc.others)
	} else {
		othersAfter, ok = sc.count(rm.survive).intersect(ival{0, sc.others.hi})
	}
	if !ok {
		return out
	}
	othersAfter = othersAfter.add(sc.count(rm.gain))

	// 4. Store semantics on the context variables.
	if r.Store {
		nm.obs |= nm.fresh
		nm.fresh = 0
		newMdata = downgrade(newMdata)
		origVal = DFresh
		if r.WriteThrough {
			newMdata = DFresh
		}
		if r.UpdateSharers {
			sharers := nm.occ() & V
			nm.fresh |= sharers
			nm.obs &^= sharers
		}
	}

	// 5. Self write-back and drop.
	if r.WriteBackSelf {
		newMdata = origVal
	}
	if r.DropSelf {
		origVal = DNone
	}

	// 6. Re-insert the originator into its next class.
	ni := int(r.Next)
	d := DNone
	if e.valid[ni] {
		d = origVal
	}
	if had := nm.rep(ni); had != RZero {
		d = mergeData(nm.data(ni), d)
	}
	nm.set(ni, addOne(nm.rep(ni)))
	nm.setData(ni, d)

	total := othersAfter
	if e.valid[ni] {
		total = total.add(ival{1, 1})
	}

	// 7. Classify the new copy count and emit one successor per feasible
	// classification. A branch that decreases the classification below the
	// maximum corresponds to the paper's N-steps rule 4(b) (the same event
	// applied repeatedly until the characteristic function changes) and is
	// tagged NStep.
	label := Label{Op: e.cp.Ops[k], Origin: e.p.States[buf.oi]}
	rule := &e.p.Rules[r.ID]
	if e.p.Characteristic != fsm.CharSharing {
		if m, ok := e.normalize(nm, CountNull); ok {
			out = appendSucc(out, first, Succ{Label: label, Rule: rule, State: buf.tab.state(e.n, m, CountNull, newMdata)})
		}
		return out
	}
	counts, nc := total.counts()
	for _, cnt := range counts[:nc] {
		m, ok := e.normalize(nm, cnt)
		if !ok {
			continue
		}
		label.NStep = nc > 1 && cnt != counts[nc-1]
		out = appendSucc(out, first, Succ{Label: label, Rule: rule, State: buf.tab.state(e.n, m, cnt, newMdata)})
	}
	return out
}

// normalize canonicalizes a candidate composite state against its copy-count
// attribute (pinning singletons, collapsing impossible star classes) and
// scrubs the context variables of empty and invalid classes. It reports
// false when the combination is infeasible.
func (e *Engine) normalize(m cmask, attr Count) (cmask, bool) {
	V := e.validMask
	if attr != CountNull {
		if attr == CountZero {
			if (m.one|m.plus)&V != 0 {
				return m, false
			}
			m.star &^= V
		}
		c, bound := m.count(V), attr.interval()
		if c.lo > bound.hi || c.hi < bound.lo {
			return m, false
		}
		occ := m.occ() & V
		single := occ != 0 && occ&(occ-1) == 0
		if attr == CountOne && c.lo == 1 {
			// The definite instances already account for the single copy:
			// stars must be empty and plus classes are singletons.
			m.pin(V)
		}
		if single {
			// A single populated valid class: pin its operator to the
			// tightest form compatible with the copy count.
			i := bits.TrailingZeros64(occ)
			switch attr {
			case CountOne:
				m.set(i, ROne)
			case CountMany:
				if m.one&occ != 0 {
					return m, false
				}
				m.set(i, RPlus)
			}
		}
	}
	live := m.occ() & V
	m.fresh &= live
	m.obs &= live
	return m, true
}

// internTab interns the successors of one worklist item by their masks, so
// a successor that several of the item's events generate is built, keyed
// and checked once. It is an open-addressed table whose slots belong to the
// current item when their epoch matches; reset starts a new item without
// clearing, and the table only allocates while it grows.
type internTab struct {
	slots []internSlot
	epoch uint32
	live  int
}

// internSlot holds one interned state and, once computed, its Check.
type internSlot struct {
	st      *CState
	viol    []fsm.Violation
	epoch   uint32
	checked bool
}

// reset empties the table for the next item.
func (t *internTab) reset() {
	t.epoch++
	t.live = 0
	if t.epoch == 0 { // wrapped: no stale slot may look current
		clear(t.slots)
		t.epoch = 1
	}
}

// slot returns the slot of the state with masks m, attr and mdata: its
// current entry, or the empty slot where it goes.
func (t *internTab) slot(m *cmask, attr Count, mdata Data) *internSlot {
	h := uint64(attr)<<8 | uint64(mdata)
	for _, w := range [...]uint64{m.one, m.plus, m.star, m.fresh, m.obs} {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	for i := h; ; i++ {
		sl := &t.slots[i&uint64(len(t.slots)-1)]
		if sl.epoch != t.epoch || sl.st.cmask == *m && sl.st.attr == attr && sl.st.mdata == mdata {
			return sl
		}
	}
}

// state returns the interned state with masks m, building it on first use.
func (t *internTab) state(n int, m cmask, attr Count, mdata Data) *CState {
	if 2*(t.live+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]internSlot, max(16, 2*len(old)))
		for _, sl := range old {
			if sl.epoch == t.epoch {
				*t.slot(&sl.st.cmask, sl.st.attr, sl.st.mdata) = sl
			}
		}
	}
	sl := t.slot(&m, attr, mdata)
	if sl.epoch != t.epoch {
		*sl = internSlot{st: newCState(n, m, attr, mdata), epoch: t.epoch}
		t.live++
	}
	return sl.st
}

// check returns Check(s, strict) for an interned state, computing it once
// per item.
func (e *Engine) check(t *internTab, s *CState, strict bool) []fsm.Violation {
	sl := t.slot(&s.cmask, s.attr, s.mdata)
	if sl.st != s {
		return e.Check(s, strict)
	}
	if !sl.checked {
		sl.viol, sl.checked = e.Check(s, strict), true
	}
	return sl.viol
}
