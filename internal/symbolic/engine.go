package symbolic

import (
	"fmt"

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
// cp.Rules, whose observe, next-state, supplier and guard tables are
// already integer indexes, and the invariant sets are resolved to class
// indexes once, here. The string-keyed protocol maps are only touched at
// construction time.
type Engine struct {
	p  *fsm.Protocol
	cp *compile.Protocol
	n  int
	// valid is the per-class valid-copy membership (cp.ValidCopy);
	// validIdxs lists the valid-copy classes.
	valid     []bool
	validIdxs []int
	// The invariant sets of p.Inv as class indexes, in declaration order:
	// Check reports violations in that order.
	exclusive, owners, readable, cleanShared []int
}

// NewEngine validates the protocol, compiles it and returns an engine for
// it.
func NewEngine(p *fsm.Protocol) (*Engine, error) {
	cp, err := compile.Compile(p) // validates p
	if err != nil {
		return nil, err
	}
	e := &Engine{p: p, cp: cp, n: cp.NumStates, valid: cp.ValidCopy}
	for i, v := range e.valid {
		if v {
			e.validIdxs = append(e.validIdxs, i)
		}
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
	reps := make([]Rep, e.n)
	cdata := make([]Data, e.n)
	reps[e.cp.Initial] = RPlus
	attr := CountNull
	if e.p.Characteristic == fsm.CharSharing {
		attr = CountZero
	}
	st, ok := e.normalize(reps, cdata, attr, DFresh)
	if !ok {
		panic("symbolic: initial state infeasible")
	}
	return st
}

// MakeState builds a normalized composite state from explicit components;
// it returns false when the combination is infeasible. Primarily used by
// tests and by the abstraction function of the cross-validation harness.
func (e *Engine) MakeState(reps []Rep, cdata []Data, attr Count, mdata Data) (*CState, bool) {
	r := append([]Rep(nil), reps...)
	d := append([]Data(nil), cdata...)
	return e.normalize(r, d, attr, mdata)
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
// othersIval bounds the number of valid copies held by the other caches.
// Refinement only ever touches the operators, so the context variables
// are read straight from the expanded state src.
type scenario struct {
	rem        []Rep // post-removal repetition operators
	src        *CState
	othersIval ival
	origIdx    int
	origData   Data
}

func (sc *scenario) clone() *scenario {
	c := *sc
	c.rem = append([]Rep(nil), sc.rem...)
	return &c
}

// stepBuf is the scratch space one goroutine's expansion calls share:
// the event's base scenario, the guard cascade's scenario lists and the
// successor vectors applySupplied assembles. Scenarios live only for one
// event and newCState copies out of the vectors, so no successor aliases
// the buffer.
type stepBuf struct {
	base           scenario
	reps, normReps []Rep
	data, normData []Data
	contrib        []bool
	pending, next  []*scenario
	matched        []*scenario
	picks          []pick
}

// pick is a guard-resolved scenario with the rule that fires in it.
type pick struct {
	sc   *scenario
	rule *compile.Rule
}

func (e *Engine) newStepBuf() *stepBuf {
	n := e.n
	reps, data := make([]Rep, 3*n), make([]Data, 2*n)
	return &stepBuf{
		base: scenario{rem: reps[:n:n]},
		reps: reps[n : 2*n : 2*n], normReps: reps[2*n:],
		data: data[:n:n], normData: data[n:],
		contrib: make([]bool, n),
	}
}

// feasible checks the scenario's class operators against its copy-count
// bound.
func (e *Engine) feasible(sc *scenario) bool {
	min, max := 0, 0
	for _, i := range e.validIdxs {
		min += sc.rem[i].Min()
		max += sc.rem[i].Max()
	}
	return satur(min) <= sc.othersIval.hi && satur(max) >= sc.othersIval.lo
}

// propagate tightens a scenario's class operators against its copy-count
// bound and reports feasibility. Two propagations matter for precision:
// when the bound forbids any copy, every star-operated valid class must be
// empty; and when the bound is exact and already met by the definite
// instances, stars must be empty and plus classes are pinned to singletons.
// Without this, classes that a guard has proven empty would ride along as
// "ghosts" and later be mistaken for populated classes.
func (e *Engine) propagate(sc *scenario) bool {
	if !e.feasible(sc) {
		return false
	}
	b := sc.othersIval
	if b.hi == 0 {
		for _, i := range e.validIdxs {
			if sc.rem[i] == RStar {
				sc.rem[i] = RZero
			}
		}
		return true
	}
	if b.lo == b.hi && b.hi < manyCount {
		min := 0
		for _, i := range e.validIdxs {
			min += sc.rem[i].Min()
		}
		if min == b.hi {
			for _, i := range e.validIdxs {
				switch sc.rem[i] {
				case RStar:
					sc.rem[i] = RZero
				case RPlus:
					sc.rem[i] = ROne
				}
			}
		}
	}
	return true
}

// Successors expands every applicable (class, operation) pair of s and
// returns the generated successors. Spec-level problems (a guard cascade
// that fails to cover a reachable scenario, or a rule firing with no
// available supplier) are returned as errors alongside the successors that
// could be generated; they indicate an ill-formed protocol definition.
func (e *Engine) Successors(s *CState) ([]Succ, []error) {
	var out []Succ
	var errs []error
	buf := e.newStepBuf()
	for oi := 0; oi < e.n; oi++ {
		if !s.Rep(oi).CanBePositive() {
			continue
		}
		for k := range e.cp.Ops {
			ids := e.cp.RuleIDs(oi, k)
			if len(ids) == 0 {
				continue
			}
			var err error
			if out, err = e.expandEvent(out, s, oi, k, ids, buf); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return out, errs
}

// expandEvent applies operation index k originated by a cache in class oi,
// whose applicable rules are ids, and appends the successors to out.
func (e *Engine) expandEvent(out []Succ, s *CState, oi, k int, ids []int32, buf *stepBuf) ([]Succ, error) {
	// Build the base scenario: pin the origin class non-empty, remove the
	// originator, and derive the copy-count bound for the other caches.
	base := &buf.base
	*base = scenario{rem: base.rem, src: s, origIdx: oi, origData: s.CData(oi)}
	for i := range base.rem {
		base.rem[i] = s.Rep(i)
	}
	if base.rem[oi] == RStar {
		base.rem[oi] = RPlus // originate only from the non-empty members
	}
	rem, err := removeOne(base.rem[oi])
	if err != nil {
		return out, err
	}
	base.rem[oi] = rem
	base.othersIval = s.attr.interval()
	if e.valid[oi] && s.attr != CountNull {
		base.othersIval = base.othersIval.sub1()
	}
	if !e.propagate(base) {
		return out, nil // the origin class cannot actually be populated
	}

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
// event, already holds the same state with the same N-step tag. An event
// yields a handful of successors, so a scan beats a map.
func appendSucc(out []Succ, first int, su Succ) []Succ {
	for _, o := range out[first:] {
		if o.Label.NStep == su.Label.NStep && o.State.key == su.State.key {
			return out
		}
	}
	return append(out, su)
}

// splitGuard refines scenario sc until rule r's guard is decided, appending
// the scenarios in which it holds to matched and those in which it does
// not to unmatched.
func (e *Engine) splitGuard(sc *scenario, r *compile.Rule, matched, unmatched []*scenario) ([]*scenario, []*scenario) {
	var exists cond
	var falseSc *scenario
	switch r.GuardKind {
	case fsm.GuardAlways:
		return append(matched, sc), unmatched
	case fsm.GuardAnyOther:
		// The ∃ refinements satisfy the guard.
		if exists, matched, falseSc = e.splitExists(sc, r, matched); exists == condTrue {
			return append(matched, sc), unmatched
		}
		return matched, appendSc(unmatched, falseSc)
	case fsm.GuardNoOther:
		// The ∃ refinements fail the guard.
		if exists, unmatched, falseSc = e.splitExists(sc, r, unmatched); exists == condTrue {
			return matched, append(unmatched, sc)
		}
		return appendSc(matched, falseSc), unmatched
	default:
		return matched, append(unmatched, sc)
	}
}

func appendSc(list []*scenario, sc *scenario) []*scenario {
	if sc == nil {
		return list
	}
	return append(list, sc)
}

type cond int

const (
	condTrue cond = iota
	condFalse
	condAmbiguous
)

// splitExists decides "∃ another cache in one of rule r's guard states".
// When the answer is ambiguous it appends refined scenarios to trueScs: one
// per star class in the set pinned non-empty (their union covers the ∃
// case), and returns one with all of them pinned empty (the ∄ case).
// Infeasible refinements are dropped. In the definite-false cases the
// returned false scenario has the set's star classes zeroed out (they are
// provably empty), so downstream rules do not mistake ghost classes for
// populated ones. Only the ambiguous outcome appends to trueScs.
func (e *Engine) splitExists(sc *scenario, r *compile.Rule, trueScs []*scenario) (cond, []*scenario, *scenario) {
	zeroSet := func(from *scenario) *scenario {
		f := from.clone()
		for _, i := range r.GuardStates {
			if f.rem[i] == RStar {
				f.rem[i] = RZero
			}
		}
		if !e.propagate(f) {
			return nil
		}
		return f
	}

	// Fast path: when the tested set is exactly the valid-copy set and the
	// copy count is tracked, the bound decides existence outright.
	if r.GuardIsValidSet && sc.othersIval.lo >= 1 {
		return condTrue, trueScs, nil
	}
	if r.GuardIsValidSet && sc.othersIval.hi == 0 {
		return condFalse, trueScs, zeroSet(sc)
	}

	stars := false
	for _, i := range r.GuardStates {
		switch sc.rem[i] {
		case ROne, RPlus:
			return condTrue, trueScs, nil
		case RStar:
			stars = true
		}
	}
	if !stars {
		return condFalse, trueScs, sc
	}
	n0 := len(trueScs)
	for _, i := range r.GuardStates {
		if sc.rem[i] != RStar {
			continue
		}
		t := sc.clone()
		t.rem[i] = RPlus
		if e.propagate(t) {
			trueScs = append(trueScs, t)
		}
	}
	falseSc := zeroSet(sc)
	if len(trueScs) == n0 {
		if falseSc == nil {
			return condFalse, trueScs, sc // cannot happen for a normalized state
		}
		return condFalse, trueScs, falseSc
	}
	if falseSc == nil {
		// All-empty is infeasible: existence is certain.
		return condTrue, trueScs[:n0], nil
	}
	return condAmbiguous, trueScs, falseSc
}

// applyRule performs rule r on a guard-resolved scenario, branching over
// supplier choice and over copy-count ambiguity, and appends the
// successors to out (deduplicated against out[first:]).
func (e *Engine) applyRule(out []Succ, first int, sc *scenario, r *compile.Rule, k int, buf *stepBuf) ([]Succ, error) {
	if r.Source != fsm.SrcCache {
		return e.applySupplied(out, first, sc, r, k, DNone, buf), nil
	}
	supplied := false
	for _, i := range r.Suppliers {
		if !sc.rem[i].CanBePositive() {
			continue
		}
		t := sc.clone()
		if t.rem[i] == RStar {
			t.rem[i] = RPlus
		}
		if !e.propagate(t) {
			continue
		}
		supplied = true
		out = e.applySupplied(out, first, t, r, k, sc.src.CData(int(i)), buf)
	}
	if !supplied {
		rule := &e.p.Rules[r.ID]
		return out, fmt.Errorf("symbolic: protocol %s: rule %s fired with no possible supplier in %v",
			e.p.Name, rule.Name, rule.Data.Suppliers)
	}
	return out, nil
}

func (e *Engine) applySupplied(out []Succ, first int, sc *scenario, r *compile.Rule, k int, supplierData Data, buf *stepBuf) []Succ {
	// 1. Originator's incoming data and supplier write-back.
	var origVal Data
	newMdata := sc.src.mdata
	switch r.Source {
	case fsm.SrcNone:
		origVal = DNone
	case fsm.SrcKeep:
		origVal = sc.origData
	case fsm.SrcMemory:
		origVal = sc.src.mdata
	case fsm.SrcCache:
		origVal = supplierData
		if r.SupplierWriteBack {
			newMdata = supplierData
		}
	}

	// 2+3. Coincident transitions — pool every remaining class into its
	// observed target (aggregation rules) — fused with the abstract
	// copy-count arithmetic over the other caches.
	newReps, newData, hasContrib := buf.reps, buf.data, buf.contrib
	clear(newReps)
	clear(newData)
	clear(hasContrib)
	survivors := ival{0, 0}
	gained := ival{0, 0}
	allValidSurvive := true
	for c := 0; c < e.n; c++ {
		rc := sc.rem[c]
		if rc == RZero {
			continue
		}
		t := r.Obs[c]
		newReps[t] = merge(newReps[t], rc)
		contributes := e.valid[t]
		d := DNone
		if contributes {
			d = sc.src.CData(c)
		}
		if hasContrib[t] {
			newData[t] = mergeData(newData[t], d)
		} else {
			newData[t] = d
			hasContrib[t] = true
		}
		ri := ival{rc.Min(), rc.Max()}
		switch {
		case e.valid[c] && contributes:
			survivors = survivors.add(ri)
		case e.valid[c] && !contributes:
			allValidSurvive = false
		case !e.valid[c] && contributes:
			gained = gained.add(ri)
		}
	}
	var othersAfter ival
	var ok bool
	if allValidSurvive {
		othersAfter, ok = survivors.intersect(sc.othersIval)
	} else {
		othersAfter, ok = survivors.intersect(ival{0, sc.othersIval.hi})
	}
	if !ok {
		return out
	}
	othersAfter = othersAfter.add(gained)

	// 4. Store semantics on the context variables.
	if r.Store {
		for t := 0; t < e.n; t++ {
			newData[t] = downgrade(newData[t])
		}
		newMdata = downgrade(newMdata)
		origVal = DFresh
		if r.WriteThrough {
			newMdata = DFresh
		}
		if r.UpdateSharers {
			for t := 0; t < e.n; t++ {
				if e.valid[t] && newReps[t] != RZero {
					newData[t] = DFresh
				}
			}
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
	ni := r.Next
	newReps[ni] = addOne(newReps[ni])
	d := DNone
	if e.valid[ni] {
		d = origVal
	}
	if hasContrib[ni] {
		newData[ni] = mergeData(newData[ni], d)
	} else {
		newData[ni] = d
		hasContrib[ni] = true
	}

	total := othersAfter
	if e.valid[ni] {
		total = total.add(ival{1, 1})
	}

	// 7. Classify the new copy count and emit one successor per feasible
	// classification. A branch that decreases the classification below the
	// maximum corresponds to the paper's N-steps rule 4(b) (the same event
	// applied repeatedly until the characteristic function changes) and is
	// tagged NStep.
	label := Label{Op: e.cp.Ops[k], Origin: e.p.States[sc.origIdx]}
	rule := &e.p.Rules[r.ID]
	if e.p.Characteristic != fsm.CharSharing {
		if st, ok := e.normalize(newReps, newData, CountNull, newMdata); ok {
			out = appendSucc(out, first, Succ{Label: label, Rule: rule, State: st})
		}
		return out
	}
	counts, nc := total.counts()
	for _, cnt := range counts[:nc] {
		// normalize mutates its arguments, and every branch starts from
		// the same vectors.
		copy(buf.normReps, newReps)
		copy(buf.normData, newData)
		st, ok := e.normalize(buf.normReps, buf.normData, cnt, newMdata)
		if !ok {
			continue
		}
		label.NStep = nc > 1 && cnt != counts[nc-1]
		out = appendSucc(out, first, Succ{Label: label, Rule: rule, State: st})
	}
	return out
}

// normalize canonicalizes a candidate composite state against its copy-count
// attribute (pinning singletons, collapsing impossible star classes) and
// scrubs the context variables of empty and invalid classes. It reports
// false when the combination is infeasible. The slices are owned by the
// caller and may be modified.
func (e *Engine) normalize(reps []Rep, cdata []Data, attr Count, mdata Data) (*CState, bool) {
	if attr != CountNull {
		bound := attr.interval()
		if attr == CountZero {
			for _, i := range e.validIdxs {
				switch reps[i] {
				case ROne, RPlus:
					return nil, false
				case RStar:
					reps[i] = RZero
				}
			}
		}
		min, max := 0, 0
		nonZero := -1
		multi := false
		for _, i := range e.validIdxs {
			min += reps[i].Min()
			max += reps[i].Max()
			if reps[i] != RZero {
				if nonZero >= 0 {
					multi = true
				}
				nonZero = i
			}
		}
		if satur(min) > bound.hi || satur(max) < bound.lo {
			return nil, false
		}
		if attr == CountOne && min == 1 {
			// The definite instances already account for the single copy:
			// stars must be empty and plus classes are singletons.
			for _, i := range e.validIdxs {
				switch reps[i] {
				case RStar:
					reps[i] = RZero
				case RPlus:
					reps[i] = ROne
				}
			}
		}
		if nonZero >= 0 && !multi {
			// A single populated valid class: pin its operator to the
			// tightest form compatible with the copy count.
			switch attr {
			case CountOne:
				reps[nonZero] = ROne
			case CountMany:
				if reps[nonZero] == ROne {
					return nil, false
				}
				reps[nonZero] = RPlus
			}
		}
	}
	for i := 0; i < e.n; i++ {
		if reps[i] == RZero || !e.valid[i] {
			cdata[i] = DNone
		}
	}
	return newCState(reps, cdata, attr, mdata), true
}
