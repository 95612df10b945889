package symbolic

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/compile"
	"repro/internal/fsm"
	"repro/internal/mutate"
	"repro/internal/protocols"
	"repro/internal/randproto"
)

// The reference kernel: the Figure 3 rule step (Section 3.2.3) written
// one state class at a time over []Rep and []Data, frozen as an oracle.
// Successors must produce exactly its labels, rules, keys and spec errors,
// in its order, on every state the corpus below reaches. It shares no
// helper with the engine beyond the operator and data types and CState's
// exported accessors, so the engine's kernel can change shape freely.

type refIval struct{ lo, hi int }

type refCond int

const (
	refTrue refCond = iota
	refFalse
	refAmbiguous
)

func refSatur(x int) int {
	if x > manyCount {
		return manyCount
	}
	if x < 0 {
		return 0
	}
	return x
}

func (a refIval) add(b refIval) refIval {
	return refIval{refSatur(a.lo + b.lo), refSatur(a.hi + b.hi)}
}

func (a refIval) sub1() refIval {
	lo, hi := a.lo-1, a.hi
	if lo < 0 {
		lo = 0
	}
	if hi < manyCount {
		hi--
		if hi < 0 {
			hi = 0
		}
	}
	return refIval{lo, hi}
}

func (a refIval) intersect(b refIval) (refIval, bool) {
	lo, hi := a.lo, a.hi
	if b.lo > lo {
		lo = b.lo
	}
	if b.hi < hi {
		hi = b.hi
	}
	if lo > hi {
		return refIval{}, false
	}
	return refIval{lo, hi}, true
}

func (a refIval) counts() (cs [3]Count, n int) {
	if a.lo <= 0 && a.hi >= 0 {
		cs[n] = CountZero
		n++
	}
	if a.lo <= 1 && a.hi >= 1 {
		cs[n] = CountOne
		n++
	}
	if a.hi >= manyCount {
		cs[n] = CountMany
		n++
	}
	return cs, n
}

func refInterval(c Count) refIval {
	switch c {
	case CountZero:
		return refIval{0, 0}
	case CountOne:
		return refIval{1, 1}
	case CountMany:
		return refIval{manyCount, manyCount}
	default:
		return refIval{0, manyCount}
	}
}

func refMerge(a, b Rep) Rep {
	if a == RZero {
		return b
	}
	if b == RZero {
		return a
	}
	if a == RStar && b == RStar {
		return RStar
	}
	return RPlus
}

func refRemoveOne(r Rep) (Rep, error) {
	switch r {
	case ROne:
		return RZero, nil
	case RPlus:
		return RStar, nil
	default:
		return RZero, fmt.Errorf("symbolic: removeOne on %v", r)
	}
}

func refAddOne(r Rep) Rep {
	if r == RZero {
		return ROne
	}
	return RPlus
}

func refMergeData(a, b Data) Data {
	if a == DObsolete || b == DObsolete {
		return DObsolete
	}
	if a == DNone || b == DNone {
		return DNone
	}
	return DFresh
}

func refDowngrade(d Data) Data {
	if d == DFresh {
		return DObsolete
	}
	return d
}

// refKey renders the canonical key of a composite state.
func refKey(reps []Rep, cdata []Data, attr Count, mdata Data) string {
	key := make([]byte, 0, 2*len(reps)+3)
	for i, r := range reps {
		key = append(key, '0'+byte(r), 'a'+byte(cdata[i]))
	}
	return string(append(key, '|', '0'+byte(attr), 'a'+byte(mdata)))
}

type refKernel struct {
	p         *fsm.Protocol
	cp        *compile.Protocol
	n         int
	valid     []bool
	validIdxs []int
}

func newRefKernel(t testing.TB, p *fsm.Protocol) *refKernel {
	t.Helper()
	cp, err := compile.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	k := &refKernel{p: p, cp: cp, n: cp.NumStates, valid: cp.ValidCopy}
	for i, v := range k.valid {
		if v {
			k.validIdxs = append(k.validIdxs, i)
		}
	}
	return k
}

type refSucc struct {
	label Label
	rule  *fsm.Rule
	key   string
}

type refScenario struct {
	rem        []Rep
	src        *CState
	othersIval refIval
	origIdx    int
	origData   Data
}

func (sc *refScenario) clone() *refScenario {
	c := *sc
	c.rem = append([]Rep(nil), sc.rem...)
	return &c
}

func (k *refKernel) feasible(sc *refScenario) bool {
	min, max := 0, 0
	for _, i := range k.validIdxs {
		min += sc.rem[i].Min()
		max += sc.rem[i].Max()
	}
	return refSatur(min) <= sc.othersIval.hi && refSatur(max) >= sc.othersIval.lo
}

func (k *refKernel) propagate(sc *refScenario) bool {
	if !k.feasible(sc) {
		return false
	}
	b := sc.othersIval
	if b.hi == 0 {
		for _, i := range k.validIdxs {
			if sc.rem[i] == RStar {
				sc.rem[i] = RZero
			}
		}
		return true
	}
	if b.lo == b.hi && b.hi < manyCount {
		min := 0
		for _, i := range k.validIdxs {
			min += sc.rem[i].Min()
		}
		if min == b.hi {
			for _, i := range k.validIdxs {
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

// successors is the reference Successors.
func (k *refKernel) successors(s *CState) ([]refSucc, []error) {
	var out []refSucc
	var errs []error
	for oi := 0; oi < k.n; oi++ {
		if !s.Rep(oi).CanBePositive() {
			continue
		}
		for op := range k.cp.Ops {
			ids := k.cp.RuleIDs(oi, op)
			if len(ids) == 0 {
				continue
			}
			var err error
			if out, err = k.expandEvent(out, s, oi, op, ids); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return out, errs
}

func (k *refKernel) expandEvent(out []refSucc, s *CState, oi, op int, ids []int32) ([]refSucc, error) {
	base := &refScenario{rem: make([]Rep, k.n), src: s, origIdx: oi, origData: s.CData(oi)}
	for i := range base.rem {
		base.rem[i] = s.Rep(i)
	}
	if base.rem[oi] == RStar {
		base.rem[oi] = RPlus
	}
	rem, err := refRemoveOne(base.rem[oi])
	if err != nil {
		return out, err
	}
	base.rem[oi] = rem
	base.othersIval = refInterval(s.Attr())
	if k.valid[oi] && s.Attr() != CountNull {
		base.othersIval = base.othersIval.sub1()
	}
	if !k.propagate(base) {
		return out, nil
	}

	type pick struct {
		sc   *refScenario
		rule *compile.Rule
	}
	var picks []pick
	pending := []*refScenario{base}
	for _, id := range ids {
		if len(pending) == 0 {
			break
		}
		r := &k.cp.Rules[id]
		var matched, next []*refScenario
		for _, sc := range pending {
			matched, next = k.splitGuard(sc, r, matched, next)
		}
		for _, m := range matched {
			picks = append(picks, pick{m, r})
		}
		pending = next
	}
	var specErr error
	if len(pending) > 0 {
		specErr = fmt.Errorf("symbolic: protocol %s: guard cascade for (%s,%s) does not cover state %s",
			k.p.Name, k.p.States[oi], k.cp.Ops[op], s.StructureString(k.p))
	}
	first := len(out)
	for _, pk := range picks {
		var err error
		out, err = k.applyRule(out, first, pk.sc, pk.rule, op)
		if err != nil && specErr == nil {
			specErr = err
		}
	}
	return out, specErr
}

func refAppendSucc(out []refSucc, first int, su refSucc) []refSucc {
	for _, o := range out[first:] {
		if o.label.NStep == su.label.NStep && o.key == su.key {
			return out
		}
	}
	return append(out, su)
}

func (k *refKernel) splitGuard(sc *refScenario, r *compile.Rule, matched, unmatched []*refScenario) ([]*refScenario, []*refScenario) {
	var exists refCond
	var falseSc *refScenario
	switch r.GuardKind {
	case fsm.GuardAlways:
		return append(matched, sc), unmatched
	case fsm.GuardAnyOther:
		if exists, matched, falseSc = k.splitExists(sc, r, matched); exists == refTrue {
			return append(matched, sc), unmatched
		}
		if falseSc != nil {
			unmatched = append(unmatched, falseSc)
		}
		return matched, unmatched
	case fsm.GuardNoOther:
		if exists, unmatched, falseSc = k.splitExists(sc, r, unmatched); exists == refTrue {
			return matched, append(unmatched, sc)
		}
		if falseSc != nil {
			matched = append(matched, falseSc)
		}
		return matched, unmatched
	default:
		return matched, append(unmatched, sc)
	}
}

func (k *refKernel) splitExists(sc *refScenario, r *compile.Rule, trueScs []*refScenario) (refCond, []*refScenario, *refScenario) {
	zeroSet := func(from *refScenario) *refScenario {
		f := from.clone()
		for _, i := range r.GuardStates {
			if f.rem[i] == RStar {
				f.rem[i] = RZero
			}
		}
		if !k.propagate(f) {
			return nil
		}
		return f
	}
	if r.GuardIsValidSet && sc.othersIval.lo >= 1 {
		return refTrue, trueScs, nil
	}
	if r.GuardIsValidSet && sc.othersIval.hi == 0 {
		return refFalse, trueScs, zeroSet(sc)
	}
	stars := false
	for _, i := range r.GuardStates {
		switch sc.rem[i] {
		case ROne, RPlus:
			return refTrue, trueScs, nil
		case RStar:
			stars = true
		}
	}
	if !stars {
		return refFalse, trueScs, sc
	}
	n0 := len(trueScs)
	for _, i := range r.GuardStates {
		if sc.rem[i] != RStar {
			continue
		}
		t := sc.clone()
		t.rem[i] = RPlus
		if k.propagate(t) {
			trueScs = append(trueScs, t)
		}
	}
	falseSc := zeroSet(sc)
	if len(trueScs) == n0 {
		if falseSc == nil {
			return refFalse, trueScs, sc
		}
		return refFalse, trueScs, falseSc
	}
	if falseSc == nil {
		return refTrue, trueScs[:n0], nil
	}
	return refAmbiguous, trueScs, falseSc
}

func (k *refKernel) applyRule(out []refSucc, first int, sc *refScenario, r *compile.Rule, op int) ([]refSucc, error) {
	if r.Source != fsm.SrcCache {
		return k.applySupplied(out, first, sc, r, op, DNone), nil
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
		if !k.propagate(t) {
			continue
		}
		supplied = true
		out = k.applySupplied(out, first, t, r, op, sc.src.CData(int(i)))
	}
	if !supplied {
		rule := &k.p.Rules[r.ID]
		return out, fmt.Errorf("symbolic: protocol %s: rule %s fired with no possible supplier in %v",
			k.p.Name, rule.Name, rule.Data.Suppliers)
	}
	return out, nil
}

func (k *refKernel) applySupplied(out []refSucc, first int, sc *refScenario, r *compile.Rule, op int, supplierData Data) []refSucc {
	var origVal Data
	newMdata := sc.src.MData()
	switch r.Source {
	case fsm.SrcNone:
		origVal = DNone
	case fsm.SrcKeep:
		origVal = sc.origData
	case fsm.SrcMemory:
		origVal = sc.src.MData()
	case fsm.SrcCache:
		origVal = supplierData
		if r.SupplierWriteBack {
			newMdata = supplierData
		}
	}

	newReps := make([]Rep, k.n)
	newData := make([]Data, k.n)
	hasContrib := make([]bool, k.n)
	survivors := refIval{0, 0}
	gained := refIval{0, 0}
	allValidSurvive := true
	for c := 0; c < k.n; c++ {
		rc := sc.rem[c]
		if rc == RZero {
			continue
		}
		t := r.Obs[c]
		newReps[t] = refMerge(newReps[t], rc)
		contributes := k.valid[t]
		d := DNone
		if contributes {
			d = sc.src.CData(c)
		}
		if hasContrib[t] {
			newData[t] = refMergeData(newData[t], d)
		} else {
			newData[t] = d
			hasContrib[t] = true
		}
		ri := refIval{rc.Min(), rc.Max()}
		switch {
		case k.valid[c] && contributes:
			survivors = survivors.add(ri)
		case k.valid[c] && !contributes:
			allValidSurvive = false
		case !k.valid[c] && contributes:
			gained = gained.add(ri)
		}
	}
	var othersAfter refIval
	var ok bool
	if allValidSurvive {
		othersAfter, ok = survivors.intersect(sc.othersIval)
	} else {
		othersAfter, ok = survivors.intersect(refIval{0, sc.othersIval.hi})
	}
	if !ok {
		return out
	}
	othersAfter = othersAfter.add(gained)

	if r.Store {
		for t := 0; t < k.n; t++ {
			newData[t] = refDowngrade(newData[t])
		}
		newMdata = refDowngrade(newMdata)
		origVal = DFresh
		if r.WriteThrough {
			newMdata = DFresh
		}
		if r.UpdateSharers {
			for t := 0; t < k.n; t++ {
				if k.valid[t] && newReps[t] != RZero {
					newData[t] = DFresh
				}
			}
		}
	}
	if r.WriteBackSelf {
		newMdata = origVal
	}
	if r.DropSelf {
		origVal = DNone
	}

	ni := r.Next
	newReps[ni] = refAddOne(newReps[ni])
	d := DNone
	if k.valid[ni] {
		d = origVal
	}
	if hasContrib[ni] {
		newData[ni] = refMergeData(newData[ni], d)
	} else {
		newData[ni] = d
	}

	total := othersAfter
	if k.valid[ni] {
		total = total.add(refIval{1, 1})
	}

	label := Label{Op: k.cp.Ops[op], Origin: k.p.States[sc.origIdx]}
	rule := &k.p.Rules[r.ID]
	if k.p.Characteristic != fsm.CharSharing {
		if key, ok := k.normalize(newReps, newData, CountNull, newMdata); ok {
			out = refAppendSucc(out, first, refSucc{label: label, rule: rule, key: key})
		}
		return out
	}
	counts, nc := total.counts()
	for _, cnt := range counts[:nc] {
		reps := append([]Rep(nil), newReps...)
		data := append([]Data(nil), newData...)
		key, ok := k.normalize(reps, data, cnt, newMdata)
		if !ok {
			continue
		}
		label.NStep = nc > 1 && cnt != counts[nc-1]
		out = refAppendSucc(out, first, refSucc{label: label, rule: rule, key: key})
	}
	return out
}

// normalize returns the key of the normalized state; it modifies reps and
// cdata.
func (k *refKernel) normalize(reps []Rep, cdata []Data, attr Count, mdata Data) (string, bool) {
	if attr != CountNull {
		bound := refInterval(attr)
		if attr == CountZero {
			for _, i := range k.validIdxs {
				switch reps[i] {
				case ROne, RPlus:
					return "", false
				case RStar:
					reps[i] = RZero
				}
			}
		}
		min, max := 0, 0
		nonZero := -1
		multi := false
		for _, i := range k.validIdxs {
			min += reps[i].Min()
			max += reps[i].Max()
			if reps[i] != RZero {
				if nonZero >= 0 {
					multi = true
				}
				nonZero = i
			}
		}
		if refSatur(min) > bound.hi || refSatur(max) < bound.lo {
			return "", false
		}
		if attr == CountOne && min == 1 {
			for _, i := range k.validIdxs {
				switch reps[i] {
				case RStar:
					reps[i] = RZero
				case RPlus:
					reps[i] = ROne
				}
			}
		}
		if nonZero >= 0 && !multi {
			switch attr {
			case CountOne:
				reps[nonZero] = ROne
			case CountMany:
				if reps[nonZero] == ROne {
					return "", false
				}
				reps[nonZero] = RPlus
			}
		}
	}
	for i := 0; i < k.n; i++ {
		if reps[i] == RZero || !k.valid[i] {
			cdata[i] = DNone
		}
	}
	return refKey(reps, cdata, attr, mdata), true
}

// matchReference checks Successors against the reference kernel on the
// initial state, every essential state and every state the visit log
// records, and returns the number of states compared.
func matchReference(t testing.TB, p *fsm.Protocol) int {
	t.Helper()
	e, err := NewEngine(p)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	ref := newRefKernel(t, p)
	res := e.Expand(Options{RecordLog: true, MaxVisits: 20000})
	states := append([]*CState{e.Initial()}, res.Essential...)
	for _, v := range res.Log {
		states = append(states, v.To)
	}
	seen := map[string]bool{}
	for _, s := range states {
		if seen[s.Key()] {
			continue
		}
		seen[s.Key()] = true
		got, gotErrs := e.Successors(s)
		want, wantErrs := ref.successors(s)
		where := fmt.Sprintf("%s from %s", p.Name, s.Key())
		if len(got) != len(want) {
			t.Fatalf("%s: %d successors, reference has %d", where, len(got), len(want))
		}
		for i, su := range got {
			w := want[i]
			if su.Label != w.label || su.Rule != w.rule || su.State.Key() != w.key {
				t.Fatalf("%s: successor %d is %v %s %s, reference has %v %s %s",
					where, i, su.Label, su.Rule.Name, su.State.Key(), w.label, w.rule.Name, w.key)
			}
		}
		if fmt.Sprint(gotErrs) != fmt.Sprint(wantErrs) {
			t.Fatalf("%s: spec errors %v, reference has %v", where, gotErrs, wantErrs)
		}
	}
	return len(seen)
}

// TestSuccessorsMatchReference holds Successors to the reference kernel
// on the built-in protocols, every mutate.Catalog mutant of them, and 24
// random protocols: same labels, rules, keys and spec errors, in the
// same order.
func TestSuccessorsMatchReference(t *testing.T) {
	var corpus []*fsm.Protocol
	builtins, mutants := 0, 0
	for _, p := range protocols.All() {
		corpus = append(corpus, p)
		builtins++
		for _, m := range mutate.Catalog(p) {
			corpus = append(corpus, m.Protocol)
			mutants++
		}
	}
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		corpus = append(corpus, randproto.New(rng, 1+rng.Intn(4)))
	}
	states := 0
	for _, p := range corpus {
		states += matchReference(t, p)
	}
	t.Logf("%d built-ins, %d mutants, 24 random protocols: %d states compared", builtins, mutants, states)
}

// FuzzSuccessorsMatchReference runs the reference comparison on the
// random protocol a seed generates.
func FuzzSuccessorsMatchReference(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		matchReference(t, randproto.New(rng, 1+rng.Intn(4)))
	})
}
