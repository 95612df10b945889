package symbolic

import (
	"reflect"
	"testing"

	"repro/internal/fsm"
	"repro/internal/protocols"
)

func TestRepLEOrder(t *testing.T) {
	// The information order of Section 3.2.2: 1 < + < *, 0 < *.
	le := map[[2]Rep]bool{
		{RZero, RZero}: true, {RZero, ROne}: false, {RZero, RPlus}: false, {RZero, RStar}: true,
		{ROne, RZero}: false, {ROne, ROne}: true, {ROne, RPlus}: true, {ROne, RStar}: true,
		{RPlus, RZero}: false, {RPlus, ROne}: false, {RPlus, RPlus}: true, {RPlus, RStar}: true,
		{RStar, RZero}: false, {RStar, ROne}: false, {RStar, RPlus}: false, {RStar, RStar}: true,
	}
	for pair, want := range le {
		if got := pair[0].LE(pair[1]); got != want {
			t.Errorf("%v.LE(%v) = %v, want %v", pair[0], pair[1], got, want)
		}
	}
}

func TestRepLEMatchesCountSemantics(t *testing.T) {
	// r1 ≤ r2 must hold exactly when every count admitted by r1 is admitted
	// by r2, checking counts 0..3 (3 standing in for "many").
	admits := func(r Rep, n int) bool {
		switch r {
		case RZero:
			return n == 0
		case ROne:
			return n == 1
		case RPlus:
			return n >= 1
		default:
			return true
		}
	}
	reps := []Rep{RZero, ROne, RPlus, RStar}
	for _, a := range reps {
		for _, b := range reps {
			subset := true
			for n := 0; n <= 3; n++ {
				if admits(a, n) && !admits(b, n) {
					subset = false
				}
			}
			if got := a.LE(b); got != subset {
				t.Errorf("%v.LE(%v) = %v, but count-subset = %v", a, b, got, subset)
			}
		}
	}
}

func TestRepMergeAggregation(t *testing.T) {
	// The aggregation rules of Section 3.2.3.
	cases := []struct {
		a, b, want Rep
	}{
		{RZero, RZero, RZero},
		{RZero, ROne, ROne},
		{RZero, RPlus, RPlus},
		{RZero, RStar, RStar},
		{ROne, ROne, RPlus},
		{ROne, RPlus, RPlus},
		{ROne, RStar, RPlus},
		{RPlus, RPlus, RPlus},
		{RPlus, RStar, RPlus},
		{RStar, RStar, RStar},
	}
	for _, tc := range cases {
		if got := merge(tc.a, tc.b); got != tc.want {
			t.Errorf("merge(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got := merge(tc.b, tc.a); got != tc.want {
			t.Errorf("merge(%v,%v) = %v, want %v (commutativity)", tc.b, tc.a, got, tc.want)
		}
	}
}

func TestRepMergeSoundness(t *testing.T) {
	// merge(a,b) must admit every sum of counts admitted by a and b
	// individually (checking 0..2 per side).
	admits := func(r Rep, n int) bool {
		switch r {
		case RZero:
			return n == 0
		case ROne:
			return n == 1
		case RPlus:
			return n >= 1
		default:
			return true
		}
	}
	reps := []Rep{RZero, ROne, RPlus, RStar}
	for _, a := range reps {
		for _, b := range reps {
			m := merge(a, b)
			for x := 0; x <= 2; x++ {
				for y := 0; y <= 2; y++ {
					if admits(a, x) && admits(b, y) && !admits(m, x+y) {
						t.Errorf("merge(%v,%v)=%v does not admit %d+%d", a, b, m, x, y)
					}
				}
			}
		}
	}
}

func TestRemoveAndAddOne(t *testing.T) {
	if r, err := removeOne(ROne); err != nil || r != RZero {
		t.Errorf("removeOne(1) = %v, %v", r, err)
	}
	if r, err := removeOne(RPlus); err != nil || r != RStar {
		t.Errorf("removeOne(+) = %v, %v", r, err)
	}
	if _, err := removeOne(RZero); err == nil {
		t.Error("removeOne(0) must fail")
	}
	if _, err := removeOne(RStar); err == nil {
		t.Error("removeOne(*) must fail: refine to + first")
	}
	if addOne(RZero) != ROne || addOne(ROne) != RPlus ||
		addOne(RPlus) != RPlus || addOne(RStar) != RPlus {
		t.Error("addOne table wrong")
	}
}

func TestRepSuffixAndString(t *testing.T) {
	if ROne.Suffix() != "" || RPlus.Suffix() != "+" || RStar.Suffix() != "*" {
		t.Error("Suffix forms wrong")
	}
	if RZero.String() != "0" || ROne.String() != "1" || RPlus.String() != "+" || RStar.String() != "*" {
		t.Error("String forms wrong")
	}
}

func TestIvalArithmetic(t *testing.T) {
	a := ival{1, 1}
	b := ival{0, 2}
	if s := a.add(b); s.lo != 1 || s.hi != 2 {
		t.Errorf("add = %v", s)
	}
	if s := (ival{2, 2}).sub1(); s.lo != 1 || s.hi != 2 {
		t.Errorf("(≥2)-1 = %v, want [1,≥2]", s)
	}
	if s := (ival{1, 1}).sub1(); s.lo != 0 || s.hi != 0 {
		t.Errorf("(1)-1 = %v, want [0,0]", s)
	}
	if s := (ival{0, 0}).sub1(); s.lo != 0 || s.hi != 0 {
		t.Errorf("(0)-1 = %v, want [0,0] (saturated)", s)
	}
	if s, ok := a.intersect(b); !ok || s.lo != 1 || s.hi != 1 {
		t.Errorf("intersect = %v, %v", s, ok)
	}
	if _, ok := (ival{0, 0}).intersect(ival{1, 2}); ok {
		t.Error("disjoint intervals must not intersect")
	}
}

func TestIvalCounts(t *testing.T) {
	for _, tc := range []struct {
		iv   ival
		want []Count
	}{
		{ival{0, 2}, []Count{CountZero, CountOne, CountMany}},
		{ival{1, 1}, []Count{CountOne}},
		{ival{2, 2}, []Count{CountMany}},
		{ival{1, 2}, []Count{CountOne, CountMany}},
	} {
		cs, n := tc.iv.counts()
		if !reflect.DeepEqual(cs[:n], tc.want) {
			t.Errorf("counts(%v) = %v, want %v", tc.iv, cs[:n], tc.want)
		}
	}
}

func TestCountInterval(t *testing.T) {
	if CountZero.interval() != (ival{0, 0}) ||
		CountOne.interval() != (ival{1, 1}) ||
		CountMany.interval() != (ival{2, 2}) ||
		CountNull.interval() != (ival{0, 2}) {
		t.Error("Count.interval table wrong")
	}
}

func TestMergeDataPessimism(t *testing.T) {
	cases := []struct {
		a, b, want Data
	}{
		{DFresh, DFresh, DFresh},
		{DFresh, DObsolete, DObsolete},
		{DObsolete, DObsolete, DObsolete},
		{DNone, DNone, DNone},
		{DNone, DFresh, DNone},
		{DNone, DObsolete, DObsolete},
	}
	for _, tc := range cases {
		if got := mergeData(tc.a, tc.b); got != tc.want {
			t.Errorf("mergeData(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got := mergeData(tc.b, tc.a); got != tc.want {
			t.Errorf("mergeData(%v,%v) = %v, want %v (commutativity)", tc.b, tc.a, got, tc.want)
		}
	}
}

func TestDowngrade(t *testing.T) {
	if downgrade(DFresh) != DObsolete || downgrade(DObsolete) != DObsolete || downgrade(DNone) != DNone {
		t.Error("downgrade table wrong")
	}
}

func illinoisEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(protocols.Illinois())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// mk builds a normalized Illinois composite state; reps/cdata are in the
// state order Invalid, Valid-Exclusive, Shared, Dirty.
func mk(t *testing.T, e *Engine, reps []Rep, cdata []Data, attr Count, mdata Data) *CState {
	t.Helper()
	s, ok := e.MakeState(reps, cdata, attr, mdata)
	if !ok {
		t.Fatalf("MakeState(%v, %v, %v, %v) infeasible", reps, cdata, attr, mdata)
	}
	return s
}

func TestStructureString(t *testing.T) {
	e := illinoisEngine(t)
	s := mk(t, e,
		[]Rep{RStar, RZero, RPlus, RZero},
		[]Data{DNone, DNone, DFresh, DNone},
		CountMany, DFresh)
	if got := s.StructureString(e.Protocol()); got != "(Invalid*, Shared+)" {
		t.Errorf("StructureString = %q", got)
	}
	if got := s.Attr(); got != CountMany {
		t.Errorf("Attr = %v", got)
	}
}

func TestContainsRequiresEqualAttr(t *testing.T) {
	e := illinoisEngine(t)
	// s3 = (Shared+, Invalid*) with two or more copies.
	s3 := mk(t, e,
		[]Rep{RStar, RZero, RPlus, RZero},
		[]Data{DNone, DNone, DFresh, DNone},
		CountMany, DFresh)
	// s4 = (Shared, Invalid+) with exactly one copy.
	s4 := mk(t, e,
		[]Rep{RPlus, RZero, ROne, RZero},
		[]Data{DNone, DNone, DFresh, DNone},
		CountOne, DFresh)
	if !Covers(s3, s4) {
		t.Error("s3 must structurally cover s4 (Shared ≤ Shared+, Invalid+ ≤ Invalid*)")
	}
	if Contains(s3, s4) {
		t.Error("s3 must NOT contain s4: different characteristic-function values (paper Section 4)")
	}
}

func TestContainsReflexive(t *testing.T) {
	e := illinoisEngine(t)
	s := e.Initial()
	if !Contains(s, s) || !Covers(s, s) {
		t.Error("containment must be reflexive")
	}
}

func TestContainsChecksContextVariables(t *testing.T) {
	e := illinoisEngine(t)
	fresh := mk(t, e,
		[]Rep{RStar, RZero, RZero, ROne},
		[]Data{DNone, DNone, DNone, DFresh},
		CountOne, DObsolete)
	// Same structure, but the Dirty class data differs.
	stale := mk(t, e,
		[]Rep{RStar, RZero, RZero, ROne},
		[]Data{DNone, DNone, DNone, DObsolete},
		CountOne, DObsolete)
	// The obsolete annotation is a may-stale upper bound: it subsumes the
	// fresh variant, but never the other way around (that would let the
	// pruning hide a stale state behind a fresh one).
	if !Contains(stale, fresh) {
		t.Error("a may-stale class must contain its fresh counterpart")
	}
	if Contains(fresh, stale) {
		t.Error("a fresh class must NOT contain a may-stale one")
	}
}

func TestDataLEOrder(t *testing.T) {
	le := map[[2]Data]bool{
		{DFresh, DFresh}: true, {DFresh, DNone}: false, {DFresh, DObsolete}: true,
		{DNone, DFresh}: false, {DNone, DNone}: true, {DNone, DObsolete}: true,
		{DObsolete, DFresh}: false, {DObsolete, DNone}: false, {DObsolete, DObsolete}: true,
	}
	for pair, want := range le {
		if got := pair[0].LE(pair[1]); got != want {
			t.Errorf("%v.LE(%v) = %v, want %v", pair[0], pair[1], got, want)
		}
	}
}

func TestDataOperationsMonotone(t *testing.T) {
	// Every engine data operation must be monotone under Data.LE, the
	// property that makes context-variable containment sound.
	all := []Data{DNone, DFresh, DObsolete}
	for _, a := range all {
		for _, b := range all {
			if !a.LE(b) {
				continue
			}
			if !downgrade(a).LE(downgrade(b)) {
				t.Errorf("downgrade not monotone at %v ⊑ %v", a, b)
			}
			for _, c := range all {
				if !mergeData(a, c).LE(mergeData(b, c)) {
					t.Errorf("mergeData not monotone at %v ⊑ %v with %v", a, b, c)
				}
			}
		}
	}
}

func TestContainsIgnoresDataOfEmptyClasses(t *testing.T) {
	e := illinoisEngine(t)
	big := mk(t, e,
		[]Rep{RStar, RZero, RStar, RZero},
		[]Data{DNone, DNone, DFresh, DNone},
		CountNull, DFresh)
	small := mk(t, e,
		[]Rep{RPlus, RZero, RZero, RZero},
		[]Data{DNone, DNone, DNone, DNone},
		CountNull, DFresh)
	if !Contains(big, small) {
		t.Error("an empty class's context variable must not block containment")
	}
}

func TestKeysDistinguishStates(t *testing.T) {
	e := illinoisEngine(t)
	a := mk(t, e,
		[]Rep{RPlus, RZero, RZero, RZero},
		[]Data{DNone, DNone, DNone, DNone},
		CountZero, DFresh)
	b := mk(t, e,
		[]Rep{RPlus, RZero, RZero, RZero},
		[]Data{DNone, DNone, DNone, DNone},
		CountZero, DObsolete)
	if a.Key() == b.Key() {
		t.Error("mdata must be part of the state identity")
	}
	if a.Key() != e.Initial().Key() {
		t.Error("identical components must produce identical keys")
	}
}

func TestNormalizePinsSingleCopyClass(t *testing.T) {
	e := illinoisEngine(t)
	// A star class with exactly one copy in total pins to a singleton.
	s := mk(t, e,
		[]Rep{RPlus, RZero, RStar, RZero},
		[]Data{DNone, DNone, DFresh, DNone},
		CountOne, DFresh)
	if s.Rep(e.Protocol().StateIndex("Shared")) != ROne {
		t.Errorf("Shared* with one copy must pin to Shared¹, got %v", s.Rep(2))
	}
}

func TestNormalizeZeroCopies(t *testing.T) {
	e := illinoisEngine(t)
	s := mk(t, e,
		[]Rep{RPlus, RStar, RStar, RStar},
		[]Data{DNone, DFresh, DFresh, DFresh},
		CountZero, DFresh)
	for _, name := range []fsm.State{"Valid-Exclusive", "Shared", "Dirty"} {
		i := e.Protocol().StateIndex(name)
		if s.Rep(i) != RZero {
			t.Errorf("%s must be empty with zero copies, got %v", name, s.Rep(i))
		}
		if s.CData(i) != DNone {
			t.Errorf("%s of an empty class must have nodata", name)
		}
	}
}

func TestNormalizeInfeasibleCombinations(t *testing.T) {
	e := illinoisEngine(t)
	// Two definite copies but the attribute says one.
	if _, ok := e.MakeState(
		[]Rep{RPlus, ROne, ROne, RZero},
		[]Data{DNone, DFresh, DFresh, DNone},
		CountOne, DFresh); ok {
		t.Error("two definite copies with copies=1 must be infeasible")
	}
	// A single singleton class with copies≥2.
	if _, ok := e.MakeState(
		[]Rep{RPlus, ROne, RZero, RZero},
		[]Data{DNone, DFresh, DNone, DNone},
		CountMany, DFresh); ok {
		t.Error("a lone singleton with copies≥2 must be infeasible")
	}
	// Definite copy with copies=0.
	if _, ok := e.MakeState(
		[]Rep{RPlus, ROne, RZero, RZero},
		[]Data{DNone, DFresh, DNone, DNone},
		CountZero, DFresh); ok {
		t.Error("a definite copy with copies=0 must be infeasible")
	}
}

func TestNormalizeTightensLoneStarToMany(t *testing.T) {
	e := illinoisEngine(t)
	s := mk(t, e,
		[]Rep{RStar, RZero, RStar, RZero},
		[]Data{DNone, DNone, DFresh, DNone},
		CountMany, DFresh)
	if s.Rep(e.Protocol().StateIndex("Shared")) != RPlus {
		t.Errorf("lone Shared* with copies≥2 must tighten to Shared+, got %v", s.Rep(2))
	}
}

func TestSortStatesDeterministic(t *testing.T) {
	e := illinoisEngine(t)
	res := e.Expand(Options{})
	a := SortStates(res.Essential)
	b := SortStates(res.Essential)
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatal("SortStates must be deterministic")
		}
	}
	if len(a) != len(res.Essential) {
		t.Fatal("SortStates must preserve length")
	}
}
