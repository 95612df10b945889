package symbolic

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/fsm"
)

// Rep is a repetition operator (Definition 6 plus the null instance of
// footnote 3).
type Rep uint8

const (
	// RZero is the null instance: no cache is in the state.
	RZero Rep = iota
	// ROne is the singleton: exactly one cache is in the state.
	ROne
	// RPlus means at least one cache is in the state.
	RPlus
	// RStar means zero or more caches are in the state.
	RStar
)

func (r Rep) String() string {
	switch r {
	case RZero:
		return "0"
	case ROne:
		return "1"
	case RPlus:
		return "+"
	case RStar:
		return "*"
	default:
		return fmt.Sprintf("Rep(%d)", int(r))
	}
}

// Suffix renders the operator as the superscript used in composite-state
// notation: empty for a singleton, "+"/"*" otherwise.
func (r Rep) Suffix() string {
	switch r {
	case ROne:
		return ""
	case RPlus:
		return "+"
	case RStar:
		return "*"
	default:
		return "?"
	}
}

// LE reports the information order of Section 3.2.2: 1 < + < * and 0 < *.
// r.LE(s) is true when every instance count admitted by r is admitted by s.
func (r Rep) LE(s Rep) bool {
	switch r {
	case RZero:
		return s == RZero || s == RStar
	case ROne:
		return s == ROne || s == RPlus || s == RStar
	case RPlus:
		return s == RPlus || s == RStar
	case RStar:
		return s == RStar
	default:
		return false
	}
}

// Min returns the smallest instance count admitted by r.
func (r Rep) Min() int {
	if r == ROne || r == RPlus {
		return 1
	}
	return 0
}

// Max returns the largest instance count admitted by r, saturated at
// manyCount (2, standing for "two or more").
func (r Rep) Max() int {
	switch r {
	case RZero:
		return 0
	case ROne:
		return 1
	default:
		return manyCount
	}
}

// CanBePositive reports whether the class may contain at least one cache.
func (r Rep) CanBePositive() bool { return r != RZero }

// merge returns the operator of the class obtained by pooling two classes of
// the same state symbol (the aggregation rules of Section 3.2.3).
func merge(a, b Rep) Rep {
	if a == RZero {
		return b
	}
	if b == RZero {
		return a
	}
	if a == RStar && b == RStar {
		return RStar
	}
	// Any combination involving a definite instance (1 or +) yields +; so
	// does * pooled with 1 or +.
	return RPlus
}

// removeOne returns the operator after one cache leaves the class. The class
// must admit at least one instance (rep 1 or +; callers refine * to + before
// originating a transition from a star class).
func removeOne(r Rep) (Rep, error) {
	switch r {
	case ROne:
		return RZero, nil
	case RPlus:
		return RStar, nil
	default:
		return RZero, fmt.Errorf("symbolic: removeOne on %v", r)
	}
}

// addOne returns the operator after one cache joins the class.
func addOne(r Rep) Rep {
	switch r {
	case RZero:
		return ROne
	default:
		// 1+1, ++1 and *+1 all guarantee at least one instance.
		return RPlus
	}
}

// manyCount saturates abstract cache counts: 2 stands for "two or more".
const manyCount = 2

// Count is the copy-count classification of Appendix A.1, the stored value
// of the sharing-detection characteristic function.
type Count uint8

const (
	// CountNull is used by protocols with a null characteristic function.
	CountNull Count = iota
	// CountZero: no cache holds a valid copy (v1).
	CountZero
	// CountOne: exactly one cache holds a valid copy (v2).
	CountOne
	// CountMany: two or more caches hold valid copies (v3).
	CountMany
)

func (c Count) String() string {
	switch c {
	case CountNull:
		return "F=null"
	case CountZero:
		return "copies=0"
	case CountOne:
		return "copies=1"
	case CountMany:
		return "copies≥2"
	default:
		return fmt.Sprintf("Count(%d)", int(c))
	}
}

// interval returns the abstract count interval [lo, hi] with hi saturated at
// manyCount; CountNull yields the unconstrained interval.
func (c Count) interval() ival {
	switch c {
	case CountZero:
		return ival{0, 0}
	case CountOne:
		return ival{1, 1}
	case CountMany:
		return ival{manyCount, manyCount}
	default:
		return ival{0, manyCount}
	}
}

// ival is a saturated interval over abstract counts {0, 1, ≥2}; hi and lo of
// manyCount mean "two or more".
type ival struct{ lo, hi int }

func (a ival) add(b ival) ival {
	return ival{satur(a.lo + b.lo), satur(a.hi + b.hi)}
}

func (a ival) sub1() ival {
	lo, hi := a.lo-1, a.hi
	if lo < 0 {
		lo = 0
	}
	// hi == manyCount means "unbounded above", so subtracting one cache
	// still leaves "possibly two or more".
	if hi < manyCount {
		hi--
		if hi < 0 {
			hi = 0
		}
	}
	return ival{lo, hi}
}

func (a ival) intersect(b ival) (ival, bool) {
	lo, hi := a.lo, a.hi
	if b.lo > lo {
		lo = b.lo
	}
	if b.hi < hi {
		hi = b.hi
	}
	if lo > hi {
		return ival{}, false
	}
	return ival{lo, hi}, true
}

func satur(x int) int {
	if x > manyCount {
		return manyCount
	}
	if x < 0 {
		return 0
	}
	return x
}

// counts returns the Count classifications compatible with the interval,
// in increasing order, as the first n entries of cs.
func (a ival) counts() (cs [3]Count, n int) {
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

// Data is an abstract data value of a context variable (Definition 4 and
// Section 2.4): cdata ranges over {nodata, fresh, obsolete} and mdata over
// {fresh, obsolete}.
type Data uint8

const (
	// DNone: the cache holds no data copy.
	DNone Data = iota
	// DFresh: the copy carries the value of the most recent store.
	DFresh
	// DObsolete: the copy carries a value older than the most recent store.
	DObsolete
)

func (d Data) String() string {
	switch d {
	case DNone:
		return "nodata"
	case DFresh:
		return "fresh"
	case DObsolete:
		return "obsolete"
	default:
		return fmt.Sprintf("Data(%d)", int(d))
	}
}

// mergeData pools the context variables of two classes that fall together.
// The merge is pessimistic for error detection: an obsolete contribution
// dominates, then nodata, then fresh, so a potentially stale readable copy
// is never masked.
func mergeData(a, b Data) Data {
	if a == DObsolete || b == DObsolete {
		return DObsolete
	}
	if a == DNone || b == DNone {
		// Pooling fresh with nodata can only happen in ill-formed
		// (mutated) protocols; keep the anomaly visible.
		if a == DFresh || b == DFresh {
			return DNone
		}
		return DNone
	}
	return DFresh
}

// downgrade maps fresh to obsolete: the effect of a store on every copy that
// is not explicitly updated.
func downgrade(d Data) Data {
	if d == DFresh {
		return DObsolete
	}
	return d
}

// LE is the information order on context variables: a class annotated
// obsolete stands for members whose copies MAY be stale, which subsumes
// members with fresh copies (the annotation arises from the pessimistic
// mergeData). fresh ⊑ obsolete and nodata ⊑ obsolete; fresh and nodata are
// incomparable. Every data operation of the engine (copy, mergeData,
// downgrade, constant-fresh update) is monotone with respect to this order,
// which is what makes containment-based pruning sound for the context
// variables (the analogue of Lemma 2 for Definition 4's M component).
func (d Data) LE(e Data) bool {
	return d == e || e == DObsolete && (d == DFresh || d == DNone)
}

// CState is an augmented composite state: a repetition operator and a
// context variable per protocol state symbol, the characteristic-function
// attribute, and the memory context variable. CStates are immutable after
// construction; share them freely.
//
// The component vectors are held twice: as bitmasks, one bit per state
// symbol (a protocol has at most 64, see ErrTooManyStates), which the rule
// step and the containment tests of Definitions 8 and 9 read as word
// operations; and as the canonical key, where class i's operator and
// context variable are bytes 2i and 2i+1, which the accessors decode.
type CState struct {
	key   string
	attr  Count
	mdata Data
	cmask
}

// ops is a vector of repetition operators as bitmasks: the classes whose
// operator is 1, + or * (no bit: the null instance). The masks are
// disjoint.
type ops struct{ one, plus, star uint64 }

// cmask is a composite state's component vectors as bitmasks: the
// operators, and the classes whose context variable is fresh or obsolete
// (neither: nodata).
type cmask struct {
	ops
	fresh, obs uint64
}

// occ returns the occupancy pattern: every class that may hold at least
// one cache.
func (o ops) occ() uint64 { return o.one | o.plus | o.star }

// rep returns class i's operator.
func (o ops) rep(i int) Rep {
	return Rep(o.one>>i&1 | o.plus>>i&1*2 | o.star>>i&1*3)
}

// set makes r class i's operator.
func (o *ops) set(i int, r Rep) {
	bit := uint64(1) << i
	o.one, o.plus, o.star = o.one&^bit, o.plus&^bit, o.star&^bit
	switch r {
	case ROne:
		o.one |= bit
	case RPlus:
		o.plus |= bit
	case RStar:
		o.star |= bit
	}
}

// pooled returns the operator of the class that pools the non-empty
// classes in m (the aggregation rules): merge folded over their operators.
// The fold is * when every member is *, and + otherwise, so the members
// after the first collapse to one operand.
func (o ops) pooled(m uint64) Rep {
	r := o.rep(bits.TrailingZeros64(m))
	if rest := m & (m - 1); rest != 0 {
		rr := RPlus
		if rest&^o.star == 0 {
			rr = RStar
		}
		r = merge(r, rr)
	}
	return r
}

// count returns the saturated interval of the cache counts the classes in
// m admit together: the sum of their operators' Min and Max.
func (o ops) count(m uint64) ival {
	c := ival{satur(bits.OnesCount64((o.one | o.plus) & m)), manyCount}
	if (o.plus|o.star)&m == 0 {
		c.hi = satur(bits.OnesCount64(o.one & m))
	}
	return c
}

// pin tightens the classes in m to a count already met by their definite
// instances: stars become empty and plus classes singletons.
func (o *ops) pin(m uint64) {
	o.one |= o.plus & m
	o.plus &^= m
	o.star &^= m
}

// data returns class i's context variable.
func (m cmask) data(i int) Data { return Data(m.fresh>>i&1 | m.obs>>i&1*2) }

// setData makes d class i's context variable.
func (m *cmask) setData(i int, d Data) {
	bit := uint64(1) << i
	m.fresh, m.obs = m.fresh&^bit, m.obs&^bit
	switch d {
	case DFresh:
		m.fresh |= bit
	case DObsolete:
		m.obs |= bit
	}
}

// pooledData returns mergeData folded over the context variables of the
// classes in m (non-empty): the largest of them in the order
// fresh < nodata < obsolete.
func (m cmask) pooledData(in uint64) Data {
	switch {
	case in&m.obs != 0:
		return DObsolete
	case in&^m.fresh != 0:
		return DNone
	}
	return DFresh
}

// masksOf converts explicit component vectors (at most 64 classes).
func masksOf(reps []Rep, cdata []Data) cmask {
	var m cmask
	for i, r := range reps {
		m.set(i, r)
		m.setData(i, cdata[i])
	}
	return m
}

// Key returns a canonical identity string. Two CStates are equal exactly
// when their keys are equal.
func (s *CState) Key() string { return s.key }

// Attr returns the characteristic-function attribute (copy-count class).
func (s *CState) Attr() Count { return s.attr }

// MData returns the memory context variable.
func (s *CState) MData() Data { return s.mdata }

// Rep returns the repetition operator of state index i.
func (s *CState) Rep(i int) Rep { return Rep(s.key[2*i] - '0') }

// CData returns the context variable of state index i.
func (s *CState) CData(i int) Data { return Data(s.key[2*i+1] - 'a') }

// NumClasses returns the number of state symbols (|Q|).
func (s *CState) NumClasses() int { return (len(s.key) - keyTail) / 2 }

// keyTail is the length of the key's "|<attr><mdata>" suffix.
const keyTail = 3

// emptyKey is the key prefix of a state whose classes are all empty with
// nodata.
var emptyKey = strings.Repeat("0a", 64)

// newCState builds a state of n classes from its masks.
func newCState(n int, m cmask, attr Count, mdata Data) *CState {
	var small [2*64 + keyTail]byte
	key := small[:2*n+keyTail]
	copy(key, emptyKey)
	for b := m.occ(); b != 0; b &= b - 1 {
		i := bits.TrailingZeros64(b)
		key[2*i] = '0' + byte(m.rep(i))
	}
	for b := m.fresh | m.obs; b != 0; b &= b - 1 {
		i := bits.TrailingZeros64(b)
		key[2*i+1] = 'a' + byte(m.data(i))
	}
	key[2*n] = '|'
	key[2*n+1] = '0' + byte(attr)
	key[2*n+2] = 'a' + byte(mdata)
	return &CState{key: string(key), attr: attr, mdata: mdata, cmask: m}
}

// StructureString renders the composite state in the paper's notation,
// listing non-empty classes with their repetition suffixes, e.g.
// "(Shared+, Invalid*)".
func (s *CState) StructureString(p *fsm.Protocol) string {
	var parts []string
	for i := 0; i < s.NumClasses(); i++ {
		if r := s.Rep(i); r != RZero {
			parts = append(parts, string(p.States[i])+r.Suffix())
		}
	}
	if len(parts) == 0 {
		return "(empty)"
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// ContextString renders the context variables, e.g.
// "cdata=(Shared:fresh) mdata=fresh copies≥2".
func (s *CState) ContextString(p *fsm.Protocol) string {
	var parts []string
	for i := 0; i < s.NumClasses(); i++ {
		if s.Rep(i) != RZero {
			parts = append(parts, fmt.Sprintf("%s:%s", p.States[i], s.CData(i)))
		}
	}
	out := "cdata=(" + strings.Join(parts, ", ") + ") mdata=" + s.mdata.String()
	if s.attr != CountNull {
		out += " " + s.attr.String()
	}
	return out
}

// Covers reports structural covering (Definition 8): big covers small when
// every class operator of small is ≤ the corresponding operator of big.
//
// It evaluates all |Q| per-class LE comparisons at once: under the
// operator order (1 ≤ +,*; + ≤ *; 0 ≤ *) covering holds exactly when
// small's star classes are star in big, small's plus classes are at least
// plus, small's singletons are occupied, and big has no definite class
// (1 or +) where small is empty.
func Covers(big, small *CState) bool {
	return len(big.key) == len(small.key) &&
		small.star&^big.star == 0 &&
		small.plus&^(big.plus|big.star) == 0 &&
		small.one&^big.occ() == 0 &&
		(big.one|big.plus)&^small.occ() == 0
}

// Contains reports containment ⊆_F (Definition 9): structural covering plus
// equal characteristic-function value. The context variables (Definition 4)
// must additionally be subsumed under the Data information order on every
// class that small can populate — big's annotations may be more pessimistic
// (obsolete subsumes fresh), never less, so an erroneous member of small's
// family is always represented in big's.
func Contains(big, small *CState) bool {
	if !Covers(big, small) || big.attr != small.attr || !small.mdata.LE(big.mdata) {
		return false
	}
	// d.LE(e) fails exactly when d != e and e is not obsolete; restrict the
	// check to small's occupied classes.
	diff := (small.fresh ^ big.fresh) | (small.obs ^ big.obs)
	return small.occ()&diff&^big.obs == 0
}
