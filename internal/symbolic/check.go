package symbolic

import (
	"fmt"

	"repro/internal/fsm"
)

// Check evaluates the protocol invariants over a composite state and returns
// every violation that SOME concretization of the state would exhibit. The
// check is possibilistic: because a composite state stands for a family of
// concrete global states, a violation is reported as soon as one member of
// the family violates an invariant, taking the copy-count attribute into
// account (e.g. (Dirty*, Shared*) with exactly one copy cannot actually put
// a Dirty and a Shared cache side by side).
//
// With strict set, the CleanShared memory-consistency check (an extension
// beyond the paper's Definition 3) is evaluated as well.
func (e *Engine) Check(s *CState, strict bool) []fsm.Violation {
	var out []fsm.Violation
	p := e.p

	// Exclusive states must be the sole valid copy.
	for _, x := range e.exclusive {
		if s.Rep(x) == RZero {
			continue
		}
		// Pairing with another populated valid class.
		for _, t := range e.validIdxs {
			if t == x || s.Rep(t) == RZero {
				continue
			}
			if e.possible(s, x, 1, t, 1) {
				out = append(out, fsm.Violation{
					Kind: fsm.ViolationExclusive,
					Detail: fmt.Sprintf("exclusive state %s may coexist with a copy in %s in %s",
						p.States[x], p.States[t], s.StructureString(p)),
				})
			}
		}
		// Two caches in the exclusive state itself.
		if s.Rep(x).Max() >= 2 && e.possible(s, x, 2, -1, 0) {
			out = append(out, fsm.Violation{
				Kind: fsm.ViolationExclusive,
				Detail: fmt.Sprintf("two caches may hold exclusive state %s in %s",
					p.States[x], s.StructureString(p)),
			})
		}
	}

	// At most one owner across all owner states.
	for i, a := range e.owners {
		if s.Rep(a) == RZero {
			continue
		}
		if s.Rep(a).Max() >= 2 && e.possible(s, a, 2, -1, 0) {
			// Reported even when the state is also exclusive (which yields
			// its own violation): the concrete checker reports both kinds,
			// and the differential tests require kind-for-kind agreement.
			out = append(out, fsm.Violation{
				Kind: fsm.ViolationOwners,
				Detail: fmt.Sprintf("two caches may own the block in state %s in %s",
					p.States[a], s.StructureString(p)),
			})
		}
		for _, b := range e.owners[i+1:] {
			if s.Rep(b) == RZero {
				continue
			}
			if e.possible(s, a, 1, b, 1) {
				out = append(out, fsm.Violation{
					Kind: fsm.ViolationOwners,
					Detail: fmt.Sprintf("owners in %s and %s may coexist in %s",
						p.States[a], p.States[b], s.StructureString(p)),
				})
			}
		}
	}

	// Data consistency (Definition 3): a readable copy must be fresh.
	for _, r := range e.readable {
		if s.Rep(r) == RZero || s.CData(r) == DFresh {
			continue
		}
		if e.possible(s, r, 1, -1, 0) {
			out = append(out, fsm.Violation{
				Kind: fsm.ViolationStaleRead,
				Detail: fmt.Sprintf("a processor may read %s data in readable state %s in %s",
					s.CData(r), p.States[r], s.StructureString(p)),
			})
		}
	}

	if strict {
		for _, c := range e.cleanShared {
			if s.Rep(c) == RZero {
				continue
			}
			mismatch := (s.CData(c) == DFresh && s.mdata == DObsolete) ||
				(s.CData(c) == DObsolete && s.mdata == DFresh)
			if mismatch && e.possible(s, c, 1, -1, 0) {
				out = append(out, fsm.Violation{
					Kind: fsm.ViolationCleanShared,
					Detail: fmt.Sprintf("clean state %s (%s) disagrees with memory (%s) in %s",
						p.States[c], s.CData(c), s.mdata, s.StructureString(p)),
				})
			}
		}
	}
	return out
}

// possible reports whether some concretization of s puts at least ni
// caches in class i and, when j ≥ 0, at least nj in class j (i ≠ j),
// consistently with the class operators and the copy-count attribute.
func (e *Engine) possible(s *CState, i, ni, j, nj int) bool {
	if s.Rep(i).Max() < ni || j >= 0 && s.Rep(j).Max() < nj {
		return false
	}
	if s.attr == CountNull {
		return true
	}
	bound := s.attr.interval()
	min, max := 0, 0
	for _, c := range e.validIdxs {
		m := s.Rep(c).Min()
		switch {
		case c == i && ni > m:
			m = ni
		case c == j && nj > m:
			m = nj
		}
		min += m
		max += s.Rep(c).Max()
	}
	// Demands on non-valid classes do not affect the copy count.
	return satur(min) <= bound.hi && satur(max) >= bound.lo
}
