package symbolic

import (
	"fmt"

	"repro/internal/fsm"
)

// Abstract maps a concrete configuration (canonicalized onto the abstract
// data domain, see internal/enum.Canonicalize) to the composite state that
// describes it exactly: per-state repetition operators from the actual cache
// counts, per-class context variables, the copy-count classification, and
// the memory context variable.
//
// Abstract is the α of the executable Theorem 1 check: every configuration
// reachable by explicit enumeration must satisfy Contains(E, Abstract(c))
// for some essential state E.
func (e *Engine) Abstract(c *fsm.Config) (*CState, error) {
	if len(c.States) == 0 {
		return nil, fmt.Errorf("symbolic: abstract: empty configuration")
	}
	reps := make([]Rep, e.n)
	cdata := make([]Data, e.n)
	counts := make([]int, e.n)
	copies := 0
	for i, st := range c.States {
		idx := e.p.StateIndex(st)
		if idx < 0 {
			return nil, fmt.Errorf("symbolic: abstract: state %q not in protocol %s", st, e.p.Name)
		}
		counts[idx]++
		if e.valid[idx] {
			copies++
		}
		d := abstractData(c.Versions[i], c.Latest)
		if !e.valid[idx] {
			d = DNone
		}
		if counts[idx] == 1 {
			cdata[idx] = d
		} else {
			cdata[idx] = mergeData(cdata[idx], d)
		}
	}
	for i, n := range counts {
		switch {
		case n == 0:
			reps[i] = RZero
		case n == 1:
			reps[i] = ROne
		default:
			reps[i] = RPlus
		}
	}
	attr := CountNull
	if e.p.Characteristic == fsm.CharSharing {
		switch {
		case copies == 0:
			attr = CountZero
		case copies == 1:
			attr = CountOne
		default:
			attr = CountMany
		}
	}
	mdata := abstractData(c.MemVersion, c.Latest)
	if mdata == DNone {
		mdata = DObsolete // memory always holds some value
	}
	return newCState(e.n, masksOf(reps, cdata), attr, mdata), nil
}

func abstractData(v, latest int64) Data {
	switch {
	case v == fsm.NoData:
		return DNone
	case v == latest:
		return DFresh
	default:
		return DObsolete
	}
}

// CoveredBy reports whether s is contained in at least one of the states;
// when it is, the first containing state is returned.
func CoveredBy(s *CState, states []*CState) (*CState, bool) {
	for _, t := range states {
		if Contains(t, s) {
			return t, true
		}
	}
	return nil, false
}
