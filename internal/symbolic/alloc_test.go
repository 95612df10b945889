package symbolic

import (
	"testing"

	"repro/internal/protocols"
)

// TestCheckAllocatesNothing: on a violation-free state, Check runs on the
// engine's pre-resolved index lists and allocates nothing. It is called on
// every generated successor, so an allocation here is one per visit.
func TestCheckAllocatesNothing(t *testing.T) {
	e := illinoisEngine(t)
	res := e.Expand(Options{Strict: true})
	if !res.OK() || len(res.Essential) == 0 {
		t.Fatalf("Illinois must verify cleanly in strict mode: %d violations", len(res.Violations))
	}
	for _, strict := range []bool{false, true} {
		allocs := testing.AllocsPerRun(100, func() {
			for _, s := range res.Essential {
				if e.Check(s, strict) != nil {
					t.Fatal("essential state reported a violation")
				}
			}
		})
		if allocs != 0 {
			t.Errorf("Check (strict=%v) allocated %.1f times over %d states, want 0", strict, allocs, len(res.Essential))
		}
	}
}

// maxAllocsPerSucc bounds the allocations per generated successor: a new
// successor is two (the CState and its key), one the call generated
// before is interned and costs none, and the rest is the per-call scratch
// and slice growth, spread over the call's successors.
const maxAllocsPerSucc = 2

// TestSuccessorsAllocsPerSuccessor bounds Successors' allocations per
// generated successor over every essential state of a protocol with many
// classes, where the per-successor cost dominates the per-call one.
func TestSuccessorsAllocsPerSuccessor(t *testing.T) {
	for _, n := range []int{8, 24} {
		p, err := protocols.Synthetic(n)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		res := e.Expand(Options{})
		succs := 0
		for _, s := range res.Essential {
			out, _ := e.Successors(s)
			succs += len(out)
		}
		allocs := testing.AllocsPerRun(20, func() {
			for _, s := range res.Essential {
				e.Successors(s)
			}
		})
		per := allocs / float64(succs)
		t.Logf("Synthetic(%d): %.0f allocs over %d successors of %d states = %.2f per successor",
			n, allocs, succs, len(res.Essential), per)
		if per > maxAllocsPerSucc {
			t.Errorf("Synthetic(%d): %.2f allocations per successor, want ≤ %d", n, per, maxAllocsPerSucc)
		}
	}
}
