package randproto

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/enum"
	"repro/internal/fsm"
	"repro/internal/symbolic"
)

const fuzzRounds = 300

// TestDifferentialSoundness fuzzes the verifier: for hundreds of random
// protocols, any violation reachable concretely (n = 2..3 caches) must also
// be reported by the symbolic expansion. A failure here would mean the
// symbolic abstraction can hide real coherence bugs — the one thing a
// verifier must never do.
func TestDifferentialSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(1993))
	concreteBuggy, symbolicOnly := 0, 0
	for round := 0; round < fuzzRounds; round++ {
		p := New(rng, 1+rng.Intn(3))
		sym, err := symbolic.Expand(p, symbolic.Options{MaxVisits: 50000})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(sym.SpecErrors) > 0 {
			t.Fatalf("round %d: generated protocol has spec errors: %v", round, sym.SpecErrors)
		}
		symBad := len(sym.Violations) > 0

		concBad := false
		for _, n := range []int{2, 3} {
			res, err := enum.Exhaustive(p, n, enum.Options{MaxStates: 200000})
			if err != nil {
				t.Fatalf("round %d n=%d: %v", round, n, err)
			}
			if len(res.SpecErrors) > 0 {
				t.Fatalf("round %d n=%d: concrete spec errors: %v", round, n, res.SpecErrors)
			}
			if len(res.Violations) > 0 {
				concBad = true
			}
		}
		if concBad {
			concreteBuggy++
			if !symBad {
				t.Fatalf("round %d: UNSOUND — protocol %s has a concrete violation at n≤3 that the symbolic verifier missed",
					round, p.Name)
			}
		}
		if symBad && !concBad {
			// Legitimate: the symbolic family covers arbitrary n, and some
			// violations need more than 3 caches (or are over-approximation
			// artifacts of the pessimistic class-data merge). Track the
			// rate for information only.
			symbolicOnly++
		}
	}
	if concreteBuggy == 0 {
		t.Fatal("the fuzzer generated no buggy protocols; it is not exercising anything")
	}
	t.Logf("fuzzed %d protocols: %d concretely buggy (all caught symbolically), %d flagged only symbolically",
		fuzzRounds, concreteBuggy, symbolicOnly)
}

// TestDifferentialCompleteness: protocols the symbolic verifier declares
// permissible must enumerate clean for every tested cache count, and every
// reachable concrete state must be covered by an essential state (Theorem 1
// on random protocols).
func TestDifferentialCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cleanCount := 0
	for round := 0; round < fuzzRounds; round++ {
		p := New(rng, 1+rng.Intn(3))
		eng, err := symbolic.NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		sym := eng.Expand(symbolic.Options{MaxVisits: 50000})
		for _, n := range []int{2, 3} {
			res, err := enum.Counting(p, n, enum.Options{MaxStates: 200000})
			if err != nil {
				t.Fatal(err)
			}
			if res.Truncated {
				continue
			}
			if sym.OK() && len(res.Violations) > 0 {
				t.Fatalf("round %d: symbolic said permissible but n=%d found %v",
					round, n, res.Violations[0].Violations[0])
			}
			if err := res.Configs(context.Background(), func(cfg *fsm.Config) error {
				a, err := eng.Abstract(cfg)
				if err != nil {
					return err
				}
				if _, ok := symbolic.CoveredBy(a, sym.Essential); !ok {
					return fmt.Errorf("round %d: reachable state %s not covered by essential states (protocol %s)",
						round, cfg, p.Name)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if sym.OK() {
			cleanCount++
		}
	}
	t.Logf("fuzzed %d protocols, %d verified permissible", fuzzRounds, cleanCount)
}

func TestGeneratorDeterministic(t *testing.T) {
	a := New(rand.New(rand.NewSource(7)), 3)
	b := New(rand.New(rand.NewSource(7)), 3)
	if a.Name != b.Name || len(a.Rules) != len(b.Rules) {
		t.Fatal("same seed must generate the same protocol")
	}
	for i := range a.Rules {
		if a.Rules[i].Next != b.Rules[i].Next {
			t.Fatal("same seed must generate the same rules")
		}
	}
}

func TestGeneratorBoundsStates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if got := len(New(rng, 0).States); got != 2 {
		t.Errorf("clamped low: %d states", got)
	}
	if got := len(New(rng, 99).States); got != 5 {
		t.Errorf("clamped high: %d states", got)
	}
}
