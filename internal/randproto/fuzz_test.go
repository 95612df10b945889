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

// FuzzDifferentialAgreement is the native fuzz entry point for the
// differential property: run with
//
//	go test -fuzz=FuzzDifferentialAgreement ./internal/randproto
//
// Each input seeds the protocol generator; the symbolic verifier and the
// n=3 explicit enumeration must agree (soundness direction) and coverage
// must hold.
func FuzzDifferentialAgreement(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, 1993, -7, 1 << 40} {
		f.Add(seed, uint8(2))
	}
	f.Fuzz(func(t *testing.T, seed int64, nStates uint8) {
		p := New(rand.New(rand.NewSource(seed)), int(nStates%4)+1)
		eng, err := symbolic.NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		sym := eng.Expand(symbolic.Options{MaxVisits: 50000})
		if len(sym.SpecErrors) > 0 {
			t.Fatalf("generated protocol has spec errors: %v", sym.SpecErrors)
		}

		res, err := enum.Counting(p, 3, enum.Options{MaxStates: 100000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated {
			t.Skip("state space truncated")
		}
		if len(res.Violations) > 0 && len(sym.Violations) == 0 {
			t.Fatalf("UNSOUND: concrete violation missed symbolically (protocol %s)", p.Name)
		}
		if err := res.Configs(context.Background(), func(cfg *fsm.Config) error {
			a, err := eng.Abstract(cfg)
			if err != nil {
				return err
			}
			if _, ok := symbolic.CoveredBy(a, sym.Essential); !ok {
				return fmt.Errorf("coverage hole: %s not covered (protocol %s)", cfg, p.Name)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}
