package enum

import (
	"context"
	"testing"

	"repro/internal/compile"
)

// TestExpansionOccupancy expands every state of the golden and wide
// sweeps as expandOne does — decode the state key, copy it, step the copy
// — and checks that the decoded configuration and every successor carry
// an exact occupancy bitset.
func TestExpansionOccupancy(t *testing.T) {
	ctx := context.Background()
	var cases []wideCase
	for _, p := range goldenCorpus(t) {
		for _, mode := range []string{ModeStrict, ModeCounting} {
			cases = append(cases, wideCase{p, mode, goldenN, Options{}})
		}
	}
	cases = append(cases, wideCases(t)...)
	for _, c := range cases {
		res, err := enumerate(ctx, c.p, c.n, c.opts, c.mode, 1)
		if err != nil {
			t.Fatalf("%s %s n=%d: %v", c.p.Name, c.mode, c.n, err)
		}
		kc := res.kc
		var base, work compile.Config
		_, err = replay(ctx, kc, res.parents, func(_ uint32, state *Key, _ Key) error {
			b := state.bytes(kc.width)
			kc.decode(b, &base)
			if err := kc.cp.CheckOccupancy(&base); err != nil {
				t.Fatalf("%s %s n=%d: decoded %s: %v", c.p.Name, c.mode, c.n, kc.render(*state), err)
			}
			for i := 0; i < kc.n; i++ {
				for k := range kc.p.Ops {
					if !kc.cp.HasRules(int(base.States[i]), k) {
						continue
					}
					work.CopyFrom(&base)
					if _, err := kc.cp.Step(&work, i, k); err != nil {
						continue
					}
					if err := kc.cp.CheckOccupancy(&work); err != nil {
						t.Fatalf("%s %s n=%d: %s, cache %d %s: %v", c.p.Name, c.mode, c.n, kc.render(*state), i, kc.p.Ops[k], err)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s %s n=%d: replay: %v", c.p.Name, c.mode, c.n, err)
		}
	}
}
