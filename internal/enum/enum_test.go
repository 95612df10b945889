package enum

import (
	"testing"

	"repro/internal/fsm"
	"repro/internal/protocols"
)

func TestCanonicalizeMapsVersionsToDataClasses(t *testing.T) {
	p := protocols.Illinois()
	c := fsm.NewConfig(p, 3)
	c.States = []fsm.State{"Dirty", "Shared", "Invalid"}
	c.Versions = []int64{7, 3, fsm.NoData}
	c.MemVersion = 3
	c.Latest = 7
	Canonicalize(c)
	if c.Versions[0] != canonFresh {
		t.Errorf("latest version must canonicalize to fresh, got %d", c.Versions[0])
	}
	if c.Versions[1] != canonObsolete {
		t.Errorf("older version must canonicalize to obsolete, got %d", c.Versions[1])
	}
	if c.Versions[2] != fsm.NoData {
		t.Errorf("NoData must be preserved, got %d", c.Versions[2])
	}
	if c.MemVersion != canonObsolete || c.Latest != canonFresh {
		t.Errorf("memory %d latest %d", c.MemVersion, c.Latest)
	}
}

func TestCanonicalizeIdempotent(t *testing.T) {
	p := protocols.Illinois()
	c := fsm.NewConfig(p, 2)
	if _, err := fsm.Step(p, c, 0, fsm.OpWrite); err != nil {
		t.Fatal(err)
	}
	Canonicalize(c)
	k := c.Key()
	Canonicalize(c)
	if c.Key() != k {
		t.Fatal("canonicalization must be idempotent")
	}
}

func TestCanonicalizePreservesStaleness(t *testing.T) {
	// The stale-read predicate (version != Latest) must be invariant under
	// canonicalization.
	p := protocols.Illinois()
	c := fsm.NewConfig(p, 2)
	c.States[0] = "Shared"
	c.Versions[0] = 3
	c.Latest = 9
	c.MemVersion = 9
	before := fsm.CheckConfig(p, c, false)
	Canonicalize(c)
	after := fsm.CheckConfig(p, c, false)
	if len(before) != len(after) {
		t.Fatalf("canonicalization changed violations: %v vs %v", before, after)
	}
	if len(after) == 0 {
		t.Fatal("stale shared copy must be flagged")
	}
}

func TestExhaustiveIllinoisSmallCounts(t *testing.T) {
	// Locked-in values for the Illinois protocol (abstract data domain).
	// n=2: (I,I) (V,I) (I,V) (D,I) (I,D) (S,S) (S,I) (I,S) = 8 states.
	cases := []struct {
		n         int
		wantState int
	}{
		// n=1: Invalid, Valid-Exclusive, Dirty — a lone cache never loads
		// Shared because the sharing line is always low.
		{1, 3},
		{2, 8},
		{3, 14},
		{4, 24},
	}
	p := protocols.Illinois()
	for _, tc := range cases {
		res, err := Exhaustive(p, tc.n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Unique != tc.wantState {
			t.Errorf("n=%d: unique = %d, want %d", tc.n, res.Unique, tc.wantState)
		}
		if !res.OK() {
			t.Errorf("n=%d: unexpected violations %v", tc.n, res.Violations)
		}
		if res.Truncated {
			t.Errorf("n=%d: unexpectedly truncated", tc.n)
		}
	}
}

func TestCountingCollapsesPermutations(t *testing.T) {
	p := protocols.Illinois()
	for n := 2; n <= 5; n++ {
		ex, err := Exhaustive(p, n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ct, err := Counting(p, n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ct.Unique > ex.Unique {
			t.Errorf("n=%d: counting (%d) found more states than strict (%d)", n, ct.Unique, ex.Unique)
		}
		if n >= 3 && ct.Unique >= ex.Unique {
			t.Errorf("n=%d: counting equivalence should strictly compress, %d vs %d", n, ct.Unique, ex.Unique)
		}
		if ct.Visits > ex.Visits {
			t.Errorf("n=%d: counting visits (%d) exceed strict visits (%d)", n, ct.Visits, ex.Visits)
		}
	}
}

func TestExhaustiveGrowsWithN(t *testing.T) {
	// The Section 3.1 claim: strict enumeration grows with n (≈ mⁿ shape),
	// while the number of counting states grows only linearly here.
	p := protocols.Illinois()
	prev := 0
	for n := 2; n <= 7; n++ {
		res, err := Exhaustive(p, n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Unique <= prev {
			t.Fatalf("n=%d: strict state count %d did not grow (prev %d)", n, res.Unique, prev)
		}
		prev = res.Unique
	}
}

func TestAllProtocolsEnumerateClean(t *testing.T) {
	for _, p := range protocols.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			for n := 1; n <= 4; n++ {
				res, err := Counting(p, n, Options{Strict: true})
				if err != nil {
					t.Fatal(err)
				}
				if !res.OK() {
					t.Fatalf("n=%d: %v", n, res.Violations)
				}
			}
		})
	}
}

func brokenIllinois() *fsm.Protocol {
	p := protocols.Illinois()
	for i := range p.Rules {
		if p.Rules[i].Name == "write-hit-shared" {
			p.Rules[i].Observe = nil
		}
	}
	return p.Clone()
}

func TestEnumerationDetectsBrokenProtocol(t *testing.T) {
	res, err := Exhaustive(brokenIllinois(), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("the broken protocol must be refuted at n=2")
	}
	v := res.Violations[0]
	if len(v.Path) == 0 {
		t.Fatal("violations must carry witness paths")
	}
	// Replay the witness concretely.
	p := brokenIllinois()
	c := fsm.NewConfig(p, 2)
	Canonicalize(c)
	for _, step := range v.Path {
		if _, err := fsm.Step(p, c, step.Cache, step.Op); err != nil {
			t.Fatalf("witness replay failed: %v", err)
		}
		Canonicalize(c)
		if c.Key() != step.To {
			t.Fatalf("witness step mismatch: got %s want %s", c.Key(), step.To)
		}
	}
}

func TestStopOnViolationShortCircuits(t *testing.T) {
	p := brokenIllinois()
	full, err := Exhaustive(p, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	early, err := Exhaustive(p, 3, Options{StopOnViolation: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(early.Violations) != 1 {
		t.Fatalf("early run reported %d violations", len(early.Violations))
	}
	if early.Visits > full.Visits {
		t.Fatal("early stop must not visit more states")
	}
}

func TestMaxStatesTruncates(t *testing.T) {
	res, err := Exhaustive(protocols.Illinois(), 6, Options{MaxStates: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("a 10-state cap must truncate the n=6 space")
	}
	if res.Unique > 10 {
		t.Fatalf("unique = %d exceeds cap", res.Unique)
	}
}

func TestRejectsInvalidArguments(t *testing.T) {
	if _, err := Exhaustive(protocols.Illinois(), 0, Options{}); err == nil {
		t.Error("n=0 must be rejected")
	}
	if _, err := Counting(&fsm.Protocol{Name: "broken"}, 2, Options{}); err == nil {
		t.Error("invalid protocols must be rejected")
	}
}

func TestTupleStatesIgnoreData(t *testing.T) {
	res, err := Exhaustive(protocols.Illinois(), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TupleStates > res.Unique {
		t.Fatalf("tuple states %d cannot exceed full states %d", res.TupleStates, res.Unique)
	}
	if res.TupleStates == 0 {
		t.Fatal("tuple accounting missing")
	}
}

func TestCountingKeyIsPermutationInvariant(t *testing.T) {
	p := protocols.Illinois()
	a := fsm.NewConfig(p, 3)
	a.States = []fsm.State{"Shared", "Invalid", "Shared"}
	a.Versions = []int64{0, fsm.NoData, 0}
	b := fsm.NewConfig(p, 3)
	b.States = []fsm.State{"Shared", "Shared", "Invalid"}
	b.Versions = []int64{0, 0, fsm.NoData}
	if countingKey(a) != countingKey(b) {
		t.Fatal("permutations must share a counting key")
	}
	if strictKey(a) == strictKey(b) {
		t.Fatal("strict keys must distinguish permutations")
	}
}

// TestSymmetricExpansionShadowing: the engine's skip on key units, which
// the replayed steps of Result.Steps share, skips exactly the caches whose
// (state, data) class a lower-indexed cache already has.
func TestSymmetricExpansionShadowing(t *testing.T) {
	p := protocols.Illinois()
	c := fsm.NewConfig(p, 3)
	c.States = []fsm.State{"Shared", "Shared", "Invalid"}
	c.Versions = []int64{0, 0, fsm.NoData}
	kc := mustKeyCodec(t, p, 3, ModeCounting)
	state, _, err := kc.configKeys(c)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{false, true, false} {
		if got := kc.shadowed(state.bytes(kc.width), i); got != want {
			t.Errorf("shadowed(cache %d) = %v, want %v", i, got, want)
		}
	}
}
