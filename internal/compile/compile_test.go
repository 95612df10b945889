package compile

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/ccpsl"
	"repro/internal/fsm"
	"repro/internal/mutate"
	"repro/internal/protocols"
)

// specProtocol loads one shipped spec by file name, straight from specs/,
// so this package's tests need no protocols registry.
func specProtocol(t testing.TB, name string) *fsm.Protocol {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "specs", name+".ccpsl"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := ccpsl.Parse(string(src))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p
}

// keepInvalidSpec is a protocol no shipped spec or mutant resembles: a
// replacement keeps its data in the initial state, a guard and a supplier
// list name the initial state, and one broadcast store moves every idle
// cache out of it. A cache in the initial state may therefore hold data,
// and the idle caches matter to guards, suppliers and observers.
const keepInvalidSpec = `protocol Keep-Invalid
characteristic sharing
states {
  Invalid initial
  Valid valid readable
  Dirty valid readable exclusive owner
}
rule read-hit { from Valid on R
  next Valid
  data keep }
rule read-miss-peer { from Invalid on R when any-other Invalid, Dirty
  next Valid
  data from-cache Dirty Invalid }
rule read-miss-alone { from Invalid on R when no-other Invalid, Dirty
  next Valid
  data memory }
rule write-hit { from Valid on W
  next Dirty
  observe Valid -> Invalid, Dirty -> Invalid
  data keep store }
rule write-broadcast { from Dirty on W
  next Dirty
  observe Invalid -> Valid
  data keep store update-sharers }
rule write-miss { from Invalid on W
  next Dirty
  observe Valid -> Invalid, Dirty -> Invalid
  data memory store }
rule replace { from Valid on Z
  next Invalid
  data keep }
rule replace-dirty { from Dirty on Z
  next Invalid
  data keep writeback-self }
`

// corpus returns every shipped spec plus every mutant of it,
// keepInvalidSpec, and the 65-state Synthetic(63), whose guard sets do not
// fit one 64-bit word — the full population the compile-parity guarantees
// are pinned over.
func corpus(t testing.TB) []*fsm.Protocol {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.ccpsl"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no specs found: %v", err)
	}
	sort.Strings(paths)
	var out []*fsm.Protocol
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ccpsl.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, p)
		for _, m := range mutate.Catalog(p) {
			out = append(out, m.Protocol)
		}
	}
	p, err := ccpsl.Parse(keepInvalidSpec)
	if err != nil {
		t.Fatalf("keep-invalid: %v", err)
	}
	wide, err := protocols.Synthetic(63)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, p, wide)
}

// TestStepParity drives the interpreted fsm.Step and the compiled Step
// through identical random walks over every spec and every mutant,
// asserting identical configurations, step results and error text, and an
// exact occupancy bitset, after every reference. Widths 8 and 65 take the
// configuration past one cache per state and past one 64-bit word. This
// is the ground truth the engine-level parity suites (enum, symbolic)
// build on.
func TestStepParity(t *testing.T) {
	heldInInitial := 0 // configurations with a cache in the initial state holding data
	for _, p := range corpus(t) {
		cp, err := Compile(p)
		if err != nil {
			t.Fatalf("%s: compile: %v", p.Name, err)
		}
		rng := rand.New(rand.NewSource(int64(len(p.Name)) * 7919))
		for _, n := range []int{1, 2, 4, 8, 65} {
			ic := fsm.NewConfig(p, n)
			cc := cp.NewConfig(n)
			for step := 0; step < 400; step++ {
				origin := rng.Intn(n)
				op := p.Ops[rng.Intn(len(p.Ops))]
				iw := ic.Clone()
				ires, ierr := fsm.Step(p, iw, origin, op)
				cw := &Config{}
				cw.CopyFrom(cc)
				cres, cerr := cp.Step(cw, origin, cp.OpIndex(op))
				if (ierr == nil) != (cerr == nil) {
					t.Fatalf("%s n=%d step %d: error mismatch: interpreted=%v compiled=%v", p.Name, n, step, ierr, cerr)
				}
				if ierr != nil {
					if ierr.Error() != cerr.Error() {
						t.Fatalf("%s n=%d step %d: error text drift:\n  interpreted: %s\n  compiled:    %s",
							p.Name, n, step, ierr, cerr)
					}
					continue // both paths leave their configs unchanged
				}
				got := cp.Result(cres)
				if got.ReadVersion != ires.ReadVersion || got.Supplier != ires.Supplier ||
					(got.Rule == nil) != (ires.Rule == nil) ||
					(got.Rule != nil && got.Rule.Name != ires.Rule.Name) {
					t.Fatalf("%s n=%d step %d: result mismatch: interpreted=%+v compiled=%+v", p.Name, n, step, ires, got)
				}
				if err := cp.CheckOccupancy(cw); err != nil {
					t.Fatalf("%s n=%d step %d (%s@%d): %v", p.Name, n, step, op, origin, err)
				}
				var back fsm.Config
				cp.Decode(cw, &back)
				if back.Key() != iw.Key() {
					t.Fatalf("%s n=%d step %d (%s@%d): config drift:\n  interpreted: %s\n  compiled:    %s",
						p.Name, n, step, op, origin, iw.Key(), back.Key())
				}
				for j, s := range iw.States {
					if s == p.Initial && iw.Versions[j] != fsm.NoData {
						heldInInitial++
						break
					}
				}
				ic, cc = iw, cw
			}
		}
	}
	if heldInInitial == 0 {
		t.Fatal("no walk reached a cache in the initial state holding data")
	}
	t.Logf("%d configurations had a cache in the initial state holding data", heldInInitial)
}

// TestEncodeDecodeIdentity asserts Encode∘Decode is the identity on
// configurations reached by real walks, and that Encode sets occupancy.
func TestEncodeDecodeIdentity(t *testing.T) {
	p := specProtocol(t, "illinois")
	cp, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	ic := fsm.NewConfig(p, 3)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		if _, err := fsm.Step(p, ic, rng.Intn(3), p.Ops[rng.Intn(len(p.Ops))]); err != nil {
			t.Fatal(err)
		}
		var enc Config
		if err := cp.Encode(ic, &enc); err != nil {
			t.Fatal(err)
		}
		if err := cp.CheckOccupancy(&enc); err != nil {
			t.Fatal(err)
		}
		var dec fsm.Config
		cp.Decode(&enc, &dec)
		if dec.Key() != ic.Key() {
			t.Fatalf("round trip drift: %s vs %s", ic.Key(), dec.Key())
		}
	}
}

// TestJumpTablesMatchRulesFor pins the compiled dispatch against the
// interpreted index for every (state, op) pair of every protocol.
func TestJumpTablesMatchRulesFor(t *testing.T) {
	for _, p := range corpus(t) {
		cp, err := Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for si, s := range p.States {
			for oi, op := range p.Ops {
				want := p.RulesFor(s, op)
				got := cp.RuleIDs(si, oi)
				if len(want) != len(got) {
					t.Fatalf("%s (%s,%s): %d interpreted rules vs %d compiled", p.Name, s, op, len(want), len(got))
				}
				for k, r := range want {
					if cp.RulePtr(got[k]) != r {
						t.Fatalf("%s (%s,%s): rule %d order drift", p.Name, s, op, k)
					}
				}
			}
		}
	}
}
