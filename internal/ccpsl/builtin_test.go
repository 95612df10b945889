package ccpsl_test

// These tests compare against the built-in protocols, which
// internal/protocols loads through this package, so they live in the
// external test package.

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ccpsl"
	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/symbolic"
)

const msiSpec = `
# A minimal MSI protocol.
protocol MSI-spec
characteristic null

states {
  Invalid  initial
  Shared   valid readable clean
  Modified valid readable exclusive owner
}

rule read-hit-shared   { from Shared on R
                         next Shared
                         data keep }
rule read-hit-modified { from Modified on R
                         next Modified
                         data keep }
rule read-miss-owned   { from Invalid on R when any-other Modified
                         next Shared
                         observe Modified -> Shared
                         data from-cache Modified writeback-supplier }
rule read-miss-clean   { from Invalid on R when no-other Modified
                         next Shared
                         observe Modified -> Shared
                         data memory }
rule write-hit-mod     { from Modified on W
                         next Modified
                         data keep store }
rule write-hit-shared  { from Shared on W
                         next Modified
                         observe Shared -> Invalid, Modified -> Invalid
                         data keep store }
rule write-miss-owned  { from Invalid on W when any-other Modified
                         next Modified
                         observe Shared -> Invalid, Modified -> Invalid
                         data from-cache Modified writeback-supplier store }
rule write-miss-clean  { from Invalid on W when no-other Modified
                         next Modified
                         observe Shared -> Invalid, Modified -> Invalid
                         data memory store }
rule replace-modified  { from Modified on Z
                         next Invalid
                         data keep writeback-self drop }
rule replace-shared    { from Shared on Z
                         next Invalid
                         data keep drop }
`

func TestParseMSISpec(t *testing.T) {
	p, err := ccpsl.Parse(msiSpec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "MSI-spec" {
		t.Errorf("name = %s", p.Name)
	}
	if p.Characteristic != fsm.CharNull {
		t.Errorf("characteristic = %v", p.Characteristic)
	}
	if len(p.States) != 3 || len(p.Rules) != 10 {
		t.Errorf("%d states, %d rules", len(p.States), len(p.Rules))
	}
	if p.Initial != "Invalid" {
		t.Errorf("initial = %s", p.Initial)
	}
	if len(p.Inv.ValidCopy) != 2 || len(p.Inv.Exclusive) != 1 || len(p.Inv.Owners) != 1 {
		t.Errorf("invariants wrong: %+v", p.Inv)
	}
}

func TestParsedSpecVerifiesLikeBuiltin(t *testing.T) {
	p, err := ccpsl.Parse(msiSpec)
	if err != nil {
		t.Fatal(err)
	}
	specRes, err := symbolic.Expand(p, symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	builtinRes, err := symbolic.Expand(protocols.MSI(), symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !specRes.OK() {
		t.Fatalf("spec MSI refuted: %v", specRes.Violations)
	}
	if len(specRes.Essential) != len(builtinRes.Essential) {
		t.Fatalf("spec gives %d essential states, builtin %d",
			len(specRes.Essential), len(builtinRes.Essential))
	}
}

func TestRoundTripAllBuiltins(t *testing.T) {
	for _, p := range protocols.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			spec := ccpsl.Format(p)
			q, err := ccpsl.Parse(spec)
			if err != nil {
				t.Fatalf("re-parse failed: %v\nspec:\n%s", err, spec)
			}
			// Formatting the parsed protocol must be a fixpoint.
			if spec2 := ccpsl.Format(q); spec2 != spec {
				t.Fatalf("Format∘Parse is not a fixpoint:\n--- first\n%s\n--- second\n%s", spec, spec2)
			}
			// And it must verify identically.
			a, err := symbolic.Expand(p, symbolic.Options{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := symbolic.Expand(q, symbolic.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Essential) != len(b.Essential) || a.Visits != b.Visits || a.OK() != b.OK() {
				t.Fatalf("round-tripped protocol verifies differently: %d/%d vs %d/%d",
					len(a.Essential), a.Visits, len(b.Essential), b.Visits)
			}
		})
	}
}

func TestFormatStableOrdering(t *testing.T) {
	p := protocols.Illinois()
	a, b := ccpsl.Format(p), ccpsl.Format(p)
	if a != b {
		t.Fatal("Format must be deterministic (observe map ordering)")
	}
}

func TestSpinFlagRoundTrips(t *testing.T) {
	// The spin flag must survive Format → Parse: a lost spin flag would
	// silently turn a blocking lock acquire into a stale-read false
	// positive in the simulator.
	p, err := protocols.ByName("lock-msi")
	if err != nil {
		t.Fatal(err)
	}
	q, err := ccpsl.Parse(ccpsl.Format(p))
	if err != nil {
		t.Fatal(err)
	}
	spins := 0
	for i := range q.Rules {
		if q.Rules[i].Data.Spin {
			spins++
			if q.Rules[i].Next != q.Rules[i].From {
				t.Errorf("rule %s: spin rule moved", q.Rules[i].Name)
			}
		}
	}
	if spins != 3 {
		t.Fatalf("round-tripped Lock-MSI has %d spin rules, want 3", spins)
	}
}

// TestShippedSpecsMatchBuiltins checks the registry path from the shipped
// files: every specs/*.ccpsl parses, is registered under its file name, and
// ByName hands out exactly the parsed protocol. TestBuiltinDigests
// (internal/protocols) pins what the protocols themselves are.
func TestShippedSpecsMatchBuiltins(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.ccpsl"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no specs found: %v", err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".ccpsl")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := ccpsl.Parse(string(src))
			if err != nil {
				t.Fatalf("shipped spec does not parse: %v", err)
			}
			builtin, err := protocols.ByName(name)
			if err != nil {
				t.Fatalf("no built-in protocol for spec %s: %v", name, err)
			}
			if !reflect.DeepEqual(spec.Clone(), builtin) {
				t.Errorf("built-in %s differs from the shipped spec", name)
			}
		})
	}
	if len(paths) != len(protocols.Names()) {
		t.Errorf("specs/ holds %d files, registry has %d protocols", len(paths), len(protocols.Names()))
	}
}
