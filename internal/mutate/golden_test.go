package mutate

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/ccpsl"
	"repro/internal/protocols"
)

var updateCatalogGolden = flag.Bool("update", false, "rewrite testdata/catalog_golden.txt from the current catalog")

const catalogGoldenPath = "testdata/catalog_golden.txt"

// TestCatalogGolden freezes the mutant catalog of every built-in
// protocol: for each mutant in catalog order, its kind, mutated rule,
// detail, strict flag and the SHA-256 of its ccpsl rendering, which
// covers the mutant's name and every rule. A change to how Catalog
// builds its clones must leave every line in place. Regenerate with
// `go test ./internal/mutate -run TestCatalogGolden -update` only for a
// deliberate change to an operator.
func TestCatalogGolden(t *testing.T) {
	var b strings.Builder
	for _, p := range protocols.All() {
		fmt.Fprintf(&b, "%s ccpsl=%x\n", p.Name, sha256.Sum256([]byte(ccpsl.Format(p))))
		for _, m := range Catalog(p) {
			fmt.Fprintf(&b, "  %s rule=%q detail=%q strict=%v ccpsl=%x\n",
				m.Kind, m.Rule, m.Detail, m.NeedsStrict, sha256.Sum256([]byte(ccpsl.Format(m.Protocol))))
		}
	}
	got := b.String()
	if *updateCatalogGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(catalogGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(catalogGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("mutant catalog drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestOperatorsDeclineUntouched pins the contract Catalog's scratch clone
// relies on: an operator that does not apply to a rule leaves the whole
// protocol as it found it.
func TestOperatorsDeclineUntouched(t *testing.T) {
	for _, p := range protocols.All() {
		want := ccpsl.Format(p)
		for _, op := range operators {
			for ri := range p.Rules {
				q := p.Clone()
				if _, ok := op.apply(q, &q.Rules[ri]); ok {
					continue
				}
				if got := ccpsl.Format(q); got != want {
					t.Errorf("%s: %s declined rule %s but changed the protocol", p.Name, op.kind, p.Rules[ri].Name)
				}
			}
		}
	}
}
