package graph

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/enum"
	"repro/internal/protocols"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/concrete_golden.txt from the current builder")

const concreteGoldenPath = "testdata/concrete_golden.txt"

// TestConcreteGolden freezes the rendered bytes of every built-in
// protocol's concrete diagram, in both equivalence modes at n = 2 and 3,
// as one SHA-256 of the DOT and one of the JSON export per line. The node
// order, the edge order and the edge labels all show up: in counting mode
// the cache order of each node's representative decides whether an edge
// reads R0 or R2. Regenerate with
// `go test ./internal/graph -run TestConcreteGolden -update` only for a
// deliberate change to the diagrams.
func TestConcreteGolden(t *testing.T) {
	var got []string
	for _, p := range protocols.All() {
		for _, mode := range []string{enum.ModeStrict, enum.ModeCounting} {
			for _, n := range []int{2, 3} {
				g := concreteOf(t, p.Name, mode, n)
				dot, js := render(t, g)
				got = append(got, fmt.Sprintf("%s %s n=%d nodes=%d edges=%d dot=%x json=%x",
					strings.ReplaceAll(p.Name, " ", "_"), mode, n, len(g.Nodes), len(g.Edges),
					sha256.Sum256([]byte(dot)), sha256.Sum256(js)))
			}
		}
	}
	text := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(concreteGoldenPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(concreteGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("%d golden lines, %d diagrams", len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("diagram %d changed:\n got  %s\n want %s", i, got[i], wantLines[i])
		}
	}
}
