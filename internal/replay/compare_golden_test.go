package replay

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/protocols"
)

var updateCompareGolden = flag.Bool("update", false, "rewrite testdata/compare_golden.txt from the current replay engine")

const compareGoldenPath = "testdata/compare_golden.txt"

// TestCompareGolden pins replay.Compare end to end: every built-in
// protocol over every generator (4 caches, 16 blocks, 20k references, one
// seed) at capacity 0, 1 and 4. Each run records the SHA-256 of its
// encoded report, then one compact JSON line per protocol row so a drift
// names the counter that moved.
func TestCompareGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 18 twelve-protocol comparisons")
	}
	var b strings.Builder
	for _, kind := range Kinds() {
		spec := WorkloadSpec{Kind: kind, Seed: 21, Caches: 4, Blocks: 16, Ops: 20000}
		data := materialized(t, spec, false)
		for _, capacity := range []int{0, 1, 4} {
			cr, err := Compare(context.Background(), bytes.NewReader(data), protocols.All(), Options{Capacity: capacity})
			if err != nil {
				t.Fatalf("%s capacity %d: %v", kind, capacity, err)
			}
			rep := NewReport(cr)
			enc, err := rep.Encode()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "=== %s capacity=%d report=%x\n", kind, capacity, sha256.Sum256(enc))
			for _, row := range rep.Results {
				line, err := json.Marshal(row)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s\n", line)
			}
		}
	}
	got := b.String()
	if *updateCompareGolden {
		if err := os.WriteFile(compareGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(compareGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("compare reports drifted at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("compare reports drifted: %d lines, want %d", len(gl), len(wl))
	}
}
