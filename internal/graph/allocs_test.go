package graph

import (
	"testing"

	"repro/internal/protocols"
	"repro/internal/symbolic"
)

// TestBuildGlobalAllocs bounds the allocations of building Figure 4's
// global diagram from an expanded engine. BuildGlobal expands every node,
// and Engine.Successors reuses a pooled step buffer across the calls: 270
// allocations per diagram, against 365 with a fresh buffer per call.
func TestBuildGlobalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under -race")
	}
	eng, err := symbolic.NewEngine(protocols.Illinois())
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Expand(symbolic.Options{})
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := BuildGlobal(eng, res.Essential); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per BuildGlobal", allocs)
	if allocs > 300 {
		t.Fatalf("BuildGlobal made %.0f allocations", allocs)
	}
}
