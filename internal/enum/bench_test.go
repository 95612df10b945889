package enum

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/protocols"
)

// BenchmarkEnumFig2 runs the Figure 2 exhaustive enumeration of Illinois at
// n=7. CI publishes it as a benchmark artifact so the engine's per-successor
// cost is tracked release over release.
func BenchmarkEnumFig2(b *testing.B) {
	p := protocols.Illinois()
	for i := 0; i < b.N; i++ {
		res, err := ExhaustiveContext(context.Background(), p, 7, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Violations) != 0 {
			b.Fatal("illinois must verify clean")
		}
	}
}

// BenchmarkEnumDragon10 is the strict Dragon n=10 enumeration of the
// repository benchmark's verify-large workload (6164 states, 156580
// visits: 96% of visits are duplicates) at one and two workers — the run
// key-first expansion and hash-once admission (one hash per successor
// for the visited index and the pending tables) are measured on.
func BenchmarkEnumDragon10(b *testing.B) {
	p := protocols.Dragon()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := ExhaustiveParallelContext(context.Background(), p, 10, Options{}, workers)
				if err != nil {
					b.Fatal(err)
				}
				if res.Unique != 6164 || res.Visits != 156580 {
					b.Fatalf("unique=%d visits=%d, want 6164/156580", res.Unique, res.Visits)
				}
			}
		})
	}
}
