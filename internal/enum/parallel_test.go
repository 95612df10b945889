package enum

import (
	"context"
	"testing"

	"repro/internal/protocols"
	"repro/internal/runctl"
)

// TestParallelMatchesSequential: the level-synchronous parallel BFS must be
// observationally identical to the sequential algorithm — same distinct
// states, same visit count, same tuple census — for any worker count.
func TestParallelMatchesSequential(t *testing.T) {
	for _, name := range []string{"illinois", "dragon", "berkeley"} {
		p, err := protocols.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 4, 6} {
			seq, err := Exhaustive(p, n, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				par, err := ExhaustiveParallelContext(context.Background(), p, n, Options{}, workers)
				if err != nil {
					t.Fatal(err)
				}
				if par.Unique != seq.Unique || par.Visits != seq.Visits ||
					par.TupleStates != seq.TupleStates {
					t.Errorf("%s n=%d workers=%d: parallel (%d/%d/%d) != sequential (%d/%d/%d)",
						name, n, workers,
						par.Unique, par.Visits, par.TupleStates,
						seq.Unique, seq.Visits, seq.TupleStates)
				}
			}
		}
	}
}

func TestParallelCountingMatchesSequential(t *testing.T) {
	p := protocols.Illinois()
	seq, err := Counting(p, 8, Options{KeepReachable: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Counting(p, 8, Options{KeepReachable: true, RunConfig: runctl.RunConfig{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if par.Unique != seq.Unique || par.Visits != seq.Visits {
		t.Fatalf("parallel counting diverged: %d/%d vs %d/%d",
			par.Unique, par.Visits, seq.Unique, seq.Visits)
	}
	if len(par.Reachable) != len(seq.Reachable) {
		t.Fatalf("reachable sets differ in size")
	}
	for i := range par.Reachable {
		if countingKey(par.Reachable[i]) != countingKey(seq.Reachable[i]) {
			t.Fatalf("reachable order diverged at %d", i)
		}
	}
}

func TestParallelFindsViolations(t *testing.T) {
	p := brokenIllinois()
	seq, err := Exhaustive(p, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ExhaustiveParallelContext(context.Background(), p, 3, Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Violations) != len(seq.Violations) {
		t.Fatalf("parallel found %d violations, sequential %d",
			len(par.Violations), len(seq.Violations))
	}
	if len(par.Violations) == 0 {
		t.Fatal("broken protocol must be refuted")
	}
	// Witness paths must still replay.
	v := par.Violations[0]
	if len(v.Path) == 0 {
		t.Fatal("missing witness")
	}
}

func TestParallelStopOnViolation(t *testing.T) {
	p := brokenIllinois()
	par, err := ExhaustiveParallelContext(context.Background(), p, 3, Options{StopOnViolation: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Violations) != 1 {
		t.Fatalf("want exactly one violation, got %d", len(par.Violations))
	}
}

func TestParallelTruncation(t *testing.T) {
	par, err := ExhaustiveParallelContext(context.Background(), protocols.Illinois(), 6, Options{MaxStates: 10}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !par.Truncated {
		t.Fatal("cap must truncate")
	}
}

func TestParallelArgumentChecks(t *testing.T) {
	if _, err := ExhaustiveParallelContext(context.Background(), protocols.Illinois(), 0, Options{}, 4); err == nil {
		t.Error("n=0 must be rejected")
	}
	// workers <= 0 selects GOMAXPROCS and must still work.
	if _, err := ExhaustiveParallelContext(context.Background(), protocols.Illinois(), 2, Options{}, 0); err != nil {
		t.Errorf("workers=0 must default, got %v", err)
	}
	if _, err := ExhaustiveParallelContext(context.Background(), protocols.Illinois(), 2, Options{}, -1); err != nil {
		t.Errorf("workers=-1 must default, got %v", err)
	}
}
