package enum

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/protocols"
	"repro/internal/runctl"
	"repro/internal/stateset"
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
	seq, err := Counting(p, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Counting(p, 8, Options{RunConfig: runctl.RunConfig{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if par.Unique != seq.Unique || par.Visits != seq.Visits {
		t.Fatalf("parallel counting diverged: %d/%d vs %d/%d",
			par.Unique, par.Visits, seq.Unique, seq.Visits)
	}
	parR, seqR := reachable(t, par), reachable(t, seq)
	if len(parR) != len(seqR) {
		t.Fatalf("reachable sets differ in size")
	}
	for i := range parR {
		if countingKey(parR[i]) != countingKey(seqR[i]) {
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

// TestPendSetParallelMinRank drives the pending set the way a level's
// workers do: 2 to 8 goroutines each generate successors of random keys at
// increasing ranks w<<rankShift|ord, test them with beaten, admit them with
// claim and append the winners to their own list. Re-claiming an admitted
// key at its own rank must lose, as a retried worker's does. Whatever the
// interleaving, survivors must then hold every key once, at its lowest
// rank, and purgeWorker must withdraw that worker's admissions and no
// other.
func TestPendSetParallelMinRank(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		width := []int{9, 40}[seed%2] // inline keys, and long ones
		workers := 2 + rng.Intn(7)
		keys := make([]Key, 0, 300)
		distinct := make(map[Key]bool)
		for len(keys) < 20+rng.Intn(280) {
			b := make([]byte, width)
			rng.Read(b[:4])
			b[width-1] = keyMark
			if k := keyOf(b); !distinct[k] {
				distinct[k] = true
				keys = append(keys, k)
			}
		}
		plans := make([][]int, workers) // key indices, in generation order
		best := make(map[int]uint64)    // lowest rank of each key
		bestOf := make(map[int]int)     // and the worker it belongs to
		for w := range plans {
			for ord := 0; ord < 50+rng.Intn(400); ord++ {
				ki := rng.Intn(len(keys))
				plans[w] = append(plans[w], ki)
				if _, ok := best[ki]; !ok {
					best[ki], bestOf[ki] = uint64(w)<<rankShift|uint64(ord), w
				}
			}
		}
		for _, purged := range []int{-1, rng.Intn(workers)} {
			ps := newPendSet(workers, width)
			ps.reset()
			var wg sync.WaitGroup
			for w := range plans {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for ord, ki := range plans[w] {
						k := keys[ki]
						h := stateset.Hash(k.bytes(width))
						rank := uint64(w)<<rankShift | uint64(ord)
						if ps.beaten(k, h, rank) || !ps.claim(k, h, rank) {
							continue
						}
						if ps.claim(k, h, rank) || !ps.beaten(k, h, rank) {
							t.Errorf("seed %d: key %d re-admitted at its own rank %#x", seed, ki, rank)
						}
						ps.lists[w] = append(ps.lists[w], pendEntry{it: succItem{state: k, key: k, hash: h}, rank: rank})
					}
				}(w)
			}
			wg.Wait()
			if purged >= 0 {
				ps.purgeWorker(purged)
			}
			got := make(map[Key]uint64)
			for w, l := range ps.survivors(workers) {
				for _, e := range l {
					if _, dup := got[e.it.key]; dup {
						t.Fatalf("seed %d purged %d: a key survives twice", seed, purged)
					}
					if int(e.rank>>rankShift) != w {
						t.Fatalf("seed %d purged %d: worker %d's list holds rank %#x", seed, purged, w, e.rank)
					}
					got[e.it.key] = e.rank
				}
			}
			want := 0
			for ki, r := range best {
				k := keys[ki]
				if bestOf[ki] == purged {
					if _, ok := got[k]; ok || ps.beaten(k, stateset.Hash(k.bytes(width)), ^uint64(0)>>1) {
						t.Fatalf("seed %d: key %d of purged worker %d is still pending", seed, ki, purged)
					}
					continue
				}
				want++
				if got[k] != r {
					t.Fatalf("seed %d purged %d: key %d survives at rank %#x, want its lowest %#x", seed, purged, ki, got[k], r)
				}
			}
			if len(got) != want {
				t.Fatalf("seed %d purged %d: %d survivors, want %d", seed, purged, len(got), want)
			}
		}
	}
}
