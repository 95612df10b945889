package enum

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/protocols"
	"repro/internal/randproto"
	"repro/internal/runctl"
)

// resultSignature flattens the run outcomes that must be bit-identical
// across engines and store implementations: the state counts and every
// violation with its rendered witness path.
func resultSignature(r *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "unique=%d visits=%d tuples=%d specErrs=%d\n",
		r.Unique, r.Visits, r.TupleStates, len(r.SpecErrors))
	for _, v := range r.Violations {
		fmt.Fprintf(&sb, "viol %s:", v.Config.Key())
		for _, d := range v.Violations {
			fmt.Fprintf(&sb, " [%d %s]", d.Kind, d.Detail)
		}
		for _, ps := range v.Path {
			fmt.Fprintf(&sb, " (%d %s -> %s)", ps.Cache, ps.Op, ps.To)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// mapStore is the map-backed visited store the compact store replaced,
// kept as the reference TestCompactStoreMatchesLegacyStore checks it
// against: same interface, classic map + slice layout, no spill support.
type mapStore struct {
	ranks map[Key]uint32
	keys  []Key
}

// mapEntryBytes approximates the heap cost of one mapStore entry: the
// 48-byte Key twice (map key and rank-index slice), the rank value and
// map bucket overhead.
const mapEntryBytes = 176

func newMapStore() *mapStore {
	return &mapStore{ranks: make(map[Key]uint32)}
}

func (ms *mapStore) has(k Key, _ uint64) bool {
	_, ok := ms.ranks[k]
	return ok
}

func (ms *mapStore) rank(k Key, _ uint64) (uint32, bool) {
	r, ok := ms.ranks[k]
	return r, ok
}

func (ms *mapStore) insert(k Key, _ uint64) uint32 {
	r := uint32(len(ms.keys))
	ms.ranks[k] = r
	ms.keys = append(ms.keys, k)
	return r
}

func (ms *mapStore) size() int     { return len(ms.keys) }
func (ms *mapStore) resident() int { return len(ms.keys) }
func (ms *mapStore) bytes() int64  { return int64(len(ms.keys)) * mapEntryBytes }

func (ms *mapStore) spill() []byte { return nil }

func (ms *mapStore) release() {}

func (ms *mapStore) restore([]byte) error {
	return fmt.Errorf("enum: map-backed visited store cannot restore a spill blob")
}

// TestCompactStoreMatchesLegacyStore is the correctness property of the
// compact visited set: over random well-formed protocols, an enumeration
// backed by the hash-indexed stateset must admit exactly the same state
// partition — same unique states, visit counts, tuple census, violations
// and witness paths — as the map-backed store it replaced. The reference
// run is built by newBFS like any other and has its stores swapped for
// mapStores before it starts, so both runs execute the identical engine
// code around the store boundary.
func TestCompactStoreMatchesLegacyStore(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randproto.New(rng, 1+rng.Intn(4))
		n := 2 + rng.Intn(3)
		for _, mode := range []string{ModeStrict, ModeCounting} {
			run := func(legacy bool) *Result {
				b, done, err := newBFS(p, n, Options{Strict: true}, mode)
				if err != nil || done {
					t.Fatalf("seed %d mode %s: newBFS: done=%v err=%v", seed, mode, done, err)
				}
				if legacy {
					vs, ts := newMapStore(), newMapStore()
					if _, err := replay(context.Background(), b.kc, b.parents, func(_ uint32, state *Key, key Key) error {
						vs.insert(key, b.kc.hash(&key))
						tk := b.kc.tupleKey(state)
						ts.insert(tk, b.kc.hash(&tk))
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					b.visited, b.tuples = vs, ts
				}
				r, err := b.runPar(context.Background(), 1)
				if err != nil {
					t.Fatalf("seed %d mode %s legacy=%t: %v", seed, mode, legacy, err)
				}
				return r
			}
			compact := run(false)
			legacy := run(true)
			if got, want := resultSignature(compact), resultSignature(legacy); got != want {
				t.Fatalf("seed %d mode %s: compact store diverges from legacy map store\ncompact: %s\nlegacy:  %s",
					seed, mode, got, want)
			}
		}
	}
}

// spillFileCount counts the spill files currently in dir.
func spillFileCount(t *testing.T, dir, prefix string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), prefix) {
			n++
		}
	}
	return n
}

// TestSpillEnumerationBitIdentical runs an enumeration whose resident
// footprint cannot fit the memory budget, with a spill directory
// configured: instead of stopping with ErrMemBudget the run must spill
// the visited and tuple sets out of core, complete the exploration, and
// report results bit-identical to an unconstrained run (the delayed
// duplicate detection drops exactly the successors an in-memory run
// would have deduplicated).
func TestSpillEnumerationBitIdentical(t *testing.T) {
	p, err := protocols.Synthetic(6)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5 // 16812 strict states; peak estimated footprint ~613 KiB

	ref, err := Exhaustive(p, n, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Truncated {
		t.Fatal("reference run truncated")
	}

	// Sanity: the budget alone (no spill dir) must stop the run.
	budget := runctl.Budget{MaxBytes: 512 << 10}
	capped, err := ExhaustiveParallelContext(context.Background(), p, n, Options{
		Strict:    true,
		RunConfig: runctl.RunConfig{Budget: budget},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Truncated || !errors.Is(capped.StopReason, runctl.ErrMemBudget) {
		t.Fatalf("budget-only run must stop on ErrMemBudget, got truncated=%t reason=%v",
			capped.Truncated, capped.StopReason)
	}

	dir := t.TempDir()
	spilled, err := ExhaustiveParallelContext(context.Background(), p, n, Options{
		Strict:    true,
		RunConfig: runctl.RunConfig{Budget: budget, SpillDir: dir},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if spilled.Truncated {
		t.Fatalf("spilling run truncated: %v", spilled.StopReason)
	}
	if got := spillFileCount(t, dir, "spill-visited-"); got == 0 {
		t.Fatal("run completed without writing any spill files; the budget no longer forces out-of-core operation")
	}
	if got, want := resultSignature(spilled), resultSignature(ref); got != want {
		t.Fatalf("out-of-core run diverges from in-memory run\nspilled: %s\nref:     %s", got, want)
	}
}

// TestSpillCheckpointResumeAtBoundary kills an out-of-core run at a
// checkpoint boundary after it has spilled, then resumes from the
// captured snapshot. The snapshot must fold the spilled entries back in
// (it is self-contained — the resume uses a fresh spill directory and
// never sees the first run's files) and the resumed run must land on
// exactly the unconstrained run's counts.
func TestSpillCheckpointResumeAtBoundary(t *testing.T) {
	p, err := protocols.Synthetic(6)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5

	ref, err := Exhaustive(p, n, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}

	budget := runctl.Budget{MaxBytes: 768 << 10}
	dir1 := t.TempDir()
	killed := fmt.Errorf("killed at spill boundary")
	var captured []byte
	_, err = ExhaustiveParallelContext(context.Background(), p, n, Options{
		Strict: true,
		RunConfig: runctl.RunConfig{
			Budget:          budget,
			SpillDir:        dir1,
			CheckpointEvery: 1, // every level
		},
		OnCheckpoint: func(cp *Checkpoint) error {
			if spillFileCount(t, dir1, "spill-visited-") == 0 {
				return nil // keep running until the first spill has happened
			}
			data, err := cp.Encode()
			if err != nil {
				return err
			}
			captured = data
			return killed
		},
	}, 4)
	if err != killed {
		t.Fatalf("run should have died with the injected kill, got: %v", err)
	}
	if captured == nil {
		t.Fatal("no checkpoint captured after the first spill")
	}

	cp, err := DecodeCheckpoint(captured)
	if err != nil {
		t.Fatalf("decoding the spill-boundary checkpoint: %v", err)
	}
	if got, want := len(cp.Visited), len(cp.Parents); got != want {
		t.Fatalf("checkpoint has %d visited but %d parents", got, want)
	}

	// Resume out-of-core in a fresh directory; the original spill files
	// are not consulted.
	dir2 := t.TempDir()
	resumed, err := ResumeContext(context.Background(), p, cp, Options{
		RunConfig: runctl.RunConfig{Budget: budget, SpillDir: dir2, Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Truncated {
		t.Fatalf("resumed run truncated: %v", resumed.StopReason)
	}
	if got, want := resultSignature(resumed), resultSignature(ref); got != want {
		t.Fatalf("killed-and-resumed run diverges from uninterrupted run\nresumed: %s\nref:     %s", got, want)
	}
}

// TestSpillRequiresWritableDir pins the fail-fast behavior: a spill
// directory that cannot be created fails the run before exploration
// starts, not at the first spill attempt deep into a long run.
func TestSpillRequiresWritableDir(t *testing.T) {
	p := protocols.Illinois()
	blocked := t.TempDir() + "/file"
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ExhaustiveParallelContext(context.Background(), p, 3, Options{
		RunConfig: runctl.RunConfig{
			Budget:   runctl.Budget{MaxBytes: 1 << 20},
			SpillDir: blocked + "/sub",
		},
	}, 2)
	if err == nil {
		t.Fatal("unusable spill directory must fail the run up front")
	}
}
