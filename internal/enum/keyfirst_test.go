package enum

import (
	"context"
	"testing"

	"repro/internal/protocols"
	"repro/internal/stateset"
)

// TestExpandDuplicateAllocs pins the point of key-first expansion: a
// successor that is already visited is stepped and keyed on the compiled
// configuration and dropped, so expanding a state whose successors are all
// known allocates nothing. Every reachable Dragon n=4 state is expanded
// against the full visited set, in both modes.
func TestExpandDuplicateAllocs(t *testing.T) {
	p := protocols.Dragon()
	const n = 4
	for _, mode := range []string{ModeStrict, ModeCounting} {
		res, err := enumerate(context.Background(), p, n, Options{}, mode, 1)
		if err != nil {
			t.Fatal(err)
		}
		kc := mustKeyCodec(t, p, n, mode)
		visited := newCompactStore(kc.width)
		var states []Key
		for _, c := range reachable(t, res) {
			state, key, err := kc.configKeys(c)
			if err != nil {
				t.Fatal(err)
			}
			states = append(states, state)
			visited.insert(key, kc.hash(&key))
		}
		seen := func(k Key, h uint64, _ int) bool { return visited.has(k, h) }
		var out workerOut
		expandAll := func() (gen int) {
			for i := range states {
				out.items = out.items[:0]
				gen += expandOne(kc, mode == ModeCounting, &states[i], &out, seen)
				if len(out.items) != 0 || len(out.specErrs) != 0 {
					t.Fatalf("%s: expanding %s left %d items, %d spec errors; the reachable set is closed",
						mode, kc.render(states[i]), len(out.items), len(out.specErrs))
				}
			}
			return gen
		}
		if gen := expandAll(); gen != res.Visits {
			t.Fatalf("%s: re-expanding the reachable set generated %d successors, the run counted %d visits",
				mode, gen, res.Visits)
		}
		if allocs := testing.AllocsPerRun(20, func() { expandAll() }); allocs != 0 {
			t.Fatalf("%s: expanding %d states with only duplicate successors allocated %.1f times, want 0",
				mode, len(states), allocs)
		}
	}
}

// TestVisitedShardBalance guards stateset.Shard, the top byte of the hash
// that picks a key's visited-index slot and its spill blob section, on the
// key population it was chosen for. Dragon's packed keys lead with cache
// 0's (state, data class) byte, which takes at most 15 values, so sharding
// by that byte left 241 of 256 shards empty; hashing every key byte must
// keep each shard within 4x of the mean.
func TestVisitedShardBalance(t *testing.T) {
	p := protocols.Dragon()
	const n = 10
	b, _, err := newBFS(p, n, Options{}, ModeStrict)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.runPar(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unique != 6164 {
		t.Fatalf("Dragon n=10: %d states, want 6164", res.Unique)
	}
	var counts [stateset.NumShards]int
	if _, err := replay(context.Background(), b.kc, b.parents, func(_ uint32, _ *Key, k Key) error {
		counts[stateset.Shard(k.bytes(b.kc.width))]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	mean := float64(res.Unique) / stateset.NumShards
	largest := 0
	for _, c := range counts {
		largest = max(largest, c)
	}
	t.Logf("largest shard %d keys, mean %.1f", largest, mean)
	if float64(largest) > 4*mean {
		t.Fatalf("largest shard holds %d keys, more than 4x the mean %.1f", largest, mean)
	}
}
