package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestRankDeterministicAndPermutationInvariant(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	key := "58ed09aabbccdd"
	want := Rank(nodes, key)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		shuffled := append([]string(nil), nodes...)
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		got := Rank(shuffled, key)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("permutation %d changed ranking: got %v want %v", i, got, want)
			}
		}
	}
}

// TestRankStableUnderNodeRemoval pins the rendezvous property: removing a
// node only reassigns the keys it owned; every other key keeps its owner.
func TestRankStableUnderNodeRemoval(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	removed := nodes[2]
	var survivors []string
	for _, n := range nodes {
		if n != removed {
			survivors = append(survivors, n)
		}
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%04d", i)
		before := Rank(nodes, key)[0]
		after := Rank(survivors, key)[0]
		if before != removed && before != after {
			t.Fatalf("key %s moved from %s to %s though %s was removed", key, before, after, removed)
		}
	}
}

// TestRankSpreadsKeys: rendezvous hashing should give every node a
// non-trivial share of the keyspace (no node starved, no node hogging).
func TestRankSpreadsKeys(t *testing.T) {
	cases := []struct {
		nodes  []string
		keys   func(int) string
		lo, hi float64
	}{
		{[]string{"http://a:1", "http://b:1", "http://c:1"},
			func(i int) string { return fmt.Sprintf("key-%05d", i) }, 0.15, 0.55},
		// Loopback pairs that differ only in the port, over the cache-key
		// shaped keys the cluster tests use. Under a bare FNV-1a score the
		// first pair gave every one of these keys to the same node.
		{[]string{"http://127.0.0.1:40000", "http://127.0.0.1:40074"}, testKey, 0.35, 0.65},
		{[]string{"http://127.0.0.1:40000", "http://127.0.0.1:40008"}, testKey, 0.35, 0.65},
		{[]string{"http://127.0.0.1:41000", "http://127.0.0.1:45000"}, testKey, 0.35, 0.65},
	}
	const keys = 4096
	for _, tc := range cases {
		counts := map[string]int{}
		for i := 0; i < keys; i++ {
			counts[Rank(tc.nodes, tc.keys(i))[0]]++
		}
		for _, n := range tc.nodes {
			share := float64(counts[n]) / keys
			if share < tc.lo || share > tc.hi {
				t.Errorf("node %s owns %.1f%% of keys, outside [%.0f%%, %.0f%%] (counts %v)",
					n, share*100, tc.lo*100, tc.hi*100, counts)
			}
		}
	}
}
