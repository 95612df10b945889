package enum

import (
	"math/rand"
	"testing"

	"repro/internal/stateset"
)

// BenchmarkVisitedStoreBytes inserts the same random packed-key
// population into the compact store and the legacy map-backed store, and
// reports the resident bytes per state of each — the metric behind the
// out-of-core work. The compact layout holds each key once in its slab
// and a 4-byte index slot at load 0.6 to 0.75, at most width+6.7 bytes
// per state plus the rest of the last slab chunk, against the map's
// ~176-byte entries; the bytes/state columns of the two sub-benchmarks
// are the compression ratio. The compact store fails the benchmark above
// 16 bytes/state, so a layout change that inflates the slab, the index
// or the entries cannot pass unnoticed.
func BenchmarkVisitedStoreBytes(b *testing.B) {
	const n = 8           // caches: width n+1 = 9 bytes per key
	const states = 200000 // population size, comparable to a mid-size Fig. 2 run
	rng := rand.New(rand.NewSource(1))
	seen := make(map[Key]bool, states)
	keys := make([]Key, 0, states)
	var kb [n + 1]byte
	for len(keys) < states {
		for i := 0; i < n; i++ {
			kb[i] = byte(1 + rng.Intn(62))
		}
		kb[n] = keyMark | byte(rng.Intn(3))
		if k := keyOf(kb[:]); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for _, impl := range []struct {
		name  string
		mk    func() visitedStore
		limit float64 // bytes/state ceiling; 0 for none
	}{
		{"compact", func() visitedStore { return newCompactStore(n + 1) }, 16},
		{"legacy-map", func() visitedStore { return newMapStore() }, 0},
	} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			var perState float64
			for i := 0; i < b.N; i++ {
				st := impl.mk()
				for _, k := range keys {
					st.insert(k, stateset.Hash(k.bytes(n+1)))
				}
				perState = float64(st.bytes()) / float64(st.size())
			}
			b.ReportMetric(perState, "bytes/state")
			if impl.limit > 0 && perState > impl.limit {
				b.Fatalf("%s store holds %.2f bytes/state, over the %.0f ceiling", impl.name, perState, impl.limit)
			}
		})
	}
}
