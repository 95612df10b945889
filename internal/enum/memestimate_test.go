package enum

import (
	"runtime"
	"testing"

	"repro/internal/fsm"
	"repro/internal/protocols"
)

// TestStateBytesEstimate pins the estBytes memory model against measured
// heap growth. The estimate drives the MaxBytes budget (and the spill
// threshold of out-of-core runs), so it must track what one admitted
// state actually costs: its key in the visited and tuple sets, its
// provenance record, and its frontier key. The test builds exactly the
// structures estBytes sums — for a large population of distinct
// configurations — and requires the estimate to stay within a factor of
// two of the allocator's per-state cost in either direction.
func TestStateBytesEstimate(t *testing.T) {
	p := protocols.Illinois()
	const n = 7
	kc := mustKeyCodec(t, p, n, ModeStrict)

	// Every base-|Q| digit string of length n is a distinct state tuple, so
	// both the full keys and the tuple keys are unique.
	q := len(p.States)
	m := 1
	for i := 0; i < n; i++ {
		m *= q
	}
	mk := func(i int) *fsm.Config {
		c := fsm.NewConfig(p, n)
		for j := 0; j < n; j++ {
			c.States[j] = p.States[i%q]
			i /= q
		}
		return c
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	visited, tuples := newCompactStore(kc.width), newCompactStore(kc.width)
	parents := make([]parentRec, 0, m)
	frontier := make([]Key, 0, m)
	for i := 0; i < m; i++ {
		state, key, err := kc.configKeys(mk(i))
		if err != nil {
			t.Fatal(err)
		}
		r := visited.insert(key, kc.hash(&key))
		parents = append(parents, parentRec{parent: r, cache: uint16(i % n), op: 0})
		tk := kc.tupleKey(&state)
		if th := kc.hash(&tk); !tuples.has(tk, th) {
			tuples.insert(tk, th)
		}
		frontier = append(frontier, state)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	measured := float64(after.HeapAlloc-before.HeapAlloc) / float64(m)
	est := float64(visited.bytes()+tuples.bytes()+
		int64(cap(parents))*parentRecBytes+
		int64(len(frontier))*kc.frontierBytes()) / float64(m)
	if measured < est/2 || measured > est*2 {
		t.Fatalf("estBytes model says %.1f B/state but measured %.1f B/state over %d states; estimate off by more than 2x",
			est, measured, m)
	}
	t.Logf("estBytes model %.1f B/state, measured %.1f B/state over %d states", est, measured, m)
	runtime.KeepAlive(visited)
	runtime.KeepAlive(parents)
	runtime.KeepAlive(tuples)
	runtime.KeepAlive(frontier)
}

// TestCompactVisitedSetFootprint pins the headline of the compact store:
// at least 4× fewer resident bytes per state than the seed's map-based
// model (24n+560 for visited+parents+tuples+frontier bookkeeping, of
// which the three map entries were ~3×(48+overhead) ≈ 430 bytes at n=7).
// The compact layout stores n+5 bytes per visited entry plus 8 bytes of
// provenance, so the ratio is enormous; the test guards the 4× floor
// with real heap measurements rather than the model.
func TestCompactVisitedSetFootprint(t *testing.T) {
	p := protocols.Illinois()
	const n = 7
	kc := mustKeyCodec(t, p, n, ModeStrict)
	q := len(p.States)
	m := 1
	for i := 0; i < n; i++ {
		m *= q
	}
	keys := make([]Key, 0, m)
	mk := func(i int) Key {
		c := fsm.NewConfig(p, n)
		for j := 0; j < n; j++ {
			c.States[j] = p.States[i%q]
			i /= q
		}
		_, key, err := kc.configKeys(c)
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	for i := 0; i < m; i++ {
		keys = append(keys, mk(i))
	}

	// Both structures are built in sequence and held alive together, so
	// each delta measures only its own build (no interleaved frees). The
	// doubled GC drains sync.Pool victim caches left by earlier tests,
	// which otherwise release memory mid-measurement.
	gc2 := func() { runtime.GC(); runtime.GC() }
	var m0, m1, m2 runtime.MemStats
	gc2()
	runtime.ReadMemStats(&m0)
	legacyVis := make(map[Key]bool)
	legacyPar := make(map[Key]parentRec)
	for _, k := range keys {
		legacyVis[k] = true
		legacyPar[k] = parentRec{}
	}
	gc2()
	runtime.ReadMemStats(&m1)
	cs := newCompactStore(kc.width)
	compactPar := make([]parentRec, 0, m)
	for _, k := range keys {
		compactPar = append(compactPar, parentRec{parent: cs.insert(k, kc.hash(&k))})
	}
	gc2()
	runtime.ReadMemStats(&m2)

	legacy := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(m)
	compact := float64(int64(m2.HeapAlloc)-int64(m1.HeapAlloc)) / float64(m)
	runtime.KeepAlive(keys) // dies after the compact loop otherwise, skewing m2
	runtime.KeepAlive(legacyVis)
	runtime.KeepAlive(legacyPar)
	runtime.KeepAlive(cs)
	runtime.KeepAlive(compactPar)
	if compact <= 0 {
		t.Fatalf("implausible compact measurement: %.1f B/state", compact)
	}
	ratio := legacy / compact
	t.Logf("visited-set footprint: legacy map %.1f B/state, compact %.1f B/state (%.1fx)", legacy, compact, ratio)
	if ratio < 4 {
		t.Fatalf("compact visited set saves only %.1fx over the map path, want >= 4x", ratio)
	}
}
