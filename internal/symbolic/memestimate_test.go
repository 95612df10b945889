package symbolic

import (
	"runtime"
	"testing"
)

// TestCStateBytesEstimate pins the cstateBytes memory model against measured
// heap growth. The estimate drives the MaxBytes budget, so it must track what
// one listed composite state actually costs: the CState with its bitmask
// summaries, its key string (which holds the component vectors and is shared
// by the state and the seen-keys map), and its slots in the ordered list and the
// containment index. The test builds exactly those structures for a large
// population of distinct states and requires the estimate to stay within a
// factor of two of the allocator's per-state cost in either direction.
func TestCStateBytesEstimate(t *testing.T) {
	// A synthetic-protocol-sized class vector; digit strings in base 4 over
	// the first eight classes give 4^8 distinct states.
	const nq = 20
	const m = 1 << 16

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	list := make([]*CState, 0, m)
	ix := newCIndex()
	seen := make(map[string]struct{})
	var est int64
	for i := 0; i < m; i++ {
		reps := make([]Rep, nq)
		cdata := make([]Data, nq)
		for j, d := 0, i; j < 8; j, d = j+1, d/4 {
			reps[j] = Rep(d % 4)
			if reps[j] != RZero {
				cdata[j] = DFresh
			}
		}
		s := newCState(len(reps), masksOf(reps, cdata), CountOne, DFresh)
		list = append(list, s)
		ix.add(s)
		seen[s.Key()] = struct{}{}
		est += cstateBytes(s)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	measured := float64(after.HeapAlloc-before.HeapAlloc) / float64(m)
	perState := float64(est) / float64(m)
	if measured < perState/2 || measured > perState*2 {
		t.Fatalf("cstateBytes = %.1f but measured %.1f B/state over %d states; estimate off by more than 2x",
			perState, measured, m)
	}
	t.Logf("cstateBytes = %.1f, measured %.1f B/state", perState, measured)
	runtime.KeepAlive(list)
	runtime.KeepAlive(ix)
	runtime.KeepAlive(seen)
}
