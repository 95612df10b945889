package enum

import (
	"fmt"

	"repro/internal/fsm"
	"repro/internal/stateset"
)

// visitedStore is the dedup + rank layer under the shared bfs state: an
// insert-only set of Keys where each key's rank is its admission order
// (the initial state is rank 0). Ranks are what provenance records and
// checkpoints reference, so states can be identified by a 4-byte index
// instead of a full Key.
//
// Reads (has/rank) are safe concurrently between mutations — the BFS
// workers dedup lock-free against the committed set during a level.
type visitedStore interface {
	has(k Key) bool
	rank(k Key) (uint32, bool)
	// insert adds a key that must not be present and returns its rank.
	insert(k Key) uint32
	// size counts every key ever inserted, including spilled ones.
	size() int
	// resident counts keys currently held in memory.
	resident() int
	// bytes estimates the resident heap footprint.
	bytes() int64
	// forEach visits every resident key with its rank.
	forEach(f func(k Key, rank uint32))
	// spill serializes and drops all resident entries (nil when the
	// store does not support spilling or nothing is resident).
	spill() []byte
	// restore re-adds the entries of a blob produced by spill with
	// their original ranks, rolling back a failed spill write.
	restore(blob []byte) error
}

// parentRec is the provenance of one admitted state, indexed by its
// rank: the admission rank of the state it was first reached from, the
// acting cache, and the operation (an index into Protocol.Ops). 8 bytes
// per state, vs the old map[Key]parent's ~130.
type parentRec struct {
	parent uint32
	cache  uint16
	op     uint8
}

// noParent marks the initial state's record.
const noParent = ^uint32(0)

// parentRecBytes is the slice cost per provenance record.
const parentRecBytes = 8

// testForceLegacyStore, when set by tests, selects the map-backed
// fallback store even for packable runs, so the compact set can be
// property-tested against the legacy path on identical inputs.
var testForceLegacyStore = false

// newStores picks the visited and tuple store implementation for a run:
// the compact hash-sharded set when the codec packs keys into
// fixed-width bytes, the map fallback otherwise (huge n or state
// alphabets, where keys carry heap strings a flat slab cannot hold).
func newStores(kc *keyCodec, n int) (visited, tuples visitedStore) {
	if kc.packed && !testForceLegacyStore {
		return newCompactStore(n), newCompactStore(n)
	}
	return newMapStore(), newMapStore()
}

// checkOpCount rejects protocols with more operations than the uint8 op
// field of parentRec can index.
func checkOpCount(p *fsm.Protocol) error {
	if len(p.Ops) > 256 {
		return fmt.Errorf("enum: protocol has %d operations, provenance records support at most 256", len(p.Ops))
	}
	return nil
}

// packKeyBytes renders a packed Key into its width-(n+1) byte form for
// the compact store: the n per-cache bytes plus the reserved
// marker/memory byte. buf must have at least n+1 bytes.
func packKeyBytes(k Key, n int, buf []byte) []byte {
	copy(buf[:n], k.packed[:n])
	buf[n] = k.packed[maxPackedCaches]
	return buf[:n+1]
}

// unpackKeyBytes is the inverse of packKeyBytes.
func unpackKeyBytes(b []byte, n int) Key {
	var k Key
	copy(k.packed[:n], b[:n])
	k.packed[maxPackedCaches] = b[n]
	return k
}

// compactStore backs packed runs with the hash-sharded sorted-run set
// of internal/stateset: n+5 bytes per resident state (key + rank)
// instead of a map entry's ~130, and Spill support for out-of-core
// runs.
type compactStore struct {
	set *stateset.Set
	n   int
}

func newCompactStore(n int) *compactStore {
	return &compactStore{set: stateset.New(n + 1), n: n}
}

func (cs *compactStore) has(k Key) bool {
	var buf [maxPackedCaches + 1]byte
	return cs.set.Has(packKeyBytes(k, cs.n, buf[:]))
}

func (cs *compactStore) rank(k Key) (uint32, bool) {
	var buf [maxPackedCaches + 1]byte
	return cs.set.Rank(packKeyBytes(k, cs.n, buf[:]))
}

func (cs *compactStore) insert(k Key) uint32 {
	var buf [maxPackedCaches + 1]byte
	return cs.set.Insert(packKeyBytes(k, cs.n, buf[:]))
}

func (cs *compactStore) size() int     { return cs.set.Len() }
func (cs *compactStore) resident() int { return cs.set.Resident() }
func (cs *compactStore) bytes() int64  { return cs.set.Bytes() }

func (cs *compactStore) forEach(f func(k Key, rank uint32)) {
	cs.set.ForEach(func(b []byte, r uint32) { f(unpackKeyBytes(b, cs.n), r) })
}

func (cs *compactStore) spill() []byte { return cs.set.Spill() }

func (cs *compactStore) restore(blob []byte) error { return cs.set.Restore(blob) }

// mapStore is the fallback for runs the codec cannot pack. Same
// interface, classic map + slice layout, no spill support.
type mapStore struct {
	ranks    map[Key]uint32
	keys     []Key
	strBytes int64
}

// mapEntryBytes approximates the heap cost of one mapStore entry: the
// 48-byte Key twice (map key and rank-index slice), the rank value and
// map bucket overhead.
const mapEntryBytes = 176

func newMapStore() *mapStore {
	return &mapStore{ranks: make(map[Key]uint32)}
}

func (ms *mapStore) has(k Key) bool {
	_, ok := ms.ranks[k]
	return ok
}

func (ms *mapStore) rank(k Key) (uint32, bool) {
	r, ok := ms.ranks[k]
	return r, ok
}

func (ms *mapStore) insert(k Key) uint32 {
	r := uint32(len(ms.keys))
	ms.ranks[k] = r
	ms.keys = append(ms.keys, k)
	ms.strBytes += int64(len(k.str))
	return r
}

func (ms *mapStore) size() int     { return len(ms.keys) }
func (ms *mapStore) resident() int { return len(ms.keys) }

func (ms *mapStore) bytes() int64 {
	return int64(len(ms.keys))*mapEntryBytes + ms.strBytes
}

func (ms *mapStore) forEach(f func(k Key, rank uint32)) {
	for r, k := range ms.keys {
		f(k, uint32(r))
	}
}

func (ms *mapStore) spill() []byte { return nil }

func (ms *mapStore) restore([]byte) error {
	return fmt.Errorf("enum: map-backed visited store cannot restore a spill blob")
}
