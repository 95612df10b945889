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
// instead of a full Key. Every probe takes the key with its hash
// (keyCodec.hash), computed once per successor by the caller.
//
// Reads (has/rank) are safe concurrently between mutations — the BFS
// workers dedup lock-free against the committed set during a level.
type visitedStore interface {
	has(k Key, h uint64) bool
	rank(k Key, h uint64) (uint32, bool)
	// insert adds a key that must not be present and returns its rank.
	insert(k Key, h uint64) uint32
	// size counts every key ever inserted, including spilled ones.
	size() int
	// resident counts keys currently held in memory.
	resident() int
	// bytes estimates the resident heap footprint.
	bytes() int64
	// spill serializes and drops all resident entries (nil when nothing
	// is resident).
	spill() []byte
	// restore re-adds the entries of a blob produced by spill with
	// their original ranks, rolling back a failed spill write.
	restore(blob []byte) error
	// release drops the resident entries when the run is done with them.
	release()
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

// checkOpCount rejects protocols with more operations than the uint8 op
// field of parentRec can index.
func checkOpCount(p *fsm.Protocol) error {
	if len(p.Ops) > 256 {
		return fmt.Errorf("enum: protocol has %d operations, provenance records support at most 256", len(p.Ops))
	}
	return nil
}

// compactStore is the visited and tuple store of every run: the
// stateset.Set over the codec's key bytes, an insertion-ordered key slab
// and an open-addressed index of slab positions, at most width+6.7 bytes
// per resident state instead of a map entry's ~130, with Spill support
// for out-of-core runs.
type compactStore struct {
	set   *stateset.Set
	width int
}

func newCompactStore(width int) *compactStore {
	return &compactStore{set: stateset.New(width), width: width}
}

func (cs *compactStore) has(k Key, h uint64) bool {
	_, ok := cs.rank(k, h)
	return ok
}

func (cs *compactStore) rank(k Key, h uint64) (uint32, bool) {
	return cs.set.RankHashed(k.bytes(cs.width), h)
}

func (cs *compactStore) insert(k Key, h uint64) uint32 {
	return cs.set.InsertHashed(k.bytes(cs.width), h)
}

func (cs *compactStore) size() int     { return cs.set.Len() }
func (cs *compactStore) resident() int { return cs.set.Resident() }
func (cs *compactStore) bytes() int64  { return cs.set.Bytes() }

func (cs *compactStore) spill() []byte { return cs.set.Spill() }

func (cs *compactStore) restore(blob []byte) error { return cs.set.Restore(blob) }

func (cs *compactStore) release() { cs.set.Release() }
