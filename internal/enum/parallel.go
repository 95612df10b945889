package enum

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime/debug"
	"sync"

	"repro/internal/compile"
	"repro/internal/fsm"
	"repro/internal/obs"
	"repro/internal/stateset"
)

// ExhaustiveParallelContext is ExhaustiveContext at an explicit width:
// workers ≤ 0 selects RunConfig.Workers, then GOMAXPROCS.
func ExhaustiveParallelContext(ctx context.Context, p *fsm.Protocol, n int, opts Options, workers int) (*Result, error) {
	return enumerate(ctx, p, n, opts, ModeStrict, opts.Width(workers))
}

// WorkerError records a panic recovered in a BFS worker, at any width. The
// worker's frontier slice is re-expanded on the calling goroutine after the
// recovery (admissions are idempotent under equal ranks, so a partial first
// attempt is harmless), so a transient panic leaves the run's results
// bit-for-bit identical to an undisturbed run; a panic that persists in
// the retry is additionally surfaced as a SpecError and the worker's
// pending admissions are discarded.
type WorkerError struct {
	// Level is the BFS depth at which the worker panicked.
	Level int
	// Worker is the index of the panicked worker within its level.
	Worker int
	// Value is the rendered panic value.
	Value string
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("enum: worker %d panicked at level %d: %s", e.Worker, e.Level, e.Value)
}

// succItem is one successor kept by expandOne: its state key (cache
// order) and dedup key (see keyCodec.keys) with the dedup key's hash,
// tagged with provenance for witness reconstruction (the acting cache, the
// operation's index in Protocol.Ops and the expanded state's index in the
// level's frontier) and with ord, its index among all the successors its
// expansion generated (dropped duplicates included), which ranks it.
type succItem struct {
	state  Key
	key    Key
	hash   uint64
	parent int
	cache  int
	op     int
	ord    int
	// tupleDup marks a successor whose state tuple is already known to a
	// spilled tuple census (set by spillFilter), so commit must not count
	// it again.
	tupleDup bool
}

// workerOut is a reusable successor buffer, pooled across levels and
// runs so steady-state expansion does not re-grow it.
type workerOut struct {
	items    []succItem
	specErrs []error
	// base and work are the compiled-configuration scratch of expandOne:
	// the expanded state decoded once, and the per-successor working copy.
	// cfg is the admission check's fsm.Config. They live here so the
	// pooled workers reuse them across expansions without allocating.
	base, work compile.Config
	cfg        fsm.Config
}

var workerOutPool = sync.Pool{New: func() any { return new(workerOut) }}

func getWorkerOut() *workerOut { return workerOutPool.Get().(*workerOut) }

func putWorkerOut(out *workerOut) {
	out.items = out.items[:0]
	out.specErrs = out.specErrs[:0]
	workerOutPool.Put(out)
}

// expandOne generates the successors of one frontier state into out and
// returns how many it generated (its Visits, duplicates included). The
// state key is decoded once into the compiled configuration; each
// successor is a compiled step of it, keyed straight from the stepped
// form and hashed once. One that seen reports as known (by key, hash and
// ord), or that repeats an earlier successor of this expansion, is counted
// and dropped.
func expandOne(kc *keyCodec, symmetric bool, cur *Key, out *workerOut, seen func(k Key, h uint64, ord int) bool) int {
	p, n, cp := kc.p, kc.n, kc.cp
	cb := cur.bytes(kc.width)
	kc.decode(cb, &out.base)
	gen := 0
	for i := 0; i < n; i++ {
		if symmetric && kc.shadowed(cb, i) {
			continue
		}
		st := int(out.base.States[i])
		for k := range p.Ops {
			if !cp.HasRules(st, k) {
				continue
			}
			out.work.CopyFrom(&out.base)
			if _, err := cp.Step(&out.work, i, k); err != nil {
				out.specErrs = append(out.specErrs, err)
				continue
			}
			ord := gen
			gen++
			state, key := kc.keys(&out.work)
			h := kc.hash(&key)
			if seen(key, h, ord) || out.generated(&key, h) {
				continue
			}
			out.items = append(out.items, succItem{state: state, key: key, hash: h, cache: i, op: k, ord: ord})
		}
	}
	return gen
}

// generated reports whether the expansion in progress already kept a
// successor with key k, of hash h.
func (out *workerOut) generated(k *Key, h uint64) bool {
	for i := range out.items {
		if out.items[i].hash == h && out.items[i].key == *k {
			return true
		}
	}
	return false
}

// rankShift packs (worker, item) into a single admission rank: worker w's
// successors rank after all of worker w-1's, and within a worker in
// generation order. Rank order is therefore the order a one-worker level
// generates its successors in, whatever the width, which makes the
// reconcile deterministic.
const rankShift = 40

// pendEntry is one successor admitted into the level's pending set, with
// its invariant violations precomputed inside the worker.
type pendEntry struct {
	it   succItem
	rank uint64
	viol []fsm.Violation
}

// pendStripe is one lock stripe of the pending set: an open-addressed
// table of fixed-size slots, probed linearly from the slot the key's hash
// picks. A slot holds pendEmpty, pendPurged or the pending rank+1 in 8
// bytes, then the key's bytes.
type pendStripe struct {
	mu    sync.Mutex
	slots []byte
	used  int
}

const (
	pendEmpty  = 0
	pendPurged = ^uint64(0) // the key's entry was withdrawn by purgeWorker
	// pendStripes is the pending set's lock striping when several workers
	// share it (a power of two). A lone worker's set is a single stripe
	// it never locks.
	pendStripes = 64
	// minPendSlots is the slot count of a stripe's first table.
	minPendSlots = 16
)

// pendSet is the pending set of one BFS level, reused across the levels of
// a run: the rank of the lowest-ranked pending successor of each key, in
// flat tables probed by the key's hash, whose low bits pick the stripe and
// whose high bits the slot. Workers admit concurrently; the minimum-rank
// entry wins key collisions, so the surviving set is independent of
// goroutine scheduling. The entries themselves live by value in lists[w],
// worker w's admissions in insertion order, which is rank order.
type pendSet struct {
	stripes []pendStripe
	lists   [][]pendEntry
	width   int // key bytes
	stride  int // slot bytes: 8 + width
}

func newPendSet(workers, width int) *pendSet {
	ps := &pendSet{stripes: make([]pendStripe, 1), lists: make([][]pendEntry, workers), width: width, stride: 8 + width}
	if workers > 1 {
		ps.stripes = make([]pendStripe, pendStripes)
	}
	return ps
}

// reset empties the set for the next level, keeping its storage.
func (ps *pendSet) reset() {
	for i := range ps.stripes {
		if st := &ps.stripes[i]; st.used > 0 {
			clear(st.slots)
			st.used = 0
		}
	}
	for w, l := range ps.lists {
		clear(l)
		ps.lists[w] = l[:0]
	}
}

// stripe returns the stripe of hash h.
func (ps *pendSet) stripe(h uint64) *pendStripe {
	return &ps.stripes[h&uint64(len(ps.stripes)-1)]
}

// lock returns the stripe of hash h, locked unless it is a lone worker's.
func (ps *pendSet) lock(h uint64) *pendStripe {
	st := ps.stripe(h)
	if len(ps.stripes) > 1 {
		st.mu.Lock()
	}
	return st
}

func (ps *pendSet) unlock(st *pendStripe) {
	if len(ps.stripes) > 1 {
		st.mu.Unlock()
	}
}

// find returns the offset of key k's slot in st, or of the empty slot
// where k belongs, and whether k is there. st must have a free slot.
func (ps *pendSet) find(st *pendStripe, k []byte, h uint64) (int, bool) {
	n := len(st.slots) / ps.stride
	hi, _ := bits.Mul64(h, uint64(n))
	for i := int(hi); ; {
		off := i * ps.stride
		if binary.LittleEndian.Uint64(st.slots[off:]) == pendEmpty {
			return off, false
		}
		if bytes.Equal(st.slots[off+8:off+ps.stride], k) {
			return off, true
		}
		if i++; i == n {
			i = 0
		}
	}
}

// pending returns the offset of the slot of key k (of hash h) in st and
// the rank pending there, if any.
func (ps *pendSet) pending(st *pendStripe, k Key, h uint64) (int, uint64, bool) {
	if st.used == 0 {
		return 0, 0, false
	}
	off, ok := ps.find(st, k.bytes(ps.width), h)
	if !ok {
		return 0, 0, false
	}
	v := binary.LittleEndian.Uint64(st.slots[off:])
	return off, v - 1, v != pendPurged
}

// beaten reports whether a successor of key k (of hash h) generated at
// rank loses to an entry already pending: one of equal or lower rank.
// Equal ranks lose, which makes re-running a worker (panic retry)
// idempotent.
func (ps *pendSet) beaten(k Key, h uint64, rank uint64) bool {
	st := ps.lock(h)
	_, r, ok := ps.pending(st, k, h)
	ps.unlock(st)
	return ok && r <= rank
}

// claim makes rank the pending rank of key k (of hash h), for a successor
// that was not beaten when expandOne tested it, and reports whether it
// did: a lower-ranked entry admitted since still wins. The caller then
// appends the admitted entry to its worker's list. An entry displaced from
// another worker's list stays there until survivors drops it.
func (ps *pendSet) claim(k Key, h uint64, rank uint64) bool {
	st := ps.lock(h)
	defer ps.unlock(st)
	if (st.used+1)*4 > len(st.slots)/ps.stride*3 {
		ps.grow(st)
	}
	kb := k.bytes(ps.width)
	off, ok := ps.find(st, kb, h)
	if ok {
		if v := binary.LittleEndian.Uint64(st.slots[off:]); v != pendPurged && v-1 <= rank {
			return false
		}
	} else {
		copy(st.slots[off+8:off+ps.stride], kb)
		st.used++
	}
	binary.LittleEndian.PutUint64(st.slots[off:], rank+1)
	return true
}

// grow doubles st's table, rehashing its keys.
func (ps *pendSet) grow(st *pendStripe) {
	old := st.slots
	st.slots = make([]byte, max(minPendSlots, 2*len(old)/ps.stride)*ps.stride)
	for off := 0; off < len(old); off += ps.stride {
		if binary.LittleEndian.Uint64(old[off:]) == pendEmpty {
			continue
		}
		k := old[off+8 : off+ps.stride]
		to, _ := ps.find(st, k, stateset.Hash(k))
		copy(st.slots[to:to+ps.stride], old[off:off+ps.stride])
	}
}

// won reports whether e is still the pending entry of its key. Called only
// while no worker runs.
func (ps *pendSet) won(e *pendEntry) bool {
	_, r, ok := ps.pending(ps.stripe(e.it.hash), e.it.key, e.it.hash)
	return ok && r == e.rank
}

// purgeWorker discards every pending entry admitted by worker w, used when
// a worker's panic persists through the retry: the degraded level then
// simply excludes that worker's output.
func (ps *pendSet) purgeWorker(w int) {
	for i := range ps.lists[w] {
		e := &ps.lists[w][i]
		st := ps.stripe(e.it.hash)
		if off, r, ok := ps.pending(st, e.it.key, e.it.hash); ok && r == e.rank {
			binary.LittleEndian.PutUint64(st.slots[off:], pendPurged)
		}
	}
	clear(ps.lists[w])
	ps.lists[w] = ps.lists[w][:0]
}

// survivors drops from the first nw lists every entry a lower rank
// displaced, and returns the lists. Read in worker order, they hold the surviving admissions in rank
// order: the exact order a one-worker run admits them in. Worker 0's
// ranks are the level's lowest, so its list is never displaced.
func (ps *pendSet) survivors(nw int) [][]pendEntry {
	for w := 1; w < nw; w++ {
		l := ps.lists[w]
		kept := l[:0]
		for i := range l {
			if !ps.won(&l[i]) {
				continue
			}
			kept = append(kept, l[i])
		}
		clear(l[len(kept):])
		ps.lists[w] = kept
	}
	return ps.lists[:nw]
}

// Test hooks. testLevelHook observes each level before its workers start;
// testWorkerHook runs in each worker's first attempt at its slice (and not
// in the retry), which is how the tests inject worker panics.
var (
	testLevelHook  func(level int)
	testWorkerHook func(level, worker int)
)

// enumerate seeds a fresh run and drives it at the given width.
func enumerate(ctx context.Context, p *fsm.Protocol, n int, opts Options, mode string, workers int) (*Result, error) {
	b, done, err := newBFS(p, n, opts, mode)
	if err != nil {
		return nil, err
	}
	if done {
		return b.res, nil
	}
	return b.runPar(ctx, workers)
}

// expandWorker is the body of one level worker: it expands the frontier
// slice [lo:hi] via expandOne, which drops successors already in the
// committed visited set (read-only during the level, so the read is
// lock-free) or beaten by a pending entry, and offers the survivors to the
// sharded pending set under rank w<<rankShift|item, where item counts
// every successor the worker generated. It returns that count (the
// worker's contribution to Visits) and any specification errors, both in
// deterministic order.
func (b *bfs) expandWorker(w, lo, hi int, ps *pendSet) (int, []error) {
	out := getWorkerOut()
	first := uint64(w) << rankShift
	base := first // rank of the current expansion's first successor
	seen := func(k Key, h uint64, ord int) bool {
		return b.visited.has(k, h) || ps.beaten(k, h, base+uint64(ord))
	}
	for i := lo; i < hi; i++ {
		out.items = out.items[:0]
		gen := expandOne(b.kc, b.symmetric, &b.frontier[i], out, seen)
		for _, it := range out.items {
			it.parent = i
			rank := base + uint64(it.ord)
			if !ps.claim(it.key, it.hash, rank) {
				continue
			}
			// The admission check runs on the successor decoded into the
			// worker's fsm.Config.
			b.kc.decodeConfig(it.state.bytes(b.kc.width), &out.cfg)
			ps.lists[w] = append(ps.lists[w], pendEntry{it: it, rank: rank, viol: fsm.CheckConfig(b.p, &out.cfg, b.opts.Strict)})
		}
		base += uint64(gen)
	}
	specErrs := out.specErrs
	out.specErrs = nil // retained by the caller; don't recycle the backing array
	putWorkerOut(out)
	return int(base - first), specErrs
}

// levelSlot is one worker's share of a level: the bounds of its frontier
// slice, and what expanding the slice produced.
type levelSlot struct {
	lo, hi int
	gen    int
	errs   []error
	panic  *WorkerError
}

// runWorker is worker w's first attempt at its slice. A panic is recovered
// into s.panic for the retry.
func (b *bfs) runWorker(level, w int, ps *pendSet, s *levelSlot) {
	defer func() {
		if r := recover(); r != nil {
			s.gen, s.errs = 0, nil
			s.panic = &WorkerError{
				Level: level, Worker: w,
				Value: fmt.Sprint(r),
				Stack: string(debug.Stack()),
			}
		}
	}()
	if testWorkerHook != nil {
		testWorkerHook(level, w)
	}
	s.gen, s.errs = b.expandWorker(w, s.lo, s.hi, ps)
}

// retryWorker re-expands the slice of a worker that panicked. Expansion is
// deterministic and pending admission is idempotent under equal ranks, so
// entries from the aborted first attempt simply stay and the retry fills
// in the rest: the merged level is identical to an undisturbed one. A
// panic that persists is reported, and the worker's admissions withdrawn,
// instead of crashing the run.
func (b *bfs) retryWorker(w int, ps *pendSet, s *levelSlot) {
	defer func() {
		if r := recover(); r != nil {
			s.gen, s.errs = 0, nil
			ps.purgeWorker(w)
			b.res.SpecErrors = append(b.res.SpecErrors, fmt.Errorf(
				"enum: panic persisted in the retry of level %d slice [%d:%d]: %v",
				s.panic.Level, s.lo, s.hi, r))
		}
	}()
	s.gen, s.errs = b.expandWorker(w, s.lo, s.hi, ps)
}

// runPar drives the level-synchronous BFS of Figure 2 from the run's
// frontier at the given width; ≤ 1 means one worker, run on the calling
// goroutine. Within a level, workers expand contiguous frontier slices and
// admit successors concurrently into the sharded pending set (the
// committed visited set is read-only during the level, so dedup against
// earlier levels is lock-free). Budgets, spills and checkpoints happen
// between levels, and the reconcile applies the pending admissions in rank
// order, so every width admits the same states in the same order.
func (b *bfs) runPar(ctx context.Context, workers int) (*Result, error) {
	sp := b.orun.Phase(obs.PhaseExpand)
	defer sp.End()
	workers = max(workers, 1)
	if err := b.initSpill(); err != nil {
		return nil, err
	}
	ps := newPendSet(workers, b.kc.width)
	slots := make([]levelSlot, workers)
	// Bases for run-relative level stats (Visits and the visited set may
	// carry over from a resumed checkpoint).
	visits0, admitted0 := b.res.Visits, b.visited.size()
	for level := 0; len(b.frontier) > 0; level++ {
		if err := b.maybeSpill(); err != nil {
			return nil, err
		}
		if err := b.stopCheck(ctx); err != nil {
			b.stop(err)
			return b.res, nil
		}
		if err := b.maybeCheckpoint(); err != nil {
			return nil, err
		}
		if testLevelHook != nil {
			testLevelHook(level)
		}

		size := len(b.frontier)
		nw := min(workers, size)
		chunk := (size + nw - 1) / nw
		for w := range slots[:nw] {
			lo := min(w*chunk, size)
			slots[w] = levelSlot{lo: lo, hi: min(lo+chunk, size)}
		}
		ps.reset()
		if nw == 1 {
			b.runWorker(level, 0, ps, &slots[0])
		} else {
			var wg sync.WaitGroup
			for w := range slots[:nw] {
				wg.Add(1)
				go func(level, w int) {
					defer wg.Done()
					b.runWorker(level, w, ps, &slots[w])
				}(level, w)
			}
			wg.Wait()
		}
		for w := range slots[:nw] {
			if we := slots[w].panic; we != nil {
				b.res.WorkerErrors = append(b.res.WorkerErrors, we)
				b.orun.Event("worker_panics_total", 1)
				b.retryWorker(w, ps, &slots[w])
			}
		}

		// Reconcile: apply the surviving admissions in rank order. A
		// mid-level stop (StopOnViolation, state cap) at rank (w, i)
		// counts exactly the successors a one-worker level would have
		// generated by then: all of workers < w plus i+1 of worker w.
		rsp := b.orun.Phase(obs.PhaseReconcile)
		lists := ps.survivors(nw)
		if b.spill != nil {
			// Delayed duplicate detection: drop pending successors whose
			// key (or tuple) already lives in a spill file.
			if err := b.spillFilter(lists); err != nil {
				rsp.End()
				return nil, err
			}
		}
		visits := b.res.Visits
		for w, l := range lists {
			b.res.SpecErrors = append(b.res.SpecErrors, slots[w].errs...)
			for i := range l {
				if b.commit(&l[i].it, l[i].viol) {
					b.res.Visits = visits + int(l[i].rank&(1<<rankShift-1)) + 1
					rsp.End()
					return b.res, nil
				}
			}
			visits += slots[w].gen
		}
		b.res.Visits = visits
		rsp.End()
		clear(b.frontier)
		b.sinceCp += size
		b.frontier, b.next = b.next, b.frontier[:0]
		b.frontRanks, b.nextRanks = b.nextRanks, b.frontRanks[:0]
		b.bytes = b.estBytes()
		visits = b.res.Visits - visits0
		b.orun.Level(obs.LevelStats{
			Level:     level,
			Frontier:  len(b.frontier),
			Essential: b.visited.size(),
			Visits:    visits,
			Pruned:    visits - (b.visited.size() - admitted0),
			EstBytes:  b.bytes,
		})
	}
	b.finish()
	return b.res, nil
}
