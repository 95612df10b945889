package sim

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/ccpsl"
	"repro/internal/compile"
	"repro/internal/fsm"
	"repro/internal/mutate"
	"repro/internal/protocols"
	"repro/internal/randproto"
	"repro/internal/trace"
)

// TestPinnedBlocksAreSkipped fills a cache with a held Lock-MSI lock, which
// has no Replace rule. With every resident block pinned the next reference
// is admitted over capacity; with an unpinned block behind the lock, that
// block is the victim. A victim loop that kept replacing the pinned head
// would never return, so the test runs under a deadline.
func TestPinnedBlocksAreSkipped(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		m := newMachine(t, Config{Protocol: protocols.LockMSI(), Caches: 2, Blocks: 3, Capacity: 1})
		for _, ref := range []trace.Ref{
			{Cache: 0, Op: protocols.OpAcquire, Block: 0},
			{Cache: 0, Op: fsm.OpRead, Block: 1},
		} {
			if _, err := m.Apply(ref); err != nil {
				t.Error(err)
				return
			}
		}
		if !m.resident(0, 0) || !m.resident(0, 1) || m.lru.n[0] != 2 {
			t.Errorf("all-pinned cache: resident %v %v, count %d; want both, 2", m.resident(0, 0), m.resident(0, 1), m.lru.n[0])
		}
		if st := m.Stats(); st.CapacityEvictions != 0 || st.Replacements != 0 {
			t.Errorf("pinned block was stepped: %+v", st)
		}

		m = newMachine(t, Config{Protocol: protocols.LockMSI(), Caches: 2, Blocks: 3, Capacity: 2})
		for _, ref := range []trace.Ref{
			{Cache: 0, Op: protocols.OpAcquire, Block: 0},
			{Cache: 0, Op: fsm.OpRead, Block: 1},
			{Cache: 0, Op: fsm.OpRead, Block: 2},
		} {
			if _, err := m.Apply(ref); err != nil {
				t.Error(err)
				return
			}
		}
		if !m.resident(0, 0) || m.resident(0, 1) || !m.resident(0, 2) {
			t.Errorf("want the lock kept and block 1 evicted: resident %v %v %v", m.resident(0, 0), m.resident(0, 1), m.resident(0, 2))
		}
		if m.Stats().CapacityEvictions != 1 {
			t.Errorf("capacity evictions = %d, want 1", m.Stats().CapacityEvictions)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a reference to a cache full of pinned blocks did not return")
	}
}

// refMachine is the reference model of the machine's bookkeeping: the
// slice LRU the intrusive lists replaced, and the counters as they were
// first computed, from a snapshot of the block's states before each step.
// Each cache's resident blocks sit in a slice, most recently used last,
// found by linear scan; each block's state is its own *fsm.Config, stepped
// by the interpreted fsm.Step, so the model shares no code with compile.
// Victims are chosen as Machine chooses them: least recently used first,
// pinned blocks skipped, each block resident on entry examined once.
type refMachine struct {
	p        *fsm.Protocol
	capacity int
	block    []*fsm.Config
	lru      [][]int
	stats    Stats
	rules    map[string]int64
}

func newRefMachine(p *fsm.Protocol, caches, blocks, capacity int) *refMachine {
	r := &refMachine{p: p, capacity: capacity, lru: make([][]int, caches), rules: map[string]int64{}}
	for b := 0; b < blocks; b++ {
		r.block = append(r.block, fsm.NewConfig(p, caches))
	}
	return r
}

func (r *refMachine) touch(i, b int) {
	r.drop(i, b)
	r.lru[i] = append(r.lru[i], b)
}

func (r *refMachine) drop(i, b int) {
	if k := slices.Index(r.lru[i], b); k >= 0 {
		r.lru[i] = slices.Delete(r.lru[i], k, k+1)
	}
}

func (r *refMachine) apply(ref trace.Ref) error {
	c := r.block[ref.Block]
	if ref.Op != fsm.OpReplace && r.capacity > 0 && !r.p.IsValidCopy(c.States[ref.Cache]) {
		for _, victim := range slices.Clone(r.lru[ref.Cache]) {
			if len(r.lru[ref.Cache]) < r.capacity {
				break
			}
			if len(r.p.RulesFor(r.block[victim].States[ref.Cache], fsm.OpReplace)) == 0 {
				continue
			}
			if err := r.step(trace.Ref{Cache: ref.Cache, Op: fsm.OpReplace, Block: victim}); err != nil {
				return err
			}
			r.stats.CapacityEvictions++
		}
	}
	return r.step(ref)
}

func (r *refMachine) step(ref trace.Ref) error {
	c := r.block[ref.Block]
	before := slices.Clone(c.States)
	wasResident := r.p.IsValidCopy(before[ref.Cache])
	res, err := fsm.Step(r.p, c, ref.Cache, ref.Op)
	if err != nil {
		return err
	}
	st := &r.stats
	st.Ops++
	switch ref.Op {
	case fsm.OpRead:
		st.Reads++
		if wasResident {
			st.ReadHits++
		} else {
			st.ReadMisses++
		}
		if res.Rule != nil && !res.Rule.Data.Spin && res.ReadVersion != c.Latest {
			st.StaleReads++
		}
	case fsm.OpWrite:
		st.Writes++
		if wasResident {
			st.WriteHits++
		} else {
			st.WriteMisses++
		}
	case fsm.OpReplace:
		st.Replacements++
	}
	if rule := res.Rule; rule != nil {
		r.rules[rule.Name]++
		d := rule.Data
		bus := len(rule.Observe) > 0 || (d.Store && d.UpdateSharers)
		if res.Supplier >= 0 {
			st.CacheSupplies++
			bus = true
		}
		if d.Source == fsm.SrcMemory {
			st.MemorySupplies++
			bus = true
		}
		if d.SupplierWriteBack || d.WriteBackSelf || (d.Store && d.WriteThrough) {
			st.WriteBacks++
			bus = true
		}
		for j, prev := range before {
			if j != ref.Cache && prev != c.States[j] && r.p.IsValidCopy(prev) && !r.p.IsValidCopy(c.States[j]) {
				st.Invalidations++
				bus = true
				r.drop(j, ref.Block)
			}
		}
		if d.Store && d.UpdateSharers {
			for j := range before {
				if j != ref.Cache && r.p.IsValidCopy(c.States[j]) {
					st.Updates++
					bus = true
				}
			}
		}
		if bus {
			st.BusTransactions++
		}
	}
	if r.capacity > 0 {
		if r.p.IsValidCopy(c.States[ref.Cache]) {
			r.touch(ref.Cache, ref.Block)
		} else {
			r.drop(ref.Cache, ref.Block)
		}
	}
	return nil
}

// checkLists compares m's lists with the model's and checks their links:
// the same blocks in the same order, every next mirrored by a prev, the
// ends unlinked, the count equal to the walked length, and no links left
// on blocks off the list.
func checkLists(t *testing.T, m *Machine, r *refMachine) {
	t.Helper()
	if r.capacity == 0 {
		if m.lru != nil {
			t.Fatal("unbounded machine keeps LRU lists")
		}
		return
	}
	l := m.lru
	for i := range r.lru {
		var walk []int
		prev := -1
		for b := l.front(i); b >= 0; b = l.after(i, b) {
			if len(walk) > m.cfg.Blocks {
				t.Fatalf("cache %d: list does not end", i)
			}
			if got := int(l.prev[i*l.blocks+b]) - 1; got != prev {
				t.Fatalf("cache %d: block %d has prev %d, want %d", i, b, got, prev)
			}
			walk = append(walk, b)
			prev = b
		}
		if int(l.tail[i])-1 != prev {
			t.Fatalf("cache %d: tail %d, walk ends at %d", i, l.tail[i]-1, prev)
		}
		if int(l.n[i]) != len(walk) {
			t.Fatalf("cache %d: count %d, list length %d", i, l.n[i], len(walk))
		}
		if !slices.Equal(walk, r.lru[i]) {
			t.Fatalf("cache %d: LRU order %v, model %v", i, walk, r.lru[i])
		}
		for b := 0; b < m.cfg.Blocks; b++ {
			k := i*l.blocks + b
			if !slices.Contains(walk, b) && (l.prev[k] != 0 || l.next[k] != 0) {
				t.Fatalf("cache %d: block %d is off the list but still linked", i, b)
			}
		}
	}
}

// keepInvalidSpec keeps a replaced copy's data in the initial state, names
// the initial state in a guard and a supplier list, and has one broadcast
// store that moves every idle cache out of it: a cache in the initial
// state can hold data, and idle caches matter to every part of a step.
const keepInvalidSpec = `protocol Keep-Invalid
characteristic sharing
states {
  Invalid initial
  Valid valid readable
  Dirty valid readable exclusive owner
}
rule read-hit { from Valid on R
  next Valid
  data keep }
rule read-miss-peer { from Invalid on R when any-other Invalid, Dirty
  next Valid
  data from-cache Dirty Invalid }
rule read-miss-alone { from Invalid on R when no-other Invalid, Dirty
  next Valid
  data memory }
rule write-hit { from Valid on W
  next Dirty
  observe Valid -> Invalid, Dirty -> Invalid
  data keep store }
rule write-broadcast { from Dirty on W
  next Dirty
  observe Invalid -> Valid
  data keep store update-sharers }
rule write-miss { from Invalid on W
  next Dirty
  observe Valid -> Invalid, Dirty -> Invalid
  data memory store }
rule replace { from Valid on Z
  next Invalid
  data keep }
rule replace-dirty { from Dirty on Z
  next Invalid
  data keep writeback-self }
`

// fuzzCorpus is every protocol FuzzMachine draws from: the built-ins, every
// mutate.Catalog mutant of them, randproto protocols of one to four valid
// states, and keepInvalidSpec. Mutants and random protocols fire rules
// with data effects and coincident transitions no built-in combines.
func fuzzCorpus(f *testing.F) []*compile.Protocol {
	var all []*fsm.Protocol
	for _, p := range protocols.All() {
		all = append(all, p)
		for _, m := range mutate.Catalog(p) {
			all = append(all, m.Protocol)
		}
	}
	rng := rand.New(rand.NewSource(1993))
	for k := 0; k < 24; k++ {
		all = append(all, randproto.New(rng, 1+k%4))
	}
	keep, err := ccpsl.Parse(keepInvalidSpec)
	if err != nil {
		f.Fatal(err)
	}
	all = append(all, keep)
	out := make([]*compile.Protocol, len(all))
	for i, p := range all {
		cp, err := compile.Compile(p)
		if err != nil {
			f.Fatal(err)
		}
		out[i] = cp
	}
	return out
}

// FuzzMachine runs random references over the fuzzCorpus protocols through
// a Machine and the reference model, and after every Apply checks that both
// agree on errors, on every block's state, on the counters and rule
// counts, on each cache's resident set and eviction order, that the
// intrusive lists are consistently linked, and that every block's
// occupancy bitset is exact. The first four bytes pick the protocol,
// caches, blocks (1–8) and capacity (0–4); each following pair is one
// reference: cache and op from the first byte, block from the second. A
// caches byte below 0xc0 picks 1–9 caches, any other 65–70, so a block's
// caches span two 64-bit words.
func FuzzMachine(f *testing.F) {
	compiled := fuzzCorpus(f)
	rng := rand.New(rand.NewSource(1))
	for i := range compiled {
		f.Add(append([]byte{byte(i), 3, 5, 2}, seedRefs(rng, 200)...))
	}
	for i := 0; i < len(compiled); i += 5 {
		f.Add(append([]byte{byte(i), byte(0xc0 + i%6), 3, byte(i % 5)}, seedRefs(rng, 400)...))
	}
	keep := byte(len(compiled) - 1)
	f.Add(append([]byte{keep, 7, 2, 1}, seedRefs(rng, 400)...))
	f.Add(append([]byte{keep, 0xc5, 2, 0}, seedRefs(rng, 400)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		cp := compiled[int(data[0])%len(compiled)]
		caches, blocks, capacity := 1+int(data[1])%9, 1+int(data[2])%8, int(data[3])%5
		if data[1] >= 0xc0 {
			caches = 65 + int(data[1])%6
		}
		m, err := New(Config{Protocol: cp.Src, Compiled: cp, Caches: caches, Blocks: blocks, Capacity: capacity})
		if err != nil {
			t.Fatal(err)
		}
		r := newRefMachine(cp.Src, caches, blocks, capacity)
		data = data[4:]
		for k := 0; k+1 < len(data) && k < 1024; k += 2 {
			ref := trace.Ref{
				Cache: int(data[k]) % caches,
				Op:    cp.Ops[int(data[k]>>2)%len(cp.Ops)],
				Block: int(data[k+1]) % blocks,
			}
			_, gotErr := m.Apply(ref)
			wantErr := r.apply(ref)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("ref %d %+v: error %v, model %v", k/2, ref, gotErr, wantErr)
			}
			for b := range r.block {
				got, want := m.Block(b), r.block[b]
				if !slices.Equal(got.States, want.States) || !slices.Equal(got.Versions, want.Versions) ||
					got.MemVersion != want.MemVersion || got.Latest != want.Latest {
					t.Fatalf("ref %d %+v: block %d is %+v, model %+v", k/2, ref, b, *got, *want)
				}
			}
			if got := m.Stats(); got != r.stats {
				t.Fatalf("ref %d %+v: stats %+v, model %+v", k/2, ref, got, r.stats)
			}
			if got := m.RuleCounts(); !maps.Equal(got, r.rules) {
				t.Fatalf("ref %d %+v: rule counts %v, model %v", k/2, ref, got, r.rules)
			}
			checkLists(t, m, r)
			for b := range m.block {
				if err := cp.CheckOccupancy(&m.block[b]); err != nil {
					t.Fatalf("ref %d %+v: block %d: %v", k/2, ref, b, err)
				}
			}
		}
	})
}

// seedRefs returns n random reference bytes for a FuzzMachine seed.
func seedRefs(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for k := range out {
		out[k] = byte(rng.Intn(256))
	}
	return out
}
