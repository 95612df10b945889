package sim

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/trace"
)

func newMachine(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewRejectsBadConfig(t *testing.T) {
	p := protocols.Illinois()
	cases := []Config{
		{Protocol: nil, Caches: 2, Blocks: 2},
		{Protocol: p, Caches: 0, Blocks: 2},
		{Protocol: p, Caches: 2, Blocks: 0},
		{Protocol: p, Caches: 2, Blocks: 2, Capacity: -1},
		{Protocol: &fsm.Protocol{Name: "broken"}, Caches: 2, Blocks: 2},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: config %+v must be rejected", i, cfg)
		}
	}
}

func TestApplyRejectsOutOfRange(t *testing.T) {
	m := newMachine(t, Config{Protocol: protocols.Illinois(), Caches: 2, Blocks: 2})
	if _, err := m.Apply(trace.Ref{Cache: 5, Op: fsm.OpRead, Block: 0}); err == nil {
		t.Error("out-of-range cache must be rejected")
	}
	if _, err := m.Apply(trace.Ref{Cache: 0, Op: fsm.OpRead, Block: 9}); err == nil {
		t.Error("out-of-range block must be rejected")
	}
}

func TestStatsAccountingIdentities(t *testing.T) {
	m := newMachine(t, Config{Protocol: protocols.Illinois(), Caches: 4, Blocks: 8, Capacity: 4})
	w, err := trace.NewUniform(11, 4, 8, 0.3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run(w, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads+st.Writes+st.Replacements != st.Ops {
		t.Errorf("op classes do not sum: %d+%d+%d != %d", st.Reads, st.Writes, st.Replacements, st.Ops)
	}
	if st.ReadHits+st.ReadMisses != st.Reads {
		t.Errorf("read hits+misses != reads")
	}
	if st.WriteHits+st.WriteMisses != st.Writes {
		t.Errorf("write hits+misses != writes")
	}
	// Replacements triggered internally by capacity evictions are counted
	// on top of the workload's explicit replacement references.
	if st.Replacements < st.CapacityEvictions {
		t.Errorf("capacity evictions (%d) exceed replacements (%d)", st.CapacityEvictions, st.Replacements)
	}
	if st.StaleReads != 0 {
		t.Errorf("correct protocol returned %d stale reads", st.StaleReads)
	}
	if st.MissRatio() <= 0 || st.MissRatio() >= 1 {
		t.Errorf("implausible miss ratio %f", st.MissRatio())
	}
}

func TestCapacityBoundIsRespected(t *testing.T) {
	const capacity = 2
	m := newMachine(t, Config{Protocol: protocols.Illinois(), Caches: 2, Blocks: 6, Capacity: capacity})
	for b := 0; b < 6; b++ {
		if _, err := m.Apply(trace.Ref{Cache: 0, Op: fsm.OpRead, Block: b}); err != nil {
			t.Fatal(err)
		}
		resident := 0
		for bb := 0; bb < 6; bb++ {
			if m.resident(0, bb) {
				resident++
			}
		}
		if resident > capacity {
			t.Fatalf("after touching block %d: %d resident blocks > capacity %d", b, resident, capacity)
		}
	}
	if m.Stats().CapacityEvictions == 0 {
		t.Error("walking 6 blocks through a 2-block cache must evict")
	}
}

func TestLRUEvictsOldest(t *testing.T) {
	m := newMachine(t, Config{Protocol: protocols.Illinois(), Caches: 1, Blocks: 3, Capacity: 2})
	mustApply := func(b int) {
		t.Helper()
		if _, err := m.Apply(trace.Ref{Cache: 0, Op: fsm.OpRead, Block: b}); err != nil {
			t.Fatal(err)
		}
	}
	mustApply(0)
	mustApply(1)
	mustApply(0) // touch 0: block 1 becomes LRU
	mustApply(2) // must evict block 1
	if !m.resident(0, 0) || m.resident(0, 1) || !m.resident(0, 2) {
		t.Fatalf("LRU eviction wrong: resident = %v %v %v",
			m.resident(0, 0), m.resident(0, 1), m.resident(0, 2))
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	m := newMachine(t, Config{Protocol: protocols.Illinois(), Caches: 1, Blocks: 2, Capacity: 1})
	if _, err := m.Apply(trace.Ref{Cache: 0, Op: fsm.OpWrite, Block: 0}); err != nil {
		t.Fatal(err)
	}
	if m.Block(0).MemVersion == m.Block(0).Latest {
		t.Fatal("setup: block 0 should be dirty")
	}
	// Touching block 1 evicts dirty block 0, which must write back.
	if _, err := m.Apply(trace.Ref{Cache: 0, Op: fsm.OpRead, Block: 1}); err != nil {
		t.Fatal(err)
	}
	if m.Block(0).MemVersion != m.Block(0).Latest {
		t.Fatal("evicting a dirty block must write it back")
	}
	if m.Stats().WriteBacks == 0 {
		t.Error("write-back not counted")
	}
}

func TestRemoteInvalidationSheddsResidency(t *testing.T) {
	m := newMachine(t, Config{Protocol: protocols.Illinois(), Caches: 2, Blocks: 1, Capacity: 1})
	if _, err := m.Apply(trace.Ref{Cache: 0, Op: fsm.OpRead, Block: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(trace.Ref{Cache: 1, Op: fsm.OpWrite, Block: 0}); err != nil {
		t.Fatal(err)
	}
	if m.resident(0, 0) {
		t.Fatal("cache 0's copy must be gone after the remote write")
	}
	if m.Stats().Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", m.Stats().Invalidations)
	}
	if m.lru.n[0] != 0 {
		t.Fatal("LRU bookkeeping kept an invalidated block")
	}
}

func TestBroadcastUpdatesCounted(t *testing.T) {
	m := newMachine(t, Config{Protocol: protocols.Firefly(), Caches: 3, Blocks: 1})
	for i := 0; i < 3; i++ {
		if _, err := m.Apply(trace.Ref{Cache: i, Op: fsm.OpRead, Block: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Apply(trace.Ref{Cache: 0, Op: fsm.OpWrite, Block: 0}); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Updates != 2 {
		t.Fatalf("updates = %d, want 2 (both remote sharers refreshed)", st.Updates)
	}
	if st.Invalidations != 0 {
		t.Fatalf("Firefly must not invalidate, got %d", st.Invalidations)
	}
	// Everyone must now read fresh data.
	for i := 0; i < 3; i++ {
		res, err := m.Apply(trace.Ref{Cache: i, Op: fsm.OpRead, Block: 0})
		if err != nil {
			t.Fatal(err)
		}
		if res.ReadVersion != m.Block(0).Latest {
			t.Fatalf("cache %d read stale data after the broadcast", i)
		}
	}
}

func TestAllProtocolsAllWorkloadsCoherent(t *testing.T) {
	workloads := []func() (trace.Workload, error){
		func() (trace.Workload, error) { return trace.NewUniform(3, 4, 8, 0.3, 0.05) },
		func() (trace.Workload, error) { return trace.NewHotBlock(4, 4, 8, 0.4, 0.6) },
		func() (trace.Workload, error) { return trace.NewMigratory(5, 4, 8, 3) },
		func() (trace.Workload, error) { return trace.NewProducerConsumer(6, 4, 8, 3) },
	}
	for _, p := range protocols.All() {
		for _, mkw := range workloads {
			w, err := mkw()
			if err != nil {
				t.Fatal(err)
			}
			m := newMachine(t, Config{Protocol: p, Caches: 4, Blocks: 8, Capacity: 4, Strict: true})
			st, err := m.Run(w, 30000)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, w.Name(), err)
			}
			if st.StaleReads != 0 {
				t.Errorf("%s/%s: %d stale reads", p.Name, w.Name(), st.StaleReads)
			}
			if v := m.CheckInvariants(); len(v) != 0 {
				t.Errorf("%s/%s: final-state violation %v", p.Name, w.Name(), v[0])
			}
		}
	}
}

func TestBrokenProtocolShowsStaleReads(t *testing.T) {
	p := protocols.Illinois()
	for i := range p.Rules {
		if p.Rules[i].Name == "write-hit-shared" {
			p.Rules[i].Observe = nil
		}
	}
	p = p.Clone()
	m := newMachine(t, Config{Protocol: p, Caches: 4, Blocks: 4, Capacity: 4})
	w, err := trace.NewUniform(9, 4, 4, 0.4, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run(w, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if st.StaleReads == 0 {
		t.Fatal("the broken protocol must return stale data under load")
	}
}

func TestBlocksAreIndependent(t *testing.T) {
	m := newMachine(t, Config{Protocol: protocols.Illinois(), Caches: 2, Blocks: 2})
	if _, err := m.Apply(trace.Ref{Cache: 0, Op: fsm.OpWrite, Block: 0}); err != nil {
		t.Fatal(err)
	}
	if m.Block(1).States[0] != "Invalid" {
		t.Fatal("writing block 0 must not disturb block 1")
	}
	if m.Block(0).States[0] != "Dirty" {
		t.Fatal("block 0 should be dirty")
	}
}

func TestBusTransactionAccounting(t *testing.T) {
	m := newMachine(t, Config{Protocol: protocols.Illinois(), Caches: 2, Blocks: 1})
	// Read miss from memory: bus.
	if _, err := m.Apply(trace.Ref{Cache: 0, Op: fsm.OpRead, Block: 0}); err != nil {
		t.Fatal(err)
	}
	if m.Stats().BusTransactions != 1 || m.Stats().MemorySupplies != 1 {
		t.Fatalf("miss should use the bus once: %+v", m.Stats())
	}
	// Read hit: silent.
	if _, err := m.Apply(trace.Ref{Cache: 0, Op: fsm.OpRead, Block: 0}); err != nil {
		t.Fatal(err)
	}
	if m.Stats().BusTransactions != 1 {
		t.Fatalf("a hit must not use the bus: %+v", m.Stats())
	}
	// Silent upgrade V-Ex -> Dirty: no bus traffic in Illinois.
	if _, err := m.Apply(trace.Ref{Cache: 0, Op: fsm.OpWrite, Block: 0}); err != nil {
		t.Fatal(err)
	}
	if m.Stats().BusTransactions != 1 {
		t.Fatalf("the silent upgrade must not use the bus: %+v", m.Stats())
	}
	// Remote read miss serviced cache-to-cache: bus.
	if _, err := m.Apply(trace.Ref{Cache: 1, Op: fsm.OpRead, Block: 0}); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.BusTransactions != 2 || st.CacheSupplies != 1 || st.WriteBacks != 1 {
		t.Fatalf("dirty supply should be one bus transaction with write-back: %+v", st)
	}
}

func TestUnboundedCapacityNeverEvicts(t *testing.T) {
	m := newMachine(t, Config{Protocol: protocols.Illinois(), Caches: 1, Blocks: 16, Capacity: 0})
	for b := 0; b < 16; b++ {
		if _, err := m.Apply(trace.Ref{Cache: 0, Op: fsm.OpRead, Block: b}); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats().CapacityEvictions != 0 {
		t.Fatal("unbounded capacity must never evict")
	}
	for b := 0; b < 16; b++ {
		if !m.resident(0, b) {
			t.Fatalf("block %d not resident", b)
		}
	}
}

func TestRuleCountsDynamicCoverage(t *testing.T) {
	// A sufficiently long random run must exercise every Illinois rule —
	// the dynamic counterpart of core.DeadRules' static liveness.
	p := protocols.Illinois()
	m := newMachine(t, Config{Protocol: p, Caches: 4, Blocks: 4, Capacity: 2})
	w, err := trace.NewUniform(5, 4, 4, 0.4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(w, 100000); err != nil {
		t.Fatal(err)
	}
	counts := m.RuleCounts()
	for i := range p.Rules {
		if counts[p.Rules[i].Name] == 0 {
			t.Errorf("rule %s never fired in 100k references", p.Rules[i].Name)
		}
	}
	// Every operation fires at most one rule; replacements of absent
	// blocks are no-ops and fire none.
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 || total > m.Stats().Ops {
		t.Errorf("rule firings (%d) must be positive and at most Ops (%d)", total, m.Stats().Ops)
	}
}

func TestRuleCountsIsolatedCopy(t *testing.T) {
	m := newMachine(t, Config{Protocol: protocols.Illinois(), Caches: 2, Blocks: 1})
	if _, err := m.Apply(trace.Ref{Cache: 0, Op: fsm.OpRead, Block: 0}); err != nil {
		t.Fatal(err)
	}
	counts := m.RuleCounts()
	counts["read-miss-from-memory"] = 999
	if m.RuleCounts()["read-miss-from-memory"] == 999 {
		t.Fatal("RuleCounts must return a copy")
	}
}

func TestLockProtocolCriticalSections(t *testing.T) {
	// Drive Lock-MSI through interleaved critical sections and verify
	// mutual exclusion dynamically: at no point do two caches hold the
	// lock, no read inside a section is stale, and spins are harmless.
	p := protocols.LockMSI()
	m := newMachine(t, Config{Protocol: p, Caches: 4, Blocks: 2})
	w, err := trace.NewCriticalSection(17, 4, 2, 3, protocols.OpAcquire, protocols.OpRelease)
	if err != nil {
		t.Fatal(err)
	}
	acquires, spins := 0, 0
	for k := 0; k < 60000; k++ {
		ref := w.Next()
		res, err := m.Apply(ref)
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		if ref.Op == protocols.OpAcquire && res.Rule != nil {
			if res.Rule.Data.Spin {
				spins++
			} else {
				acquires++
				w.Acquired()
			}
		}
		for b := 0; b < 2; b++ {
			locked := 0
			for _, s := range m.Block(b).States {
				if s == protocols.LkLocked {
					locked++
				}
			}
			if locked > 1 {
				t.Fatalf("step %d: mutual exclusion violated on block %d", k, b)
			}
		}
	}
	if m.Stats().StaleReads != 0 {
		t.Fatalf("%d stale reads inside critical sections", m.Stats().StaleReads)
	}
	if acquires == 0 || spins == 0 {
		t.Fatalf("workload did not exercise contention: %d acquires, %d spins", acquires, spins)
	}
	if v := m.CheckInvariants(); len(v) != 0 {
		t.Fatalf("final state: %v", v[0])
	}
}

// TestFailingStepChangesNothing drives Illinois with the dirty-owner read
// miss widened to fire when only Shared copies exist, so a read by a cache
// that holds no copy selects a rule whose supplier does not exist. The
// step must fail with "no supplier" and leave the counters, the rule
// counts, every block and the LRU lists exactly as they were.
func TestFailingStepChangesNothing(t *testing.T) {
	p := protocols.Illinois()
	for i := range p.Rules {
		if p.Rules[i].Name == "read-miss-dirty-owner" {
			p.Rules[i].Guard = fsm.AnyOther("Dirty", "Shared")
		}
	}
	p = p.Clone()
	m := newMachine(t, Config{Protocol: p, Caches: 3, Blocks: 3, Capacity: 2})
	for _, ref := range []trace.Ref{
		{Cache: 1, Op: fsm.OpRead, Block: 0},  // Valid-Exclusive from memory
		{Cache: 1, Op: fsm.OpRead, Block: 1},  // Valid-Exclusive: cache 1 is full
		{Cache: 2, Op: fsm.OpRead, Block: 1},  // supplied by cache 1; both Shared
		{Cache: 0, Op: fsm.OpWrite, Block: 2}, // Dirty
	} {
		if _, err := m.Apply(ref); err != nil {
			t.Fatalf("%+v: %v", ref, err)
		}
	}
	type snapshot struct {
		stats                   Stats
		rules                   map[string]int64
		blocks                  []*fsm.Config
		head, tail, n, prv, nxt []int32
	}
	take := func() snapshot {
		s := snapshot{stats: m.Stats(), rules: m.RuleCounts()}
		for b := 0; b < m.cfg.Blocks; b++ {
			s.blocks = append(s.blocks, m.Block(b))
		}
		l := m.lru
		s.head, s.tail, s.n = slices.Clone(l.head), slices.Clone(l.tail), slices.Clone(l.n)
		s.prv, s.nxt = slices.Clone(l.prev), slices.Clone(l.next)
		return s
	}
	before := take()
	// Block 1 is Shared in caches 1 and 2 and Dirty nowhere: the widened
	// guard holds, but the rule's Dirty supplier is missing.
	_, err := m.Apply(trace.Ref{Cache: 0, Op: fsm.OpRead, Block: 1})
	if err == nil || !strings.Contains(err.Error(), "no supplier") {
		t.Fatalf("want a missing-supplier error, got %v", err)
	}
	if after := take(); !reflect.DeepEqual(before, after) {
		t.Fatalf("failing step changed the machine:\nbefore %+v\nafter  %+v", before, after)
	}
}
