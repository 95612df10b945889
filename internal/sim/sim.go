package sim

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/compile"
	"repro/internal/fsm"
	"repro/internal/runctl"
	"repro/internal/trace"
)

// Config parameterizes a machine.
type Config struct {
	// Protocol drives every cache and the bus.
	Protocol *fsm.Protocol
	// Compiled optionally supplies a pre-built compiled form of Protocol
	// (compile.Compile output), letting callers that build many machines —
	// the replay fan-out, repeated service jobs — share one lowering. When
	// nil, or when it was compiled from a different protocol value, New
	// compiles Protocol itself.
	Compiled *compile.Protocol
	// Caches is the number of processors/private caches (n ≥ 1).
	Caches int
	// Blocks is the number of distinct memory blocks (≥ 1). Coherence is
	// tracked per block, as in the paper (footnote 1).
	Blocks int
	// Capacity bounds the number of blocks simultaneously resident in one
	// cache; 0 means unbounded. When an access would exceed the capacity,
	// the least-recently-used resident block is replaced first. A block in
	// a state with no Replace rule (a held lock) is pinned and skipped; if
	// every resident block is pinned, the access is admitted over capacity.
	Capacity int
	// Strict enables the CleanShared extension check in CheckInvariants.
	Strict bool
}

// Stats aggregates the classic coherence-traffic counters.
type Stats struct {
	Ops          int64
	Reads        int64
	Writes       int64
	Replacements int64

	ReadHits    int64
	ReadMisses  int64
	WriteHits   int64
	WriteMisses int64

	Invalidations  int64 // remote copies killed by coincident transitions
	Updates        int64 // remote copies refreshed by broadcast writes
	CacheSupplies  int64 // misses serviced cache-to-cache
	MemorySupplies int64 // misses serviced from memory
	WriteBacks     int64 // memory updates (supplier, write-back, write-through)
	// BusTransactions counts operations that needed the bus at all: data
	// movement (supply from cache or memory), a memory update, or a
	// snooping broadcast. A rule with observed transitions is a broadcast
	// whether or not a remote copy currently exists — the issuing cache
	// cannot know, which is exactly why MESI's silent E→M upgrade beats
	// MSI's broadcast upgrade on private data.
	BusTransactions   int64
	CapacityEvictions int64 // replacements forced by finite capacity

	StaleReads int64 // reads returning a value older than the last store
}

// MissRatio returns misses/references for reads and writes combined.
func (s *Stats) MissRatio() float64 {
	refs := s.Reads + s.Writes
	if refs == 0 {
		return 0
	}
	return float64(s.ReadMisses+s.WriteMisses) / float64(refs)
}

// Machine is a running simulated multiprocessor. Every block's coherence
// state lives in the compiled integer representation (internal/compile);
// stepping is jump-table dispatch with no string comparisons or map lookups,
// and the interpreted fsm.Config form is materialized only at inspection
// points (Block, CheckInvariants, Apply's returned StepResult).
type Machine struct {
	cfg Config
	p   *fsm.Protocol
	cp  *compile.Protocol
	// states holds every block's per-cache state index, block-major: block
	// b's caches are [b*Caches, (b+1)*Caches).
	states []int32
	// block[b] is block b's configuration. Its States is block b's window
	// into states, and its Versions and Occ windows into flat arrays laid
	// out the same way.
	block []compile.Config
	// readOp, writeOp and replaceOp are the compiled indexes of the three
	// cache operations every trace uses (-1: not declared).
	readOp, writeOp, replaceOp int
	// lru orders each cache's resident blocks for capacity replacement; nil
	// when Capacity is 0, since nothing would read it.
	lru   *lruLists
	stats Stats
	// ruleCounts counts firings by compiled rule ID (declaration index);
	// RuleCounts materializes the name-keyed map on demand.
	ruleCounts []int64
	// opsSinceCheck counts operations since the last context check in
	// RunRefs, carried across calls so batch size does not change the
	// cancellation cadence.
	opsSinceCheck int
}

// New builds a machine in the initial state: all caches empty, memory fresh.
func New(cfg Config) (*Machine, error) {
	if cfg.Protocol == nil {
		return nil, fmt.Errorf("sim: nil protocol")
	}
	cp := cfg.Compiled
	if cp == nil || cp.Src != cfg.Protocol {
		var err error
		if cp, err = compile.Compile(cfg.Protocol); err != nil {
			return nil, err
		}
	}
	if cfg.Caches < 1 {
		return nil, fmt.Errorf("sim: need at least one cache, got %d", cfg.Caches)
	}
	if cfg.Blocks < 1 {
		return nil, fmt.Errorf("sim: need at least one block, got %d", cfg.Blocks)
	}
	if cfg.Capacity < 0 {
		return nil, fmt.Errorf("sim: negative capacity")
	}
	m := &Machine{
		cfg: cfg, p: cfg.Protocol, cp: cp,
		readOp: cp.OpIndex(fsm.OpRead), writeOp: cp.OpIndex(fsm.OpWrite), replaceOp: cp.OpIndex(fsm.OpReplace),
	}
	n := cfg.Caches
	m.states = make([]int32, cfg.Blocks*n)
	versions := make([]int64, cfg.Blocks*n)
	for k := range m.states {
		m.states[k] = cp.Initial
		versions[k] = fsm.NoData
	}
	// Every cache starts idle, so every occupancy bit starts clear.
	words := compile.OccWords(n)
	occ := make([]uint64, cfg.Blocks*words)
	m.block = make([]compile.Config, cfg.Blocks)
	for b := range m.block {
		lo, hi := b*n, (b+1)*n
		m.block[b] = compile.Config{
			States: m.states[lo:hi:hi], Versions: versions[lo:hi:hi],
			Occ: occ[b*words : (b+1)*words : (b+1)*words],
		}
	}
	if cfg.Capacity > 0 {
		m.lru = newLRULists(cfg.Caches, cfg.Blocks)
	}
	m.ruleCounts = make([]int64, len(cfg.Protocol.Rules))
	return m, nil
}

// RuleCounts returns how often each protocol rule fired, keyed by rule
// name. Rules that never fired are absent; compare against
// core.DeadRules for the static counterpart of this dynamic coverage.
func (m *Machine) RuleCounts() map[string]int64 {
	out := make(map[string]int64, len(m.ruleCounts))
	for id, v := range m.ruleCounts {
		if v != 0 {
			out[m.p.Rules[id].Name] = v
		}
	}
	return out
}

// Stats returns a copy of the accumulated counters.
func (m *Machine) Stats() Stats { return m.stats }

// Block returns a snapshot of the coherence state of one block (for
// inspection/tests), materialized from the compiled representation.
func (m *Machine) Block(b int) *fsm.Config {
	var c fsm.Config
	m.cp.Decode(&m.block[b], &c)
	return &c
}

// resident reports whether cache i holds a valid copy of block b.
func (m *Machine) resident(i, b int) bool {
	return m.cp.ValidCopy[m.states[b*m.cfg.Caches+i]]
}

// pinned reports whether cache i's copy of block b cannot be replaced: its
// state has no Replace rule (a held Lock-MSI lock).
func (m *Machine) pinned(i, b int) bool {
	return m.replaceOp < 0 || !m.cp.HasRules(int(m.states[b*m.cfg.Caches+i]), m.replaceOp)
}

// opIndex resolves a reference's op to its compiled index (-1: not
// declared, a no-op). Comparing against the op constants compiles to
// inline byte compares, so reads, writes and replacements cost no call.
func (m *Machine) opIndex(op fsm.Op) int {
	switch op {
	case fsm.OpRead:
		return m.readOp
	case fsm.OpWrite:
		return m.writeOp
	case fsm.OpReplace:
		return m.replaceOp
	}
	return m.cp.OpIndex(op)
}

// Apply issues one memory reference and returns the step result of the
// protocol rule that fired. A read or write to a non-resident block with a
// full cache first replaces the LRU resident block that is not pinned.
func (m *Machine) Apply(ref trace.Ref) (fsm.StepResult, error) {
	res, err := m.apply(ref)
	return m.cp.Result(res), err
}

// apply is Apply on the compiled result, which RunRefs discards.
func (m *Machine) apply(ref trace.Ref) (compile.StepResult, error) {
	if ref.Cache < 0 || ref.Cache >= m.cfg.Caches {
		return noStep, fmt.Errorf("sim: cache %d out of range", ref.Cache)
	}
	if ref.Block < 0 || ref.Block >= m.cfg.Blocks {
		return noStep, fmt.Errorf("sim: block %d out of range", ref.Block)
	}
	op := m.opIndex(ref.Op)
	// Capacity management for block-allocating operations.
	if m.lru != nil && ref.Op != fsm.OpReplace && !m.resident(ref.Cache, ref.Block) &&
		int(m.lru.n[ref.Cache]) >= m.cfg.Capacity {
		if res, err := m.makeRoom(ref.Cache); err != nil {
			return res, err
		}
	}
	return m.step(ref, op)
}

// makeRoom replaces cache i's resident blocks, least recently used first,
// until fewer than Capacity remain. A pinned block is skipped without a
// step. Each block resident on entry is examined at most once, so a cache
// full of pinned blocks admits the reference over capacity instead of
// replacing the same victim forever.
func (m *Machine) makeRoom(i int) (compile.StepResult, error) {
	l := m.lru
	b := l.front(i)
	for left := l.n[i]; b >= 0 && left > 0 && int(l.n[i]) >= m.cfg.Capacity; left-- {
		next := l.after(i, b)
		if !m.pinned(i, b) {
			if res, err := m.step(trace.Ref{Cache: i, Op: fsm.OpReplace, Block: b}, m.replaceOp); err != nil {
				return res, err
			}
			m.stats.CapacityEvictions++
		}
		b = next
	}
	return noStep, nil
}

// noStep is the result of a reference no rule handled.
var noStep = compile.StepResult{RuleID: -1, ReadVersion: fsm.NoData, Supplier: -1}

// step applies the reference, whose op has compiled index op (-1: not
// declared, a no-op), to the block's coherence state and updates the
// statistics. The caller has checked ref.Cache and ref.Block. The rule is
// selected first, so a failing step changes nothing; then, for a rule
// that kills or refreshes copies, one walk over the other caches that
// hold the block, before the rule fires, counts the copies it kills and
// refreshes and drops the killed ones from their LRU lists.
func (m *Machine) step(ref trace.Ref, op int) (compile.StepResult, error) {
	cfg := &m.block[ref.Block]
	origin := ref.Cache
	wasResident := m.cp.ValidCopy[cfg.States[origin]]

	cres := noStep
	var r *compile.Rule
	if op >= 0 {
		var sup int
		var err error
		if r, sup, err = m.cp.Select(cfg, origin, op); err != nil {
			return compile.Unfired(r), err
		}
		if r != nil {
			if r.Remote {
				m.remote(r, cfg, origin, ref.Block)
			}
			cres = m.cp.Fire(cfg, origin, op, r, sup)
		}
	}

	m.stats.Ops++
	switch ref.Op {
	case fsm.OpRead:
		m.stats.Reads++
		if wasResident {
			m.stats.ReadHits++
		} else {
			m.stats.ReadMisses++
		}
		if r != nil && !r.Spin && cres.ReadVersion != cfg.Latest {
			m.stats.StaleReads++
		}
	case fsm.OpWrite:
		m.stats.Writes++
		if wasResident {
			m.stats.WriteHits++
		} else {
			m.stats.WriteMisses++
		}
	case fsm.OpReplace:
		m.stats.Replacements++
	}

	if r != nil {
		m.ruleCounts[r.ID]++
		// Observed transitions and sharer updates are snooping broadcasts:
		// they occupy the bus even when no remote copy happens to exist. A
		// rule that kills a copy has observed transitions, so it is one.
		bus := r.HasObserve || (r.Store && r.UpdateSharers)
		if cres.Supplier >= 0 {
			m.stats.CacheSupplies++
			bus = true
		}
		if r.Source == fsm.SrcMemory {
			m.stats.MemorySupplies++
			bus = true
		}
		if r.SupplierWriteBack || r.WriteBackSelf || (r.Store && r.WriteThrough) {
			m.stats.WriteBacks++
			bus = true
		}
		if bus {
			m.stats.BusTransactions++
		}
	}

	// Maintain the issuing cache's residency bookkeeping (remote caches
	// were reconciled in remote).
	if m.lru != nil {
		if m.cp.ValidCopy[cfg.States[origin]] {
			m.lru.touch(origin, ref.Block)
		} else {
			m.lru.drop(origin, ref.Block)
		}
	}
	return cres, nil
}

// remote accounts for rule r's effect on the copies of block b held by
// caches other than origin, in c before r fires: it counts the copies r
// invalidates and drops them from their LRU lists, and when r is a store
// that updates sharers, counts the copies it refreshes. It visits the
// caches Fire visits (compile.Config.Visit); r neither kills nor
// refreshes an idle cache it does not visit. Only the referenced block
// changes residency in one step, so the remote LRU lists need no other
// reconciling.
func (m *Machine) remote(r *compile.Rule, c *compile.Config, origin, b int) {
	var killed, kept int64
	for w := range c.Occ {
		for word := c.Visit(r, w); word != 0; word &= word - 1 {
			j := w<<6 | bits.TrailingZeros64(word)
			if j == origin {
				continue
			}
			s := c.States[j]
			if r.Kills[s] {
				killed++
				if m.lru != nil {
					m.lru.drop(j, b)
				}
			}
			if r.Keeps[s] {
				kept++
			}
		}
	}
	m.stats.Invalidations += killed
	if r.Store && r.UpdateSharers {
		m.stats.Updates += kept
	}
}

// Run drives the machine with nops references from the workload, stopping
// early on an execution error. The returned stats are the machine's
// cumulative counters.
func (m *Machine) Run(w trace.Workload, nops int) (Stats, error) {
	return m.RunContext(context.Background(), w, nops)
}

// ctxCheckInterval is how many operations run between context checks: a
// power of two so the modulo folds to a mask, coarse enough that the check
// does not perturb the simulator's throughput.
const ctxCheckInterval = 1024

// runRefsBatch is the workload pull-batch size RunContext uses when
// feeding RunRefs: large enough to amortize the call, small enough that a
// canceled run stops promptly.
const runRefsBatch = 1024

// RunContext is Run under a context: cancellation and deadlines are checked
// every ctxCheckInterval operations, returning the cumulative stats so far
// with an error matching runctl.ErrCanceled or runctl.ErrDeadline. It is a
// wrapper over RunRefs, pulling references from the workload in batches.
func (m *Machine) RunContext(ctx context.Context, w trace.Workload, nops int) (Stats, error) {
	var buf [runRefsBatch]trace.Ref
	for done := 0; done < nops; {
		n := nops - done
		if n > runRefsBatch {
			n = runRefsBatch
		}
		batch := buf[:n]
		for i := range batch {
			batch[i] = w.Next()
		}
		if _, err := m.RunRefs(ctx, batch); err != nil {
			return m.stats, err
		}
		done += n
	}
	return m.stats, nil
}

// RunRefs feeds an explicit reference slice to the machine — the step-level
// entry point the trace-replay engine (internal/replay) batches decoded
// references into, with no shim Workload adapter in between. Cancellation
// and deadlines are checked every ctxCheckInterval operations, with the
// cadence carried across calls so batch size does not change it. The
// returned stats are the machine's cumulative counters; on an early stop
// the error matches runctl.ErrCanceled or runctl.ErrDeadline and reports
// the machine's lifetime operation count.
func (m *Machine) RunRefs(ctx context.Context, refs []trace.Ref) (Stats, error) {
	for k := range refs {
		if m.opsSinceCheck <= 0 {
			m.opsSinceCheck = ctxCheckInterval
			if err := runctl.FromContext(ctx); err != nil {
				return m.stats, fmt.Errorf("sim: stopped after %d ops: %w", m.stats.Ops, err)
			}
		}
		m.opsSinceCheck--
		if _, err := m.apply(refs[k]); err != nil {
			return m.stats, fmt.Errorf("sim: op %d: %w", m.stats.Ops, err)
		}
	}
	return m.stats, nil
}

// CheckInvariants evaluates the protocol invariants over every block's
// current state and returns all violations.
func (m *Machine) CheckInvariants() []fsm.Violation {
	var out []fsm.Violation
	var c fsm.Config
	for b := range m.block {
		m.cp.Decode(&m.block[b], &c)
		out = append(out, fsm.CheckConfig(m.p, &c, m.cfg.Strict)...)
	}
	return out
}
