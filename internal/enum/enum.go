package enum

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/fsm"
	"repro/internal/obs"
	"repro/internal/runctl"
)

// Canonical data markers. Explicit-state enumeration would not terminate
// over ever-growing store version numbers, so after every step the versions
// are renamed onto the paper's abstract data domain: the latest version
// becomes canonFresh, every older version becomes canonObsolete, and
// fsm.NoData is kept. This is exactly the context-variable domain of
// Definition 4 and preserves the stale-read check (version == Latest).
const (
	canonFresh    int64 = 0
	canonObsolete int64 = -2
)

// Canonicalize rewrites the configuration's versions onto the abstract data
// domain, in place. Afterwards c.Latest == canonFresh.
func Canonicalize(c *fsm.Config) {
	ren := func(v int64) int64 {
		switch {
		case v == fsm.NoData:
			return fsm.NoData
		case v == c.Latest:
			return canonFresh
		default:
			return canonObsolete
		}
	}
	for i := range c.Versions {
		c.Versions[i] = ren(c.Versions[i])
	}
	c.MemVersion = ren(c.MemVersion)
	c.Latest = canonFresh
}

// Options tune an enumeration run. Run control (budgets, checkpoint
// cadence, parallelism defaults, observability) lives in the embedded
// runctl.RunConfig, shared with symbolic.Options:
//
//	enum.Options{RunConfig: runctl.RunConfig{Budget: b, Metrics: reg}}
//
// Cancellation, the deadline and the memory budget are checked at
// worklist-item granularity by the sequential engine and at level
// granularity by the parallel engine, so a stopped run always ends at a
// clean boundary and its partial Result (and checkpoint) covers whole
// expansion steps only.
type Options struct {
	runctl.RunConfig

	// MaxStates bounds the number of distinct states explored (0: 5_000_000).
	// RunConfig.Budget.MaxStates, when set, takes precedence. Unlike the
	// other budgets, the state cap is enforced per admitted state, so
	// Unique never exceeds it; a run stopped this way carries no
	// checkpoint.
	MaxStates int
	// KeepReachable retains every distinct canonical configuration in the
	// result, for cross-validation against the symbolic essential states.
	KeepReachable bool
	// Strict enables the CleanShared extension check.
	Strict bool
	// StopOnViolation aborts at the first erroneous state.
	StopOnViolation bool

	// OnCheckpoint receives the periodic snapshots requested by
	// RunConfig.CheckpointEvery (every that many expanded states for the
	// sequential engine, frontier states for the parallel one); a non-nil
	// return aborts the run with that error. It stays outside RunConfig
	// because the checkpoint type is engine-specific.
	OnCheckpoint func(*Checkpoint) error

	// Budget bounds the run.
	//
	// Deprecated: set RunConfig.Budget instead. This alias shadows the
	// embedded field, is honored when non-zero, and will be removed in the
	// next release.
	Budget runctl.Budget
	// CheckpointOnStop captures a resumable snapshot into Result.Checkpoint
	// when the run is stopped early at a clean boundary.
	//
	// Deprecated: set RunConfig.CheckpointOnStop instead. Honored when
	// true; removed in the next release.
	CheckpointOnStop bool
	// CheckpointEvery is the periodic snapshot cadence.
	//
	// Deprecated: set RunConfig.CheckpointEvery instead. Honored when
	// positive; removed in the next release.
	CheckpointEvery int
}

// runCtl resolves the effective run configuration: the embedded RunConfig,
// overridden by any of the deprecated top-level aliases that are set.
func (o Options) runCtl() runctl.RunConfig {
	rc := o.RunConfig
	if o.Budget != (runctl.Budget{}) {
		rc.Budget = o.Budget
	}
	if o.CheckpointOnStop {
		rc.CheckpointOnStop = true
	}
	if o.CheckpointEvery > 0 {
		rc.CheckpointEvery = o.CheckpointEvery
	}
	return rc
}

const defaultMaxStates = 5000000

// PathStep is one hop of a concrete witness path.
type PathStep struct {
	Cache int
	Op    fsm.Op
	To    string // canonical key of the state reached
}

// Violation pairs an erroneous concrete state with its violations and a
// witness path from the initial configuration.
type Violation struct {
	Config     *fsm.Config
	Violations []fsm.Violation
	Path       []PathStep
}

// Result reports an enumeration run.
type Result struct {
	// Protocol and N identify the run.
	Protocol *fsm.Protocol
	N        int
	// Unique counts distinct states explored under the run's equivalence
	// (strict tuples for Exhaustive, multisets for Counting).
	Unique int
	// Visits counts generated successor states, the metric of Section 3.1
	// (≈ n·k·mⁿ for exhaustive search without pruning of redundant visits).
	Visits int
	// TupleStates counts the distinct state-only tuples (ignoring data)
	// among the explored states.
	TupleStates int
	// Violations lists erroneous states found.
	Violations []Violation
	// SpecErrors records protocol-definition-level failures.
	SpecErrors []error
	// Reachable holds every distinct configuration when KeepReachable was
	// set, in discovery order.
	Reachable []*fsm.Config
	// Truncated reports that the run stopped before the frontier emptied.
	// StopReason carries the structured cause.
	Truncated bool
	// StopReason is nil for a complete run; otherwise it matches one of
	// the runctl sentinels (ErrCanceled, ErrDeadline, ErrStateBudget,
	// ErrMemBudget) via errors.Is.
	StopReason error
	// Checkpoint is a resumable snapshot of the interrupted run, present
	// when Options.CheckpointOnStop was set and the stop happened at a
	// worklist/level boundary (cancellation, deadline or memory budget;
	// the exact state cap stops mid-step and is not checkpointable).
	Checkpoint *Checkpoint
	// EstBytes is the run's final estimated resident footprint, the value
	// the memory budget was enforced against (see stateBytes).
	EstBytes int64
	// WorkerErrors records panics recovered in parallel BFS workers. The
	// affected frontier slices were re-expanded sequentially, so unless a
	// matching SpecError reports a persistent panic the results are
	// unaffected.
	WorkerErrors []*WorkerError
}

// OK reports whether the protocol verified cleanly at this cache count.
func (r *Result) OK() bool { return len(r.Violations) == 0 && len(r.SpecErrors) == 0 }

// strictKey is the legacy string identity of a configuration up to strict
// equality (Section 3.1). The engines key states by the packed Key of
// key.go instead; the string forms remain as the reference implementation
// the packed encoding is property-tested against, as the rendering of keys
// in checkpoints and witnesses, and as the fallback identity for runs too
// large to pack.
func strictKey(c *fsm.Config) string { return c.Key() }

// countingKey identifies configurations up to cache permutation
// (Definition 5, counting equivalence), extended with the per-cache data
// class so the data-consistency attributes survive the quotient.
func countingKey(c *fsm.Config) string {
	pairs := make([]string, len(c.States))
	var buf [64]byte
	size := 0
	for i, s := range c.States {
		b := append(buf[:0], s...)
		b = append(b, ':')
		pairs[i] = string(strconv.AppendInt(b, c.Versions[i], 10))
		size += len(pairs[i]) + 1
	}
	sort.Strings(pairs)
	out := make([]byte, 0, size+24)
	for i, pair := range pairs {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, pair...)
	}
	out = append(out, "|m:"...)
	return string(strconv.AppendInt(out, c.MemVersion, 10))
}

// CanonicalKey renders the canonical string identity of a canonicalized
// configuration under the given mode, in the exact format checkpoints and
// witness paths store (PathStep.To). It is computed by the legacy string
// reference implementation — not the packed fast-path codec — so an
// independent auditor (internal/campaign) replaying a witness through
// fsm.Step can match claimed keys without trusting the engine's packed
// encoding.
func CanonicalKey(c *fsm.Config, mode string) (string, error) {
	if err := validMode(mode); err != nil {
		return "", err
	}
	if mode == ModeCounting {
		return countingKey(c), nil
	}
	return strictKey(c), nil
}

// Enumeration modes, recorded in checkpoints so a resumed run re-selects
// the equivalence of the interrupted one.
const (
	ModeStrict   = "strict"
	ModeCounting = "counting"
)

func validMode(mode string) error {
	if mode != ModeStrict && mode != ModeCounting {
		return fmt.Errorf("enum: unknown mode %q", mode)
	}
	return nil
}

// Exhaustive runs the paper's Figure 2 algorithm: breadth-first exploration
// of all strict global states for n caches.
func Exhaustive(p *fsm.Protocol, n int, opts Options) (*Result, error) {
	return ExhaustiveContext(context.Background(), p, n, opts)
}

// ExhaustiveContext is Exhaustive under a context: cancellation and the
// context deadline stop the run at the next worklist item, returning the
// partial Result with a structured StopReason.
func ExhaustiveContext(ctx context.Context, p *fsm.Protocol, n int, opts Options) (*Result, error) {
	return run(ctx, p, n, opts, ModeStrict)
}

// Counting runs the same exploration under counting equivalence
// (Definition 5): permutations of a tuple collapse into one state, and
// symmetric caches are expanded only once.
func Counting(p *fsm.Protocol, n int, opts Options) (*Result, error) {
	return CountingContext(context.Background(), p, n, opts)
}

// CountingContext is Counting under a context.
func CountingContext(ctx context.Context, p *fsm.Protocol, n int, opts Options) (*Result, error) {
	return run(ctx, p, n, opts, ModeCounting)
}

// bfs is the shared state of one enumeration run, used identically by the
// sequential queue loop and the level-synchronous parallel loop (and
// rebuilt from a Checkpoint on resume), so budget enforcement and
// successor admission cannot drift between the engines.
type bfs struct {
	p         *fsm.Protocol
	n         int
	opts      Options
	rc        runctl.RunConfig // resolved run control (see Options.runCtl)
	orun      *obs.Run         // nil when unobserved: the allocation-free fast path
	kc        *keyCodec
	mode      string
	symmetric bool
	maxStates int

	// visited and tuples are the compact dedup sets (see store.go); a
	// state's rank in visited is its admission order. parents is the
	// rank-indexed provenance: parents[r] records how the state admitted
	// at rank r was first reached. opIx maps operations to their
	// Protocol.Ops index for the uint8 op field.
	visited visitedStore
	tuples  visitedStore
	parents []parentRec
	opIx    map[fsm.Op]uint8

	// frontierLen is the current worklist length, maintained by the run
	// loops for the footprint estimate.
	frontierLen int
	bytes       int64 // estimated worklist+visited footprint (estBytes)

	// memo caches the last parent-rank lookup: successors of one
	// expansion step share a parent, so commit resolves it once.
	memoKey  Key
	memoRank uint32
	memoOK   bool

	// Out-of-core state (parallel engine only, see spill.go). frontRanks
	// pins the current frontier's ranks in memory across spills;
	// nextRanks collects the next level's during reconcile.
	spill      *spillState
	frontRanks map[Key]uint32
	nextRanks  map[Key]uint32

	// sinceCp counts expanded states since the last periodic checkpoint.
	sinceCp int

	// pending lists the violations admitted since the last witness
	// resolution; their paths are rendered in one batch (resolveWitnesses).
	pending []pendingWitness

	res *Result
}

// cfgBytes estimates the resident cost of one frontier configuration: the
// fsm.Config struct, its States slice of string headers and its Versions
// slice. The constant is pinned against measured heap growth by
// TestStateBytesEstimate, which also covers the store estimates it is
// summed with in estBytes.
func cfgBytes(n int) int64 {
	return int64(24*n + 128)
}

// estBytes estimates the run's resident footprint: the visited and tuple
// sets, the provenance records and the frontier configurations.
func (b *bfs) estBytes() int64 {
	return b.visited.bytes() + b.tuples.bytes() +
		int64(cap(b.parents))*parentRecBytes +
		int64(b.frontierLen)*cfgBytes(b.n)
}

// newBFS validates the inputs and seeds the run with the initial
// configuration. done reports that the run already ended (initial-state
// violation under StopOnViolation).
func newBFS(p *fsm.Protocol, n int, opts Options, mode string) (b *bfs, init *fsm.Config, done bool, err error) {
	if err := p.Validate(); err != nil {
		return nil, nil, false, err
	}
	if n < 1 {
		return nil, nil, false, fmt.Errorf("enum: need at least one cache, got %d", n)
	}
	if err := validMode(mode); err != nil {
		return nil, nil, false, err
	}
	rc := opts.runCtl()
	maxStates := rc.Budget.MaxStates
	if maxStates <= 0 {
		maxStates = opts.MaxStates
	}
	if maxStates <= 0 {
		maxStates = defaultMaxStates
	}
	if n > 1<<16-1 {
		return nil, nil, false, fmt.Errorf("enum: cache count %d exceeds the provenance-record limit %d", n, 1<<16-1)
	}
	opIx, err := buildOpIndex(p)
	if err != nil {
		return nil, nil, false, err
	}
	b = &bfs{
		p: p, n: n, opts: opts, rc: rc, kc: newKeyCodec(p, n, mode), mode: mode,
		orun:      rc.Sink().Run("enum-"+mode, p.Name),
		symmetric: mode == ModeCounting,
		maxStates: maxStates,
		opIx:      opIx,
		res:       &Result{Protocol: p, N: n},
	}
	b.visited, b.tuples = newStores(b.kc, n)

	init = fsm.NewConfig(p, n)
	Canonicalize(init)
	b.visited.insert(b.kc.key(init))
	b.parents = append(b.parents, parentRec{parent: noParent})
	b.tuples.insert(b.kc.tupleKey(init))
	b.frontierLen = 1
	b.bytes = b.estBytes()
	if opts.KeepReachable {
		b.res.Reachable = append(b.res.Reachable, init.Clone())
	}
	if v := fsm.CheckConfig(p, init, opts.Strict); len(v) > 0 {
		b.res.Violations = append(b.res.Violations, Violation{Config: init.Clone(), Violations: v})
		b.orun.Event(obs.MetricViolations, 1)
		if opts.StopOnViolation {
			b.finish()
			return b, init, true, nil
		}
	}
	return b, init, false, nil
}

// stopCheck evaluates the boundary-granularity budgets: context liveness,
// wall-clock deadline and memory. The state cap is enforced exactly inside
// admit instead.
func (b *bfs) stopCheck(ctx context.Context) error {
	if err := runctl.FromContext(ctx); err != nil {
		return err
	}
	if err := b.rc.Budget.CheckDeadline(time.Now()); err != nil {
		return err
	}
	b.bytes = b.estBytes()
	return b.rc.Budget.CheckMem(b.bytes)
}

// stop finalizes an early stop at a clean boundary: frontier holds the
// states admitted but not yet expanded, so a checkpoint taken here resumes
// to results identical to an uninterrupted run.
func (b *bfs) stop(reason error, frontier []*fsm.Config) {
	b.res.StopReason = reason
	b.res.Truncated = true
	b.finish()
	if b.rc.CheckpointOnStop {
		cp, err := b.snapshot(frontier)
		if err != nil {
			b.res.SpecErrors = append(b.res.SpecErrors, fmt.Errorf("enum: capturing stop checkpoint: %w", err))
			return
		}
		b.res.Checkpoint = cp
	}
}

// maybeCheckpoint emits a periodic snapshot when due.
func (b *bfs) maybeCheckpoint(frontier []*fsm.Config) error {
	if b.opts.OnCheckpoint == nil || b.rc.CheckpointEvery <= 0 || b.sinceCp < b.rc.CheckpointEvery {
		return nil
	}
	b.sinceCp = 0
	b.orun.Event("checkpoints_total", 1)
	cp, err := b.snapshot(frontier)
	if err != nil {
		return err
	}
	return b.opts.OnCheckpoint(cp)
}

func (b *bfs) finish() {
	b.resolveWitnesses()
	b.res.Unique = b.visited.size()
	b.res.TupleStates = b.tuples.size()
	b.bytes = b.estBytes()
	b.res.EstBytes = b.bytes
}

// parentRank resolves the admission rank of a parent key: the memoized
// last lookup (successors of one step share their parent), then the
// pinned frontier ranks of an out-of-core run (the parent may have been
// spilled), then the resident store.
func (b *bfs) parentRank(k Key) uint32 {
	if k.isZero() {
		return noParent
	}
	if b.memoOK && k == b.memoKey {
		return b.memoRank
	}
	r, ok := uint32(0), false
	if b.frontRanks != nil {
		r, ok = b.frontRanks[k]
	}
	if !ok {
		if r, ok = b.visited.rank(k); !ok {
			// Parents are always either resident or pinned in frontRanks;
			// reaching here means the run state is corrupt.
			panic("enum: internal error: parent state has no recorded rank")
		}
	}
	b.memoKey, b.memoRank, b.memoOK = k, r, true
	return r
}

// commit installs one deduplicated successor: provenance, tuple census,
// violation recording and the exact state cap. It appends the state to
// *next and reports true when the run must end now (StopOnViolation or
// state budget). It is shared by the sequential loop and the parallel
// reconcile (which precomputes viol inside the workers), so the two
// engines cannot drift.
func (b *bfs) commit(it succItem, viol []fsm.Violation, next *[]*fsm.Config) bool {
	rank := b.visited.insert(it.key)
	b.parents = append(b.parents, parentRec{
		parent: b.parentRank(it.parent),
		cache:  uint16(it.cache),
		op:     b.opIx[it.op],
	})
	if b.nextRanks != nil {
		b.nextRanks[it.key] = rank
	}
	if !it.tupleDup {
		if tk := b.kc.tupleKey(it.cfg); !b.tuples.has(tk) {
			b.tuples.insert(tk)
		}
	}
	if len(viol) > 0 {
		b.pending = append(b.pending, pendingWitness{idx: len(b.res.Violations), key: it.key, rank: rank})
		b.res.Violations = append(b.res.Violations, Violation{Config: it.cfg.Clone(), Violations: viol})
		b.orun.Event(obs.MetricViolations, 1)
		if b.opts.StopOnViolation {
			b.finish()
			return true
		}
	}
	if b.opts.KeepReachable {
		b.res.Reachable = append(b.res.Reachable, it.cfg.Clone())
	}
	if b.visited.size() >= b.maxStates {
		b.res.StopReason = runctl.ErrStateBudget
		b.res.Truncated = true
		b.finish()
		return true
	}
	*next = append(*next, it.cfg)
	b.frontierLen++
	return false
}

// testItemHook, when set by tests, observes each sequential expansion step
// (called with the number of states expanded so far, before the step runs).
var testItemHook func(expanded int)

func run(ctx context.Context, p *fsm.Protocol, n int, opts Options, mode string) (*Result, error) {
	b, init, done, err := newBFS(p, n, opts, mode)
	if err != nil {
		return nil, err
	}
	if done {
		return b.res, nil
	}
	return b.runSeq(ctx, []*fsm.Config{init})
}

// runSeq drives the classic FIFO exploration of Figure 2. Budgets are
// checked before each expansion step, so every dequeued state is either
// fully expanded or still on the queue when the run stops. The successor
// buffer is reused across steps and fully expanded configurations return
// to the pool, so the steady-state loop allocates only for newly admitted
// frontier states.
func (b *bfs) runSeq(ctx context.Context, queue []*fsm.Config) (*Result, error) {
	sp := b.orun.Phase(obs.PhaseExpand)
	defer sp.End()
	expanded := 0
	// FIFO order expands the queue level by level, so the boundary where
	// the current level's last state has been dequeued and expanded is a
	// true BFS level boundary: everything left on the queue is the next
	// level's frontier. Visits may carry over from a resumed checkpoint;
	// level stats are relative to this run so registry counters never
	// double-count.
	level, remaining, visits0, admitted0 := 0, len(queue), b.res.Visits, b.visited.size()
	var out workerOut
	seen := func(k Key, _ int) bool { return b.visited.has(k) }
	for len(queue) > 0 {
		b.frontierLen = len(queue)
		if err := b.stopCheck(ctx); err != nil {
			b.stop(err, queue)
			return b.res, nil
		}
		if err := b.maybeCheckpoint(queue); err != nil {
			return nil, err
		}
		if testItemHook != nil {
			testItemHook(expanded)
		}
		cur := queue[0]
		queue = queue[1:]
		out.items = out.items[:0]
		out.specErrs = out.specErrs[:0]
		gen := expandOne(b.kc, b.symmetric, cur, &out, seen)
		b.res.SpecErrors = append(b.res.SpecErrors, out.specErrs...)
		if len(out.specErrs) > 0 {
			b.orun.Event("spec_errors_total", int64(len(out.specErrs)))
		}
		for _, it := range out.items {
			if b.commit(it, fsm.CheckConfig(b.p, it.cfg, b.opts.Strict), &queue) {
				b.res.Visits += it.ord + 1
				return b.res, nil
			}
		}
		b.res.Visits += gen
		releaseConfig(cur)
		expanded++
		b.sinceCp++
		if remaining--; remaining == 0 {
			b.orun.Level(obs.LevelStats{
				Level:     level,
				Frontier:  len(queue),
				Essential: b.visited.size(),
				Visits:    b.res.Visits - visits0,
				Pruned:    b.res.Visits - visits0 - (b.visited.size() - admitted0),
				EstBytes:  b.bytes,
			})
			level++
			remaining = len(queue)
		}
	}
	b.finish()
	return b.res, nil
}

// SymmetryShadowed reports whether the engines' counting-mode expansion
// would skip cache i of c as permutation-equivalent to a lower-indexed
// sibling (see shadowedBySibling). Exported for the transition-graph
// export, which replays the engines' expansion policy.
func SymmetryShadowed(c *fsm.Config, i int) bool { return shadowedBySibling(c, i) }

// shadowedBySibling reports whether a lower-indexed cache is in the same
// (state, data) class as cache i; under counting equivalence expanding both
// produces permutation-equivalent successors, so only the first
// representative of each class is expanded.
func shadowedBySibling(c *fsm.Config, i int) bool {
	for j := 0; j < i; j++ {
		if c.States[j] == c.States[i] && c.Versions[j] == c.Versions[i] {
			return true
		}
	}
	return false
}

// pendingWitness is a violation whose witness path is not yet rendered:
// its index in Result.Violations and the key and rank of its state.
type pendingWitness struct {
	idx  int
	key  Key
	rank uint32
}

// resolveWitnesses fills in the Path of every pending violation, walking
// the rank-indexed provenance records and rendering each hop's key in the
// legacy canonical string format (PathStep.To equals fsm.Config.Key of the
// state reached, in strict mode). All pending witnesses of the run are
// resolved together: the union of their ancestor ranks is collected first,
// then one pass over the store (plus the spill files of an out-of-core
// run) renders each ancestor key once, and witnesses sharing a prefix
// share its rendered strings. Mutant sweeps record thousands of
// violations per run, so the cost is one store pass per resolution, not
// one per violation. The rank→key map lives only for the call. It runs
// before every snapshot and in finish, so neither a checkpoint nor a
// returned Result ever carries an unresolved path.
//
// A state's parent was admitted before it, so its rank is strictly lower
// (pinned by TestParentRankBelowChild); every provenance walk therefore
// reaches the root (rank 0, the initial state) in at most r steps.
func (b *bfs) resolveWitnesses() {
	if len(b.pending) == 0 {
		return
	}
	// keys maps every rank on a pending path to its rendered key; "" marks
	// an ancestor still to render. A walk stops at the first rank already
	// in the map: that rank's own ancestors are collected by the walk that
	// put it there (a pending violation's by its own walk).
	keys := make(map[uint32]string)
	for _, w := range b.pending {
		keys[w.rank] = b.kc.render(w.key)
	}
	unrendered := 0
	for _, w := range b.pending {
		for cur := b.parents[w.rank].parent; cur != noParent && b.parents[cur].parent != noParent; cur = b.parents[cur].parent {
			if _, ok := keys[cur]; ok {
				break
			}
			keys[cur] = ""
			unrendered++
		}
	}
	if unrendered > 0 {
		collect := func(k Key, r uint32) {
			if s, ok := keys[r]; ok && s == "" {
				keys[r] = b.kc.render(k)
			}
		}
		b.visited.forEach(collect)
		if b.spill != nil {
			if err := b.forEachSpilled(b.spill.visitedFiles, collect); err != nil {
				b.res.SpecErrors = append(b.res.SpecErrors, fmt.Errorf("enum: resolving witness paths: %w", err))
			}
		}
	}
	for _, w := range b.pending {
		depth := 0
		for cur := w.rank; b.parents[cur].parent != noParent; cur = b.parents[cur].parent {
			depth++
		}
		steps := make([]PathStep, depth)
		for cur, i := w.rank, depth-1; i >= 0; cur, i = b.parents[cur].parent, i-1 {
			rec := b.parents[cur]
			steps[i] = PathStep{Cache: int(rec.cache), Op: b.p.Ops[rec.op], To: keys[cur]}
		}
		b.res.Violations[w.idx].Path = steps
	}
	b.pending = b.pending[:0]
}
