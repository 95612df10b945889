package enum

import (
	"context"
	"fmt"
	"strconv"
	"time"
	"unsafe"

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
// cadence, width, observability) lives in the embedded runctl.RunConfig,
// shared with symbolic.Options:
//
//	enum.Options{RunConfig: runctl.RunConfig{Budget: b, Workers: 4, Metrics: reg}}
//
// Every run, at every width, is the level-synchronous BFS, and the level
// boundary is its one stop granularity: cancellation, the deadline, the
// memory budget (or a spill, with RunConfig.SpillDir) and periodic
// checkpoints happen there, so a stopped run's partial Result (and
// checkpoint) covers whole levels only.
type Options struct {
	runctl.RunConfig

	// MaxStates bounds the number of distinct states explored (0: 5_000_000).
	// RunConfig.Budget.MaxStates, when set, takes precedence. Unlike the
	// other budgets, the state cap is enforced per admitted state, so
	// Unique never exceeds it; a run stopped this way carries no
	// checkpoint.
	MaxStates int
	// Strict enables the CleanShared extension check.
	Strict bool
	// StopOnViolation aborts at the first erroneous state.
	StopOnViolation bool

	// OnCheckpoint receives the periodic snapshots requested by
	// RunConfig.CheckpointEvery (at the first level boundary after that
	// many states were expanded since the last one); a non-nil return
	// aborts the run with that error. It stays outside RunConfig because
	// the checkpoint type is engine-specific.
	OnCheckpoint func(*Checkpoint) error
}

// maxStates resolves the exact state cap: RunConfig.Budget.MaxStates, then
// MaxStates, then the default.
func (o Options) maxStates() int {
	switch {
	case o.Budget.MaxStates > 0:
		return o.Budget.MaxStates
	case o.MaxStates > 0:
		return o.MaxStates
	}
	return defaultMaxStates
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
	// Protocol, N and Mode (ModeStrict or ModeCounting) identify the run.
	Protocol *fsm.Protocol
	N        int
	Mode     string
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
	// Truncated reports that the run stopped before the frontier emptied.
	// StopReason carries the structured cause.
	Truncated bool
	// StopReason is nil for a complete run; otherwise it matches one of
	// the runctl sentinels (ErrCanceled, ErrDeadline, ErrStateBudget,
	// ErrMemBudget) via errors.Is.
	StopReason error
	// Checkpoint is a resumable snapshot of the interrupted run, present
	// when RunConfig.CheckpointOnStop was set and the stop happened at a
	// level boundary (cancellation, deadline or memory budget; the exact
	// state cap stops mid-level and is not checkpointable).
	Checkpoint *Checkpoint
	// EstBytes is the run's final estimated resident footprint, the value
	// the memory budget was enforced against (see estBytes).
	EstBytes int64
	// WorkerErrors records panics recovered in BFS workers, at any width.
	// The affected frontier slices were re-expanded, so unless a matching
	// SpecError reports a persistent panic the results are unaffected.
	WorkerErrors []*WorkerError

	// kc and parents are the run's key codec and provenance records, from
	// which Configs replays the reachable set.
	kc      *keyCodec
	parents []parentRec
}

// OK reports whether the protocol verified cleanly at this cache count.
func (r *Result) OK() bool { return len(r.Violations) == 0 && len(r.SpecErrors) == 0 }

// strictKey is the legacy string identity of a configuration up to strict
// equality (Section 3.1). The engine keys states by the Key of key.go
// instead; the string forms remain as the reference implementation the key
// codec is property-tested against, and as the rendering of keys in
// checkpoints and witnesses.
func strictKey(c *fsm.Config) string { return c.Key() }

// countingKey identifies configurations up to cache permutation
// (Definition 5, counting equivalence), extended with the per-cache data
// class so the data-consistency attributes survive the quotient.
func countingKey(c *fsm.Config) string {
	var buf [128]byte
	return string(appendCountingKey(buf[:0], c))
}

// appendCountingKey appends countingKey's rendering of c to dst: the
// per-cache "State:version" pairs in sorted order, then "|m:" and the
// memory version. The pairs are rendered past dst's end, joined in order
// after them, and the joined key is then moved down over them.
func appendCountingKey(dst []byte, c *fsm.Config) []byte {
	type span struct{ from, to int }
	var small [8]span
	spans := small[:0]
	start := len(dst)
	for i, s := range c.States {
		from := len(dst)
		dst = append(dst, s...)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, c.Versions[i], 10)
		spans = append(spans, span{from, len(dst)})
	}
	// Insertion sort: n is a cache count, and bytewise order is
	// sort.Strings' order.
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && string(dst[spans[j].from:spans[j].to]) < string(dst[spans[j-1].from:spans[j-1].to]); j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
	joined := len(dst)
	for i, sp := range spans {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, dst[sp.from:sp.to]...)
	}
	dst = append(dst, "|m:"...)
	dst = strconv.AppendInt(dst, c.MemVersion, 10)
	return dst[:start+copy(dst[start:], dst[joined:])]
}

// CanonicalKey renders the canonical string identity of a canonicalized
// configuration under the given mode, in the exact format checkpoints and
// witness paths store (PathStep.To). It is computed by the legacy string
// reference implementation — not the packed fast-path codec — so an
// independent auditor (internal/campaign) replaying a witness through
// fsm.Step can match claimed keys without trusting the engine's packed
// encoding.
func CanonicalKey(c *fsm.Config, mode string) (string, error) {
	var buf [128]byte
	b, err := AppendCanonicalKey(buf[:0], c, mode)
	return string(b), err
}

// AppendCanonicalKey appends CanonicalKey's rendering of c to dst and
// returns the extended buffer; on an unknown mode it returns dst
// unchanged and the error.
func AppendCanonicalKey(dst []byte, c *fsm.Config, mode string) ([]byte, error) {
	if err := validMode(mode); err != nil {
		return dst, err
	}
	if mode == ModeCounting {
		return appendCountingKey(dst, c), nil
	}
	return c.AppendKey(dst), nil
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
// context deadline stop the run at the next level boundary, returning the
// partial Result with a structured StopReason. The run is RunConfig.Workers
// wide (≤ 1: one worker); every width gives the same Result.
func ExhaustiveContext(ctx context.Context, p *fsm.Protocol, n int, opts Options) (*Result, error) {
	return enumerate(ctx, p, n, opts, ModeStrict, opts.Workers)
}

// Counting runs the same exploration under counting equivalence
// (Definition 5): permutations of a tuple collapse into one state, and
// symmetric caches are expanded only once.
func Counting(p *fsm.Protocol, n int, opts Options) (*Result, error) {
	return CountingContext(context.Background(), p, n, opts)
}

// CountingContext is Counting under a context, RunConfig.Workers wide.
func CountingContext(ctx context.Context, p *fsm.Protocol, n int, opts Options) (*Result, error) {
	return enumerate(ctx, p, n, opts, ModeCounting, opts.Workers)
}

// bfs is the state of one enumeration run, built fresh by newBFS or
// rebuilt from a Checkpoint by resumeBFS, and driven by runPar.
type bfs struct {
	p         *fsm.Protocol
	n         int
	opts      Options
	orun      *obs.Run // nil when unobserved: the allocation-free fast path
	kc        *keyCodec
	mode      string
	symmetric bool
	maxStates int

	// visited and tuples are the dedup sets (see store.go); a
	// state's rank in visited is its admission order. parents is the
	// rank-indexed provenance: parents[r] records how the state admitted
	// at rank r was first reached.
	visited visitedStore
	tuples  visitedStore
	parents []parentRec

	// frontier lists the state keys (in cache order) the current level
	// expands, and next the states it has admitted so far. frontRanks[i]
	// is the admission rank of frontier[i], which the provenance records
	// of its successors reference; nextRanks collects those of next. The
	// pairs swap roles at every level boundary.
	frontier, next        []Key
	frontRanks, nextRanks []uint32

	bytes int64 // estimated frontier+visited footprint (estBytes)

	// spill is the out-of-core state (see spill.go).
	spill *spillState

	// sinceCp counts expanded states since the last periodic checkpoint.
	sinceCp int

	// pending lists the violations admitted since the last witness
	// resolution; their paths are rendered in one batch (resolveWitnesses).
	pending []pendingWitness

	res *Result
}

// frontierBytes estimates the resident cost of one frontier state: its
// Key, plus the heap bytes of a long key. TestStateBytesEstimate pins it
// against measured heap growth, together with the store estimates it is
// summed with in estBytes.
func (kc *keyCodec) frontierBytes() int64 {
	size := int64(unsafe.Sizeof(Key{}))
	if kc.width > len(Key{}.packed) {
		size += int64(kc.width)
	}
	return size
}

// estBytes estimates the run's resident footprint: the visited and tuple
// sets, the provenance records and the frontier keys.
func (b *bfs) estBytes() int64 {
	return b.visited.bytes() + b.tuples.bytes() +
		int64(cap(b.parents))*parentRecBytes +
		int64(len(b.frontier)+len(b.next))*b.kc.frontierBytes()
}

// newBFS validates the inputs and seeds the run with the initial
// configuration. done reports that the run already ended (initial-state
// violation under StopOnViolation).
func newBFS(p *fsm.Protocol, n int, opts Options, mode string) (b *bfs, done bool, err error) {
	if err := p.Validate(); err != nil {
		return nil, false, err
	}
	if n < 1 {
		return nil, false, fmt.Errorf("enum: need at least one cache, got %d", n)
	}
	if err := validMode(mode); err != nil {
		return nil, false, err
	}
	if n > 1<<16-1 {
		return nil, false, fmt.Errorf("enum: cache count %d exceeds the provenance-record limit %d", n, 1<<16-1)
	}
	if err := checkOpCount(p); err != nil {
		return nil, false, err
	}
	b = &bfs{
		p: p, n: n, opts: opts, kc: newKeyCodec(p, n, mode), mode: mode,
		orun:      opts.Sink().Run("enum-"+mode, p.Name),
		symmetric: mode == ModeCounting,
		maxStates: opts.maxStates(),
		res:       &Result{Protocol: p, N: n, Mode: mode},
	}
	b.visited, b.tuples = newCompactStore(b.kc.width), newCompactStore(b.kc.width)

	state, key := b.kc.keys(b.kc.cp.NewConfig(n))
	b.frontier = []Key{state}
	b.frontRanks = []uint32{b.visited.insert(key)}
	b.parents = append(b.parents, parentRec{parent: noParent})
	b.tuples.insert(b.kc.tupleKey(&state))
	b.bytes = b.estBytes()
	init := b.kc.config(&state)
	if v := fsm.CheckConfig(p, init, opts.Strict); len(v) > 0 {
		b.res.Violations = append(b.res.Violations, Violation{Config: init, Violations: v})
		b.orun.Event(obs.MetricViolations, 1)
		if opts.StopOnViolation {
			b.finish()
			return b, true, nil
		}
	}
	return b, false, nil
}

// stopCheck evaluates the boundary-granularity budgets: context liveness,
// wall-clock deadline and memory. The state cap is enforced exactly inside
// admit instead.
func (b *bfs) stopCheck(ctx context.Context) error {
	if err := runctl.FromContext(ctx); err != nil {
		return err
	}
	if err := b.opts.Budget.CheckDeadline(time.Now()); err != nil {
		return err
	}
	b.bytes = b.estBytes()
	return b.opts.Budget.CheckMem(b.bytes)
}

// stop finalizes an early stop at a level boundary: the frontier holds the
// states admitted but not yet expanded, so a checkpoint taken here resumes
// to results identical to an uninterrupted run.
func (b *bfs) stop(reason error) {
	b.res.StopReason = reason
	b.res.Truncated = true
	b.finish()
	if b.opts.CheckpointOnStop {
		cp, err := b.snapshot()
		if err != nil {
			b.res.SpecErrors = append(b.res.SpecErrors, fmt.Errorf("enum: capturing stop checkpoint: %w", err))
			return
		}
		b.res.Checkpoint = cp
	}
}

// maybeCheckpoint emits a periodic snapshot when due.
func (b *bfs) maybeCheckpoint() error {
	if b.opts.OnCheckpoint == nil || b.opts.CheckpointEvery <= 0 || b.sinceCp < b.opts.CheckpointEvery {
		return nil
	}
	b.sinceCp = 0
	b.orun.Event("checkpoints_total", 1)
	cp, err := b.snapshot()
	if err != nil {
		return err
	}
	return b.opts.OnCheckpoint(cp)
}

func (b *bfs) finish() {
	b.resolveWitnesses()
	b.res.Unique = b.visited.size()
	b.res.TupleStates = b.tuples.size()
	b.res.kc, b.res.parents = b.kc, b.parents
	b.bytes = b.estBytes()
	b.res.EstBytes = b.bytes
}

// commit installs one deduplicated successor, with its violations
// precomputed by the worker: provenance, tuple census, violation recording
// and the exact state cap. It appends the state to next and reports true
// when the run must end now (StopOnViolation or state budget).
func (b *bfs) commit(it *succItem, viol []fsm.Violation) bool {
	rank := b.visited.insert(it.key)
	b.parents = append(b.parents, parentRec{
		parent: b.frontRanks[it.parent],
		cache:  uint16(it.cache),
		op:     uint8(it.op),
	})
	if !it.tupleDup {
		if tk := b.kc.tupleKey(&it.state); !b.tuples.has(tk) {
			b.tuples.insert(tk)
		}
	}
	if len(viol) > 0 {
		b.pending = append(b.pending, pendingWitness{idx: len(b.res.Violations), key: it.key, rank: rank})
		b.res.Violations = append(b.res.Violations, Violation{Config: b.kc.config(&it.state), Violations: viol})
		b.orun.Event(obs.MetricViolations, 1)
		if b.opts.StopOnViolation {
			b.finish()
			return true
		}
	}
	if b.visited.size() >= b.maxStates {
		b.res.StopReason = runctl.ErrStateBudget
		b.res.Truncated = true
		b.finish()
		return true
	}
	b.next = append(b.next, it.state)
	b.nextRanks = append(b.nextRanks, rank)
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
// then one replay of the provenance records, up to the highest of them,
// renders each ancestor key once (an out-of-core run needs no spill file
// for it), and witnesses sharing a prefix share its rendered strings.
// Mutant sweeps record thousands of violations per run, so the cost is one
// replay per resolution, not one per violation. The rank→key map lives
// only for the call. It runs
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
	unrendered := -1 // the highest rank still to render
	for _, w := range b.pending {
		for cur := b.parents[w.rank].parent; cur != noParent && b.parents[cur].parent != noParent; cur = b.parents[cur].parent {
			if _, ok := keys[cur]; ok {
				break
			}
			keys[cur] = ""
			unrendered = max(unrendered, int(cur))
		}
	}
	if _, err := replay(context.Background(), b.kc, b.parents[:unrendered+1], func(r uint32, _ *Key, k Key) error {
		if s, ok := keys[r]; ok && s == "" {
			keys[r] = b.kc.render(k)
		}
		return nil
	}); err != nil {
		b.res.SpecErrors = append(b.res.SpecErrors, fmt.Errorf("enum: resolving witness paths: %w", err))
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
