package symbolic

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/fsm"
	"repro/internal/obs"
	"repro/internal/runctl"
)

// Options tune the Expand run. Run control (memory budget, checkpoint
// cadence, width, observability) lives in the embedded runctl.RunConfig,
// shared with enum.Options:
//
//	symbolic.Options{RunConfig: runctl.RunConfig{Budget: b, Workers: 4, Metrics: reg}}
//
// The context (cancellation, deadline) and the memory budget are checked
// at worklist-item boundaries, so such a stopped run ends between
// expansions and its partial Result (and checkpoint) covers whole
// expansion steps only; the exact MaxVisits cap, by contrast, may stop
// mid-step. RunConfig.Workers is the number of speculation workers
// (≤ 1: none, every item is expanded inline); every width gives the same
// Result.
type Options struct {
	runctl.RunConfig

	// MaxVisits bounds the number of generated successor states; 0 means
	// the default (100000). It is the run's one state cap, a safety net
	// against ill-formed protocols, and stops mid-step with no checkpoint.
	MaxVisits int
	// RecordLog keeps the full visit log (the Appendix A.2 listing).
	RecordLog bool
	// StopOnViolation aborts the expansion at the first erroneous state;
	// otherwise the expansion continues and collects every violation.
	StopOnViolation bool
	// Strict enables the CleanShared memory-consistency extension check.
	Strict bool
	// NoContainment is an ABLATION switch: it disables the containment
	// pruning of Definition 9 and deduplicates states by identity only.
	// The expansion still terminates (the composite state space is finite)
	// and still finds every violation, but the history list holds all
	// distinct reachable composite states instead of just the essential
	// ones — quantifying what the paper's pruning buys.
	NoContainment bool

	// OnCheckpoint receives the periodic snapshots requested by
	// RunConfig.CheckpointEvery; a non-nil return aborts the run with that
	// error. It stays outside RunConfig because the checkpoint type is
	// engine-specific.
	OnCheckpoint func(*Checkpoint) error
}

const defaultMaxVisits = 100000

// Outcome classifies what happened to a generated successor state.
type Outcome int

const (
	// OutcomeNew: the state entered the working list.
	OutcomeNew Outcome = iota
	// OutcomeContained: the state was discarded because an existing state
	// contains it.
	OutcomeContained
	// OutcomeSupersedes: the state entered the working list and evicted one
	// or more contained states.
	OutcomeSupersedes
)

func (o Outcome) String() string {
	switch o {
	case OutcomeNew:
		return "new"
	case OutcomeContained:
		return "contained"
	case OutcomeSupersedes:
		return "supersedes"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// VisitRecord is one line of the expansion log, corresponding to one line of
// the paper's Appendix A.2: a source state, a transition label, the
// generated state and how the algorithm disposed of it.
type VisitRecord struct {
	From    *CState
	Label   Label
	Rule    string
	To      *CState
	Outcome Outcome
}

// PathStep is one hop of a witness path from the initial state.
type PathStep struct {
	Label Label
	To    *CState
}

// StateViolation pairs an erroneous state (Definition 3 and the
// compatibility conditions of Section 2.1) with its violations and a witness
// path from the initial state.
type StateViolation struct {
	State      *CState
	Violations []fsm.Violation
	Path       []PathStep
}

// Result is the outcome of a symbolic expansion run.
type Result struct {
	// Protocol is the verified protocol.
	Protocol *fsm.Protocol
	// Essential is the final history list H of Figure 3: the essential
	// states of Definition 10, in canonical (discovery, then key) order.
	Essential []*CState
	// Visits counts every generated successor state, the paper's "state
	// visits" metric (22 for Illinois).
	Visits int
	// Expansions counts worklist states that were fully expanded.
	Expansions int
	// Superseded counts worklist states discarded because a successor
	// contained them (the "discard A and start a new run" branch).
	Superseded int
	// Contained counts generated states discarded without expansion: by
	// ⊆_F containment (Definition 9), or by identity dedup in the
	// NoContainment ablation. Like Log, it is not preserved across
	// checkpoint/resume (a resumed run counts from the resume point).
	Contained int
	// Evicted counts list states removed by containment pruning because a
	// later state contained them. Not preserved across checkpoint/resume.
	Evicted int
	// Log is the visit log when Options.RecordLog was set. It is not
	// preserved across checkpoint/resume.
	Log []VisitRecord
	// Violations lists every erroneous state found, with witnesses.
	Violations []StateViolation
	// SpecErrors lists specification-level problems (incomplete guard
	// cascades, missing suppliers); non-empty SpecErrors mean the protocol
	// definition itself is broken.
	SpecErrors []error
	// Truncated reports that the run stopped before the working list
	// emptied; StopReason carries the structured cause.
	Truncated bool
	// StopReason is nil for a complete run; otherwise it matches one of
	// the runctl sentinels (ErrCanceled, ErrDeadline, ErrStateBudget,
	// ErrMemBudget) via errors.Is.
	StopReason error
	// Checkpoint is a resumable snapshot of the interrupted run, present
	// when Options.CheckpointOnStop was set and the stop happened at a
	// worklist boundary (the exact MaxVisits cap stops mid-step and is
	// not checkpointable).
	Checkpoint *Checkpoint
	// EstBytes is the run's final estimated resident footprint, the value
	// the memory budget was enforced against (see cstateBytes).
	EstBytes int64
	// WorkerErrors records panics recovered in parallel speculation
	// workers. The affected states were re-expanded inline, so the
	// results are unaffected; the entries exist for diagnosis.
	WorkerErrors []*WorkerError
}

// OK reports whether the protocol verified cleanly: no erroneous states and
// no specification errors.
func (r *Result) OK() bool { return len(r.Violations) == 0 && len(r.SpecErrors) == 0 }

// parentInfo supports witness reconstruction.
type parentInfo struct {
	parent *CState
	label  Label
}

// Expand runs the essential-states generation algorithm of Figure 3 from the
// protocol's initial composite state.
func Expand(p *fsm.Protocol, opts Options) (*Result, error) {
	e, err := NewEngine(p)
	if err != nil {
		return nil, err
	}
	return e.Expand(opts), nil
}

// ExpandContext is Expand under a context: cancellation, deadlines and the
// budgets stop the run at the next worklist item, returning the partial
// Result with a structured StopReason. The only error condition besides
// engine construction is a failing OnCheckpoint sink.
func ExpandContext(ctx context.Context, p *fsm.Protocol, opts Options) (*Result, error) {
	e, err := NewEngine(p)
	if err != nil {
		return nil, err
	}
	return e.ExpandContext(ctx, opts)
}

// Expand runs the essential-states generation algorithm of Figure 3.
func (e *Engine) Expand(opts Options) *Result {
	res, _ := e.ExpandContext(context.Background(), opts)
	return res
}

// ExpandContext runs Figure 3 under a context with budget enforcement,
// with RunConfig.Workers speculation workers.
func (e *Engine) ExpandContext(ctx context.Context, opts Options) (*Result, error) {
	return e.expand(ctx, opts, opts.Workers)
}

// expander is the resumable state of one Figure 3 run: the working list W,
// the history list H, and the bookkeeping maps. It is built fresh by
// ExpandContext and rebuilt from a Checkpoint by ResumeContext, so an
// interrupted-then-resumed run walks exactly the states an uninterrupted
// run would.
type expander struct {
	e         *Engine
	opts      Options
	orun      *obs.Run // nil when unobserved: the allocation-free fast path
	maxVisits int

	work     []*CState
	hist     []*CState
	parents  map[string]parentInfo
	reported map[string]bool
	seenKeys map[string]struct{}
	sinceCp  int
	// workIx and histIx are the containment indexes over work and hist,
	// nil in the NoContainment ablation (identity dedup never queries
	// containment). The ordered slices stay the source of truth; every
	// mutation goes through the push/pop/prune helpers so slices, indexes
	// and the incremental byte estimate cannot drift.
	workIx *cindex
	histIx *cindex
	// listBytes is the running cstateBytes total of work + hist.
	listBytes int64
	// buf is the merge loop's expansion scratch, for items expanded inline
	// (no speculated memo).
	buf *stepBuf

	res *Result
}

func newExpander(e *Engine, opts Options) *expander {
	maxVisits := opts.MaxVisits
	if maxVisits <= 0 {
		maxVisits = defaultMaxVisits
	}
	x := &expander{
		e: e, opts: opts, maxVisits: maxVisits,
		orun:     opts.Sink().Run("symbolic", e.p.Name),
		parents:  map[string]parentInfo{},
		reported: map[string]bool{},
		seenKeys: map[string]struct{}{},
		res:      &Result{Protocol: e.p},
	}
	if !opts.NoContainment {
		x.workIx = newCIndex()
		x.histIx = newCIndex()
	}
	return x
}

// cstateBytes estimates the resident cost of one composite state: its key
// (the only copy of the component vectors; map keys share its bytes), the
// struct with its bitmask summaries, and the list, index and bookkeeping
// map entries. The constant is pinned against measured heap growth by
// TestCStateBytesEstimate.
func cstateBytes(s *CState) int64 {
	return int64(len(s.key) + 152)
}

// estBytes estimates the run's footprint from the worklist, the history and
// the parent map. Computed from state sizes, not the allocator, so it is
// deterministic across runs and platforms; the list contribution is
// maintained incrementally by the push/pop/prune helpers.
func (x *expander) estBytes() int64 {
	return x.listBytes + int64(len(x.parents))*64
}

// pushWork appends s to the working list (and its index).
func (x *expander) pushWork(s *CState) {
	x.work = append(x.work, s)
	x.listBytes += cstateBytes(s)
	if x.workIx != nil {
		x.workIx.add(s)
	}
}

// popWork removes and returns the head of the working list.
func (x *expander) popWork() *CState {
	s := x.work[0]
	x.work = x.work[1:]
	x.listBytes -= cstateBytes(s)
	if x.workIx != nil {
		x.workIx.remove(s)
	}
	return s
}

// pushHist appends s to the history list (and its index).
func (x *expander) pushHist(s *CState) {
	x.hist = append(x.hist, s)
	x.listBytes += cstateBytes(s)
	if x.histIx != nil {
		x.histIx.add(s)
	}
}

// inWork / inHist report whether an indexed state contains s.
func (x *expander) inWork(s *CState) bool { return x.workIx.containedInAny(s) }
func (x *expander) inHist(s *CState) bool { return x.histIx.containedInAny(s) }

// prune drops every state of the list that s contains, preserving list
// order, and returns the number of removals. Victims are found through the
// index, so states with incompatible structural signatures are never
// compared and the common no-victim case leaves the slice untouched.
func (x *expander) prune(listp *[]*CState, ix *cindex, s *CState) int {
	victims := ix.collectContained(s, nil)
	if len(victims) == 0 {
		return 0
	}
	drop := make(map[*CState]bool, len(victims))
	for _, t := range victims {
		drop[t] = true
		ix.remove(t)
		x.listBytes -= cstateBytes(t)
	}
	out := (*listp)[:0]
	for _, t := range *listp {
		if drop[t] {
			continue
		}
		out = append(out, t)
	}
	*listp = out
	return len(victims)
}

// stopCheck evaluates the boundary-granularity bounds: the context (its
// cancellation and deadline) and memory. The visit cap is enforced exactly
// inside processItem instead.
func (x *expander) stopCheck(ctx context.Context) error {
	if err := runctl.FromContext(ctx); err != nil {
		return err
	}
	return x.opts.Budget.CheckMem(x.estBytes())
}

// stop finalizes an early stop at a worklist boundary.
func (x *expander) stop(reason error) {
	x.res.StopReason = reason
	x.res.Truncated = true
	x.res.Essential = x.hist
	x.res.EstBytes = x.estBytes()
	if x.opts.CheckpointOnStop {
		x.res.Checkpoint = x.snapshot()
	}
}

func (x *expander) maybeCheckpoint() error {
	if x.opts.OnCheckpoint == nil || x.opts.CheckpointEvery <= 0 || x.sinceCp < x.opts.CheckpointEvery {
		return nil
	}
	x.sinceCp = 0
	x.orun.Event("checkpoints_total", 1)
	return x.opts.OnCheckpoint(x.snapshot())
}

// eventResult is the outcome of one expandEvent call. In a checked memo
// viol[j] carries the violation check of succs[j] — Check, like
// expandEvent, is a pure function of the successor state, which is what
// lets a speculation worker run both (see itemMemo.check). viol is nil
// when no successor of the event violates anything.
type eventResult struct {
	succs []Succ
	viol  [][]fsm.Violation
	err   error
}

// processItem performs the Figure 3 processing of one popped worklist
// state: take every applicable (class, operation) event's successors from
// memo, the item's expansion (see Engine.expandItem), check each, and
// merge it into the working and history lists under containment pruning. The
// expansion is a pure function of a, so it is the same whether a
// speculation worker or the merge loop computed it — which is what keeps
// every width bit-identical.
// It reports true when the run must return immediately (StopOnViolation),
// with the result already finalized.
func (x *expander) processItem(a *CState, memo *itemMemo) bool {
	opts, res := x.opts, x.res
	superseded := false

expandA:
	for _, ev := range memo.events {
		if ev.err != nil {
			res.SpecErrors = append(res.SpecErrors, ev.err)
			x.orun.Event("spec_errors_total", 1)
		}
		for j, su := range ev.succs {
			res.Visits++
			ap := su.State
			if _, seen := x.parents[ap.Key()]; !seen {
				x.parents[ap.Key()] = parentInfo{parent: a, label: su.Label}
			}

			// Erroneous-state detection happens before pruning so
			// containment can never hide a violation.
			var v []fsm.Violation
			switch {
			case memo.checked:
				if ev.viol != nil {
					v = ev.viol[j]
				}
			case !x.reported[ap.Key()]:
				v = x.e.check(&x.buf.tab, ap, opts.Strict)
			}
			if len(v) > 0 && !x.reported[ap.Key()] {
				x.reported[ap.Key()] = true
				res.Violations = append(res.Violations, StateViolation{
					State:      ap,
					Violations: v,
					Path:       x.e.witness(x.parents, ap),
				})
				x.orun.Event(obs.MetricViolations, 1)
				if opts.StopOnViolation {
					res.Essential = append(x.hist, x.work...)
					res.EstBytes = x.estBytes()
					return true
				}
			}

			outcome := OutcomeNew
			switch {
			case opts.NoContainment:
				if _, dup := x.seenKeys[ap.Key()]; dup {
					outcome = OutcomeContained
				} else {
					x.seenKeys[ap.Key()] = struct{}{}
					x.pushWork(ap)
				}
			case Contains(a, ap):
				outcome = OutcomeContained
			case x.inWork(ap) || x.inHist(ap):
				outcome = OutcomeContained
			default:
				if n := x.prune(&x.work, x.workIx, ap); n > 0 {
					res.Evicted += n
					outcome = OutcomeSupersedes
				}
				if n := x.prune(&x.hist, x.histIx, ap); n > 0 {
					res.Evicted += n
					outcome = OutcomeSupersedes
				}
				x.pushWork(ap)
				if Contains(ap, a) {
					// "discard A and terminate all FOR loops
					// starting a new run."
					superseded = true
					res.Superseded++
				}
			}
			if outcome == OutcomeContained {
				res.Contained++
			}
			if opts.RecordLog {
				res.Log = append(res.Log, VisitRecord{
					From: a, Label: su.Label, Rule: su.Rule.Name,
					To: ap, Outcome: outcome,
				})
			}
			if res.Visits >= x.maxVisits {
				break expandA
			}
			if superseded {
				break expandA
			}
		}
	}
	if !superseded {
		res.Expansions++
		if opts.NoContainment {
			x.pushHist(a)
		} else if !x.inHist(a) && !x.inWork(a) {
			x.pushHist(a)
		}
	}
	x.sinceCp++
	// One "level" of the worklist algorithm is one fully processed
	// item; counts are cumulative (obs.Run turns them into deltas).
	x.orun.Level(obs.LevelStats{
		Level:      res.Expansions + res.Superseded - 1,
		Frontier:   len(x.work),
		Essential:  len(x.hist),
		Visits:     res.Visits,
		Pruned:     res.Contained,
		Superseded: res.Superseded,
		EstBytes:   x.estBytes(),
	})
	return false
}

// finishRun finalizes the result after the main loop drained (or the
// exact MaxVisits cap tripped mid-step).
func (x *expander) finishRun() {
	x.res.Essential = x.hist
	x.res.EstBytes = x.estBytes()
	if len(x.work) > 0 {
		// The exact MaxVisits cap tripped mid-expansion; no checkpoint for
		// mid-step stops.
		x.res.Truncated = true
		x.res.StopReason = runctl.ErrStateBudget
	}
}

// containedInAny is the linear scan the index runs within candidate
// buckets.
func containedInAny(s *CState, list []*CState) bool {
	for _, t := range list {
		if Contains(t, s) {
			return true
		}
	}
	return false
}

// witness reconstructs a path from the initial state to s using the parent
// map populated during expansion.
func (e *Engine) witness(parents map[string]parentInfo, s *CState) []PathStep {
	var rev []PathStep
	cur := s
	for {
		pi, ok := parents[cur.Key()]
		if !ok || pi.parent == nil {
			break
		}
		rev = append(rev, PathStep{Label: pi.label, To: cur})
		cur = pi.parent
		if len(rev) > 10000 {
			break // defensive: parent chains are acyclic by construction
		}
	}
	// Reverse.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// SortStates orders composite states deterministically: by decreasing
// "generality" (number of star/plus classes) and then by key. Reports and
// tests use this to present essential states stably.
func SortStates(states []*CState) []*CState {
	out := append([]*CState(nil), states...)
	gen := func(s *CState) int {
		g := 0
		for i := 0; i < s.NumClasses(); i++ {
			if r := s.Rep(i); r == RStar || r == RPlus {
				g++
			}
		}
		return g
	}
	sort.SliceStable(out, func(i, j int) bool {
		gi, gj := gen(out[i]), gen(out[j])
		if gi != gj {
			return gi > gj
		}
		return out[i].Key() < out[j].Key()
	})
	return out
}
