package symbolic

import (
	"context"
	"fmt"
	"math/bits"
	"runtime/debug"
	"sync"

	"repro/internal/fsm"
	"repro/internal/obs"
)

// Parallel symbolic expansion. The Figure 3 loop is inherently
// sequential — every successor interacts with the working and history
// lists through containment, and the paper's "discard A and start a new
// run" branch aborts an expansion mid-item — but the expensive part of
// each iteration, expanding every (class, operation) event of the
// popped state through the guard cascade and scenario splitting plus
// the violation check of every successor, is a pure function of the
// state alone. A run wider than one worker exploits that with a
// speculation pipeline: a pool of persistent workers precomputes
// expandItem for every state the moment it enters the working list,
// while the merge loop consumes the finished futures in FIFO order. The
// merge loop is the loop a one-worker run drives, fed the same values,
// so results are bit-identical at every width — same Essential list,
// same counters, same violations and witness paths. Because states are
// dispatched in worklist order and the workers drain the job queue in
// that same order, the head's expansion is always the first to finish;
// the only discarded work is for states evicted by containment pruning
// before their turn.

// WorkerError records a panic recovered in a speculation worker. The
// affected state is re-expanded inline by the merge loop (expandItem
// is deterministic, so a transient panic leaves the results identical);
// a panic that persists in the inline retry propagates like a panic in
// an inline expansion would.
type WorkerError struct {
	// Job is the dispatch sequence number of the speculation job that
	// panicked (0 for the initial state).
	Job int
	// Worker is the index of the panicked worker within the pool.
	Worker int
	// Value is the rendered panic value.
	Value string
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("symbolic: worker %d panicked expanding speculation job %d: %s", e.Worker, e.Job, e.Value)
}

// expandItem computes every event expansion of one worklist state, in
// the (class, op) order processItem consumes them. The item's successors
// are interned in buf, so a state that several events generate is built
// once. It reads only the engine's immutable compiled tables and the
// state, and writes only buf and the memo it returns, so concurrent calls
// with their own buffers are race-free.
func (e *Engine) expandItem(a *CState, buf *stepBuf) *itemMemo {
	m := getItemMemo()
	buf.tab.reset()
	for occ := a.occ(); occ != 0; occ &= occ - 1 {
		oi := bits.TrailingZeros64(occ)
		for k := range e.cp.Ops {
			ids := e.cp.RuleIDs(oi, k)
			if len(ids) == 0 {
				continue
			}
			// Every event appends to the shared m.succs; its succs field
			// is re-pointed below, once the slice has stopped growing.
			start := len(m.succs)
			var err error
			m.succs, err = e.expandEvent(m.succs, a, oi, k, ids, buf)
			m.events = append(m.events, eventResult{succs: m.succs[start:], err: err})
		}
	}
	off := 0
	for i := range m.events {
		er := &m.events[i]
		n := len(er.succs)
		er.succs = m.succs[off : off+n : off+n]
		off += n
	}
	return m
}

// check precomputes the violation check of every successor of the item
// expandItem interned in buf, each distinct state once. A speculation
// worker runs it, which leaves the serial merge only the containment
// bookkeeping; an item the merge loop expands inline is checked as it is
// merged instead, skipping the states already reported.
func (m *itemMemo) check(e *Engine, buf *stepBuf, strict bool) {
	for i := range m.events {
		er := &m.events[i]
		for j, su := range er.succs {
			if v := e.check(&buf.tab, su.State, strict); len(v) > 0 {
				if er.viol == nil {
					er.viol = make([][]fsm.Violation, len(er.succs))
				}
				er.viol[j] = v
			}
		}
	}
	m.checked = true
}

// itemMemo is the expansion of one worklist state: its event results in
// processItem's order, the one slice backing all their successors, and
// whether check has filled the events' violations.
type itemMemo struct {
	events  []eventResult
	succs   []Succ
	checked bool
}

// itemMemoPool recycles the per-item memos: each dispatched state gets
// one and the merge loop retires it as soon as the state is processed, so
// steady-state speculation reuses a small set.
var itemMemoPool = sync.Pool{New: func() any { return new(itemMemo) }}

func getItemMemo() *itemMemo {
	return itemMemoPool.Get().(*itemMemo)
}

func putItemMemo(m *itemMemo) {
	// Drop the states and violations so the pool retains no CStates.
	clear(m.events)
	clear(m.succs)
	m.events, m.succs, m.checked = m.events[:0], m.succs[:0], false
	itemMemoPool.Put(m)
}

// testWorkerHook, when set by tests, runs inside each speculation worker
// goroutine (and not in the inline retry), which is how the tests inject
// worker panics.
var testWorkerHook func(job, worker int)

// specFuture is the slot one speculation job fills: res and we are
// written by exactly one worker before done is closed, and read by the
// merge loop only after done is closed.
type specFuture struct {
	done chan struct{}
	res  *itemMemo
	we   *WorkerError
}

type specJob struct {
	seq int
	a   *CState
	fut *specFuture
}

// speculator runs the speculation pipeline: a pool of persistent worker
// goroutines fed through a job queue, and a future per dispatched
// working-list state. The futures map and the dispatch bookkeeping are
// owned by the merge loop; workers touch only the future they were
// handed (plus the panic list, under the mutex).
type speculator struct {
	x    *expander
	jobs chan specJob
	wg   sync.WaitGroup

	futures map[*CState]*specFuture
	seq     int

	mu     sync.Mutex
	panics []*WorkerError
}

func newSpeculator(x *expander, workers int) *speculator {
	sp := &speculator{
		x:       x,
		jobs:    make(chan specJob, 4*workers),
		futures: make(map[*CState]*specFuture),
	}
	for w := 0; w < workers; w++ {
		sp.wg.Add(1)
		go sp.worker(w)
	}
	return sp
}

func (sp *speculator) worker(w int) {
	defer sp.wg.Done()
	buf := newStepBuf()
	for job := range sp.jobs {
		sp.runJob(w, job, buf)
	}
}

func (sp *speculator) runJob(w int, job specJob, buf *stepBuf) {
	defer close(job.fut.done)
	defer func() {
		if r := recover(); r != nil {
			we := &WorkerError{
				Job: job.seq, Worker: w,
				Value: fmt.Sprint(r),
				Stack: string(debug.Stack()),
			}
			job.fut.we = we
			sp.mu.Lock()
			sp.panics = append(sp.panics, we)
			sp.mu.Unlock()
		}
	}()
	if testWorkerHook != nil {
		testWorkerHook(job.seq, w)
	}
	m := sp.x.e.expandItem(job.a, buf)
	m.check(sp.x.e, buf, sp.x.opts.Strict)
	job.fut.res = m
}

// dispatch hands every not-yet-speculated working-list state to the
// pool. New states enter the FIFO at the back and pruning only removes
// (never reorders), so the undispatched states always form a suffix of
// the list: scan backwards to the first dispatched one.
func (sp *speculator) dispatch() {
	work := sp.x.work
	i := len(work)
	for i > 0 {
		if _, ok := sp.futures[work[i-1]]; ok {
			break
		}
		i--
	}
	for ; i < len(work); i++ {
		fut := &specFuture{done: make(chan struct{})}
		sp.futures[work[i]] = fut
		sp.jobs <- specJob{seq: sp.seq, a: work[i], fut: fut}
		sp.seq++
		sp.x.orun.Event("speculation_jobs_total", 1)
	}
}

// take claims the speculated results for the popped head, blocking
// until its worker finishes. A nil return (worker panicked, or the
// state was never dispatched) tells the caller to expand inline.
func (sp *speculator) take(a *CState) *itemMemo {
	fut, ok := sp.futures[a]
	if !ok {
		return nil
	}
	delete(sp.futures, a)
	<-fut.done
	if fut.we != nil {
		return nil
	}
	return fut.res
}

// maybeSweep reclaims futures whose states were evicted from the
// working list by containment pruning before their turn — the only
// speculation waste this design has. Finished futures return their
// buffers to the pool; in-flight ones are abandoned to the collector.
// The threshold keeps the sweep amortized against the worklist size.
func (sp *speculator) maybeSweep() {
	if len(sp.futures) <= 2*len(sp.x.work)+16 {
		return
	}
	in := make(map[*CState]struct{}, len(sp.x.work))
	for _, s := range sp.x.work {
		in[s] = struct{}{}
	}
	swept := int64(0)
	for s, fut := range sp.futures {
		if _, ok := in[s]; ok {
			continue
		}
		delete(sp.futures, s)
		swept++
		select {
		case <-fut.done:
			if fut.we == nil {
				putItemMemo(fut.res)
			}
		default:
		}
	}
	if swept > 0 {
		sp.x.orun.Event("speculation_discarded_total", swept)
	}
}

// shutdown stops the pool: no more jobs, and every in-flight one has
// finished when it returns.
func (sp *speculator) shutdown() {
	close(sp.jobs)
	sp.wg.Wait()
}

// drainPanics records every recovered worker panic into the result.
func (sp *speculator) drainPanics() {
	sp.mu.Lock()
	panics := sp.panics
	sp.panics = nil
	sp.mu.Unlock()
	for _, we := range panics {
		sp.x.res.WorkerErrors = append(sp.x.res.WorkerErrors, we)
		sp.x.orun.Event("worker_panics_total", 1)
	}
}

// runPar drives the Figure 3 loop. With more than one worker, every state
// entering the working list is dispatched to the speculation pool
// immediately, and the merge loop blocks (rarely) on the head's future;
// with one or none there is no pool and every item is expanded inline.
// Either way the merge loop is processItem, so the widths cannot drift.
func (x *expander) runPar(ctx context.Context, workers int) (*Result, error) {
	ph := x.orun.Phase(obs.PhaseExpand)
	defer ph.End()
	var sp *speculator
	if workers > 1 {
		sp = newSpeculator(x, workers)
		defer sp.drainPanics()
		defer sp.shutdown()
		sp.dispatch() // the initial working list: one state fresh, many resumed
	}
	for len(x.work) > 0 && x.res.Visits < x.maxVisits {
		if err := x.stopCheck(ctx); err != nil {
			x.stop(err)
			return x.res, nil
		}
		if err := x.maybeCheckpoint(); err != nil {
			return nil, err
		}
		a := x.popWork()
		var memo *itemMemo
		if sp != nil {
			memo = sp.take(a)
		}
		if memo == nil {
			if x.buf == nil {
				x.buf = newStepBuf()
			}
			memo = x.e.expandItem(a, x.buf)
		}
		stop := x.processItem(a, memo)
		putItemMemo(memo)
		if stop {
			return x.res, nil
		}
		if sp != nil {
			sp.dispatch()
			sp.maybeSweep()
		}
	}
	x.finishRun()
	return x.res, nil
}

// ExpandParallelContext is ExpandContext at an explicit width: workers ≤ 0
// selects RunConfig.Workers, then GOMAXPROCS.
func (e *Engine) ExpandParallelContext(ctx context.Context, opts Options, workers int) (*Result, error) {
	return e.expand(ctx, opts, opts.Width(workers))
}

// expand seeds a fresh expander with the initial state and drives it at
// the given width. An initial-state violation under StopOnViolation ends
// the run before the loop.
func (e *Engine) expand(ctx context.Context, opts Options, workers int) (*Result, error) {
	x := newExpander(e, opts)
	init := e.Initial()
	x.parents[init.Key()] = parentInfo{}
	x.seenKeys[init.Key()] = struct{}{}
	if v := e.Check(init, opts.Strict); len(v) > 0 {
		x.res.Violations = append(x.res.Violations, StateViolation{State: init, Violations: v})
		x.orun.Event(obs.MetricViolations, 1)
		if opts.StopOnViolation {
			return x.res, nil
		}
	}
	x.pushWork(init)
	return x.runPar(ctx, workers)
}
