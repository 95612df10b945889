package replay

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/compile"
	"repro/internal/fsm"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Options tune a replay run. The zero value replays the whole trace with
// the header's geometry, unbounded and unobserved.
type Options struct {
	// Observer and Metrics receive the progress events. Time is bounded
	// by the run's context: a canceled or expired context stops the run
	// at an operation boundary with partial statistics.
	Observer obs.Observer
	Metrics  *obs.Registry

	// BlockSize overrides the address→block mapping granularity (0: the
	// trace header's blocksize, or DefaultBlockSize).
	BlockSize int
	// MaxBlocks caps the dense block table (0: DefaultMaxBlocks); it is
	// also the simulated machine's block count.
	MaxBlocks int
	// Capacity bounds blocks resident per cache, LRU-replaced (0:
	// unbounded).
	Capacity int
	// MaxOps replays at most this many references (0: the whole trace).
	MaxOps int64
	// SkipOps discards this many leading references before replaying —
	// the resume knob: a run stopped at operation k continues with
	// SkipOps=k on the same trace.
	SkipOps int64
	// Strict enables the CleanShared extension in the final invariant
	// check.
	Strict bool
	// ProgressEvery is the operations between progress callbacks and
	// metric flushes (0: 1<<20).
	ProgressEvery int64
}

// withDefaults resolves the zero values.
func (o Options) withDefaults() Options {
	if o.MaxBlocks <= 0 {
		o.MaxBlocks = DefaultMaxBlocks
	}
	if o.ProgressEvery <= 0 {
		o.ProgressEvery = 1 << 20
	}
	return o
}

// Result is one protocol's replay outcome.
type Result struct {
	// Protocol names the protocol replayed.
	Protocol string
	// Ops is the number of references applied.
	Ops int64
	// Stats are the machine's cumulative coherence-traffic counters.
	Stats sim.Stats
	// Caches and Blocks are the replayed machine's geometry (distinct
	// blocks actually touched, not the table cap).
	Caches int
	Blocks int
	// BlockSize is the address→block granularity the run mapped with.
	BlockSize int
	// TraceDigest is the SHA-256 of the raw trace bytes, available once
	// the trace has been fully consumed ("" on truncated runs).
	TraceDigest string
	// Truncated reports an early stop; StopReason is the runctl sentinel.
	Truncated  bool
	StopReason error
	// Violations are final-state invariant violations (a coherent
	// protocol leaves none).
	Violations []fsm.Violation
}

// batchSize is the decode batch: large enough to amortize channel and
// call overhead in fan-out mode, small enough to keep cancellation
// latency and pooled memory modest.
const batchSize = 4096

// refPool recycles decode batches across runs and protocols.
var refPool = sync.Pool{
	New: func() any { return make([]trace.Ref, batchSize) },
}

// Replay streams one trace through one protocol. The reader may be plain
// or gzipped cctrace text; geometry comes from the trace header unless
// overridden in opts.
func Replay(ctx context.Context, r io.Reader, p *fsm.Protocol, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	sc, err := NewScanner(r, ScanOptions{BlockSize: opts.BlockSize, MaxBlocks: opts.MaxBlocks})
	if err != nil {
		return nil, err
	}
	rep := newReplayer(p, sc.Meta(), opts)
	m, err := rep.machine()
	if err != nil {
		return nil, err
	}
	buf := refPool.Get().([]trace.Ref)
	defer refPool.Put(buf)
	for {
		n, serr := sc.NextBatch(buf)
		if n > 0 {
			stop, aerr := rep.apply(ctx, m, buf[:n])
			if aerr != nil {
				return nil, aerr
			}
			if stop {
				return rep.finish(m, sc, true), nil
			}
		}
		if serr == io.EOF {
			break
		}
		if serr != nil {
			return nil, serr
		}
	}
	return rep.finish(m, sc, false), nil
}

// replayer is the per-protocol replay state shared by the single and
// fan-out paths: skip/limit bookkeeping, context stops at operation
// boundaries, and progress emission.
type replayer struct {
	p *fsm.Protocol
	// compiled is this lane's one lowering of p (internal/compile), built
	// lazily by machine() and handed to every machine the lane creates.
	compiled *compile.Protocol
	meta     Meta
	opts     Options

	ops        int64 // applied
	seen       int64 // decoded (includes skipped)
	stopReason error

	observed  bool // opts has an Observer or Metrics
	ticks     int  // progress callbacks emitted
	lastOps   int64
	lastMiss  int64
	nextFlush int64
}

// newReplayer builds the per-protocol state.
func newReplayer(p *fsm.Protocol, meta Meta, opts Options) *replayer {
	return &replayer{
		p: p, meta: meta, opts: opts,
		observed:  opts.Observer != nil || opts.Metrics != nil,
		nextFlush: opts.ProgressEvery,
	}
}

// machine builds the simulated multiprocessor for this trace, compiling the
// protocol on first use so every machine of the lane shares one lowering.
func (r *replayer) machine() (*sim.Machine, error) {
	if r.compiled == nil {
		cp, err := compile.Compile(r.p)
		if err != nil {
			return nil, err
		}
		r.compiled = cp
	}
	caches := r.meta.Caches
	return sim.New(sim.Config{
		Protocol: r.p,
		Compiled: r.compiled,
		Caches:   caches,
		Blocks:   r.opts.MaxBlocks,
		Capacity: r.opts.Capacity,
		Strict:   r.opts.Strict,
	})
}

// apply replays one decoded batch, honoring SkipOps and MaxOps.
// stop=true means the run should end now (MaxOps or a stopped context,
// whose reason is recorded); the caller still gets partial statistics.
func (r *replayer) apply(ctx context.Context, m *sim.Machine, refs []trace.Ref) (stop bool, err error) {
	// Resume skip: discard leading refs without applying them.
	if skip := r.opts.SkipOps - r.seen; skip > 0 {
		if skip >= int64(len(refs)) {
			r.seen += int64(len(refs))
			return false, nil
		}
		refs = refs[skip:]
		r.seen += skip
	}
	limit := int64(len(refs))
	if r.opts.MaxOps > 0 && r.ops+limit > r.opts.MaxOps {
		limit = r.opts.MaxOps - r.ops
	}
	// Apply in chunks bounded by the next progress boundary, so observed
	// runs tick at exactly ProgressEvery ops regardless of batch size.
	for applied := int64(0); applied < limit; {
		chunk := limit - applied
		if r.observed {
			if boundary := r.nextFlush - r.ops; boundary < chunk {
				chunk = boundary
			}
		}
		before := m.Stats().Ops
		if st, err := m.RunRefs(ctx, refs[applied:applied+chunk]); err != nil {
			if runctl.IsStop(err) {
				// Count what RunRefs applied before it saw the stop, so
				// Ops matches Stats.Ops and SkipOps = Ops resumes after it.
				r.ops += st.Ops - before
				r.seen += st.Ops - before
				r.stopReason = err
				return true, nil
			}
			return false, err
		}
		applied += chunk
		r.ops += chunk
		r.seen += chunk
		if r.observed && r.ops >= r.nextFlush {
			r.nextFlush += r.opts.ProgressEvery
			r.progress(m, 0)
		}
	}
	// MaxOps fired mid-batch: a request, not an exhaustion, so no reason.
	return int64(len(refs)) > limit, nil
}

// progress emits one periodic observability tick: an OnLevel callback in
// the shared LevelStats vocabulary (Visits = applied operations, Pruned =
// misses, Essential = bus transactions) plus the replay_* counters.
func (r *replayer) progress(m *sim.Machine, blocks int) {
	if !r.observed {
		return
	}
	st := m.Stats()
	misses := st.ReadMisses + st.WriteMisses
	deltaOps, deltaMiss := r.ops-r.lastOps, misses-r.lastMiss
	if deltaOps <= 0 {
		return
	}
	r.lastOps, r.lastMiss = r.ops, misses
	r.ticks++
	if o := r.opts.Observer; o != nil {
		o.OnLevel(obs.LevelStats{
			Engine:    "replay",
			Protocol:  r.p.Name,
			Level:     r.ticks,
			Visits:    int(r.ops),
			Pruned:    int(misses),
			Essential: int(st.BusTransactions),
			Frontier:  blocks,
		})
	}
	if reg := r.opts.Metrics; reg != nil {
		reg.Counter("replay_ops_total").Add(deltaOps)
		reg.Counter("replay_misses_total").Add(deltaMiss)
		reg.Gauge("replay_blocks").Set(int64(blocks))
	}
}

// finish assembles the Result.
func (r *replayer) finish(m *sim.Machine, sc *Scanner, truncated bool) *Result {
	res := &Result{
		Protocol:   r.p.Name,
		Ops:        r.ops,
		Stats:      m.Stats(),
		Caches:     r.meta.Caches,
		Blocks:     sc.Blocks(),
		BlockSize:  sc.Meta().BlockSize,
		Truncated:  truncated,
		StopReason: r.stopReason,
		Violations: m.CheckInvariants(),
	}
	if !truncated {
		res.TraceDigest = sc.Digest()
	}
	r.progress(m, res.Blocks) // final flush of whatever accrued since the last tick
	return res
}

// Fan-out mode: one decoded stream, N protocols.

// sharedBatch is one decoded batch broadcast to every protocol goroutine;
// the last consumer returns the buffer to the pool.
type sharedBatch struct {
	refs []trace.Ref
	left atomic.Int32
}

// release returns the batch to the pool once every consumer is done.
func (b *sharedBatch) release() {
	if b.left.Add(-1) == 0 {
		refPool.Put(b.refs[:cap(b.refs)])
	}
}

// CompareResult is the outcome of a fan-out replay.
type CompareResult struct {
	// Results are per-protocol outcomes in the caller's protocol order.
	Results []*Result
	// TraceDigest is the SHA-256 of the raw trace bytes.
	TraceDigest string
	// Meta is the trace header (BlockSize resolved).
	Meta Meta
}

// Compare replays one trace through every protocol concurrently — one
// goroutine per protocol consuming the same decoded reference stream, so
// the comparison is apples-to-apples by construction: every machine sees
// the identical reference sequence. The first error (parse failure,
// ill-formed protocol) fails the whole comparison; runs stopped by MaxOps
// or by the context return partial results flagged Truncated.
func Compare(ctx context.Context, r io.Reader, protos []*fsm.Protocol, opts Options) (*CompareResult, error) {
	opts = opts.withDefaults()
	if len(protos) == 0 {
		return nil, fmt.Errorf("replay: compare needs at least one protocol")
	}
	sc, err := NewScanner(r, ScanOptions{BlockSize: opts.BlockSize, MaxBlocks: opts.MaxBlocks})
	if err != nil {
		return nil, err
	}
	meta := sc.Meta()

	type lane struct {
		ch  chan *sharedBatch
		rep *replayer
		m   *sim.Machine
		res *Result
		err error
		// stopped: this lane hit MaxOps or saw the context stop; it
		// keeps draining (and releasing) batches without applying them.
		stopped bool
	}
	lanes := make([]*lane, len(protos))
	for i, p := range protos {
		rep := newReplayer(p, meta, opts)
		m, err := rep.machine()
		if err != nil {
			return nil, err
		}
		lanes[i] = &lane{ch: make(chan *sharedBatch, 4), rep: rep, m: m}
	}

	var wg sync.WaitGroup
	for _, ln := range lanes {
		wg.Add(1)
		go func(ln *lane) {
			defer wg.Done()
			for b := range ln.ch {
				if !ln.stopped && ln.err == nil {
					stop, aerr := ln.rep.apply(ctx, ln.m, b.refs)
					if aerr != nil {
						ln.err = aerr
					} else if stop {
						ln.stopped = true
					}
				}
				b.release()
			}
		}(ln)
	}

	var scanErr error
	for {
		buf := refPool.Get().([]trace.Ref)
		n, serr := sc.NextBatch(buf)
		if n > 0 {
			b := &sharedBatch{refs: buf[:n]}
			b.left.Store(int32(len(lanes)))
			for _, ln := range lanes {
				ln.ch <- b
			}
		} else {
			refPool.Put(buf)
		}
		if serr != nil {
			if serr != io.EOF {
				scanErr = serr
			}
			break
		}
	}
	for _, ln := range lanes {
		close(ln.ch)
	}
	wg.Wait()
	if scanErr != nil {
		return nil, scanErr
	}
	for _, ln := range lanes {
		if ln.err != nil {
			return nil, fmt.Errorf("replay: %s: %w", ln.rep.p.Name, ln.err)
		}
	}
	out := &CompareResult{TraceDigest: sc.Digest(), Meta: meta}
	for _, ln := range lanes {
		res := ln.rep.finish(ln.m, sc, ln.stopped)
		res.TraceDigest = out.TraceDigest
		out.Results = append(out.Results, res)
	}
	return out, nil
}
