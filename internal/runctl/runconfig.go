package runctl

import (
	"runtime"

	"repro/internal/obs"
)

// RunConfig is the run-control and observability configuration shared by
// the enumeration and the symbolic expansion. enum.Options,
// symbolic.Options and core.Job embed it, so the memory/checkpoint/width
// knobs are declared once and read identically everywhere; the state cap
// and the deadline are not here (see the package doc):
//
//	ctx, cancel := context.WithTimeout(ctx, time.Minute)
//	defer cancel()
//	out, err := core.Run(ctx, p, core.Job{Engine: core.EngineEnumStrict, N: n,
//		MaxStates: 1 << 20, RunConfig: runctl.RunConfig{
//			Budget:  runctl.Budget{MaxBytes: 256 << 20},
//			Workers: 8,
//			Metrics: reg,
//		}})
//
// The zero value runs unbounded, one worker wide and unobserved.
type RunConfig struct {
	// Budget bounds the run's estimated bytes; the zero Budget is
	// unlimited.
	Budget Budget

	// CheckpointOnStop asks the engine to capture a resumable checkpoint in
	// its Result when the run stops at a boundary (memory budget, context).
	CheckpointOnStop bool

	// CheckpointEvery, when > 0, additionally snapshots the run every that
	// many expanded states (enum: at the first level boundary after them).
	// Callers of core.Run receive each snapshot encoded in core.Job.Snapshot;
	// the engines' own entry points hand it, typed, to
	// enum.Options.OnCheckpoint or symbolic.Options.OnCheckpoint.
	CheckpointEvery int

	// Workers is the width of every run: the enumeration's BFS workers per
	// level, or the symbolic expansion's speculation workers. ≤ 1 runs one
	// worker on the calling goroutine (symbolic: every item expanded
	// inline). Every width gives the same Result. The explicit-width
	// entry points (enum.ExhaustiveParallelContext,
	// symbolic.Engine.ExpandParallelContext) fall back to it when passed
	// workers ≤ 0, and to GOMAXPROCS when it is ≤ 0 too.
	Workers int

	// SpillDir, when set together with Budget.MaxBytes, lets every
	// enumeration, at any width, spill cold visited-set shards to
	// CRC-checked files under this directory once the estimated resident
	// bytes approach the budget, instead of stopping with ErrMemBudget.
	// Spilled entries are streamed back for deduplication at level
	// boundaries, so results stay bit-identical to an in-memory run. The
	// symbolic engine ignores it.
	SpillDir string

	// Observer receives phase/level/event callbacks during the run; nil
	// disables them with a single nil check (allocation-free fast path).
	Observer obs.Observer

	// Metrics, when non-nil, accumulates the run's counters, gauges and
	// per-phase timing histograms (see internal/obs for the name catalog).
	Metrics *obs.Registry
}

// Width resolves the width of an entry point that takes one explicitly:
// workers when positive, else Workers when positive, else GOMAXPROCS.
func (c RunConfig) Width(workers int) int {
	if workers <= 0 {
		workers = c.Workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return workers
}

// Sink bundles the config's observability outputs for obs.Sink.Run.
func (c RunConfig) Sink() obs.Sink {
	return obs.Sink{Observer: c.Observer, Metrics: c.Metrics}
}
