// Package runctl is the run-control layer shared by every long-running
// engine of the verifier: the explicit-state enumerators (internal/enum),
// the symbolic expansion (internal/symbolic), the verification pipeline
// (internal/core) and the simulator (internal/sim).
//
// The state spaces explored by the paper's algorithms grow as mⁿ
// (Section 3.1), so a run's cost is unknown a priori. Production model
// checking treats resource exhaustion as an expected, reportable outcome
// rather than a crash: a stopped engine returns its partial results
// tagged with one of the sentinel stop reasons below, which callers
// classify with errors.Is.
//
// Each bound has one knob:
//
//   - time: the run's context (its deadline or cancellation);
//   - memory: Budget.MaxBytes, an estimate computed from configuration
//     sizes;
//   - states: the engine's own exact cap (enum.Options.MaxStates,
//     symbolic.Options.MaxVisits, replay.Options.MaxOps).
//
// The context and the memory budget are checked at a clean boundary (one
// BFS level, one symbolic worklist item), so those stops can carry a
// resumable checkpoint. The enumeration and symbolic state caps fire
// mid-step, stop with ErrStateBudget and never carry one. Replay's MaxOps
// is a request, not an exhaustion: the run it cuts is truncated with no
// stop reason.
package runctl

import (
	"context"
	"errors"
)

// Sentinel stop reasons. Engine results wrap exactly one of these when a
// run is stopped early; match with errors.Is.
var (
	// ErrCanceled: the run's context was canceled.
	ErrCanceled = errors.New("run canceled")
	// ErrDeadline: the context deadline expired.
	ErrDeadline = errors.New("run deadline exceeded")
	// ErrStateBudget: an engine's state (or visit) cap was exhausted.
	ErrStateBudget = errors.New("state budget exhausted")
	// ErrMemBudget: the estimated worklist memory budget was exhausted.
	ErrMemBudget = errors.New("memory budget exhausted")
)

// IsStop reports whether err is one of the run-control stop reasons.
func IsStop(err error) bool {
	return errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadline) ||
		errors.Is(err, ErrStateBudget) || errors.Is(err, ErrMemBudget)
}

// Budget bounds a run's estimated memory. The zero value is unlimited.
// It is the one bound shared by every engine: time is bounded by the run's
// context alone, and states by each engine's own exact cap
// (enum.Options.MaxStates, symbolic.Options.MaxVisits,
// replay.Options.MaxOps).
type Budget struct {
	// MaxBytes bounds the estimated number of bytes held by the run's
	// worklist and visited structures (0: unlimited). The estimate is
	// computed from configuration sizes, not measured from the allocator,
	// so it is deterministic across runs.
	MaxBytes int64
}

// FromContext classifies ctx.Err() as a stop reason: nil when the context
// is live, ErrCanceled or ErrDeadline otherwise.
func FromContext(ctx context.Context) error {
	switch ctx.Err() {
	case nil:
		return nil
	case context.DeadlineExceeded:
		return ErrDeadline
	default:
		return ErrCanceled
	}
}

// CheckMem returns ErrMemBudget when the estimated bytes meet or exceed
// MaxBytes.
func (b Budget) CheckMem(bytes int64) error {
	if b.MaxBytes > 0 && bytes >= b.MaxBytes {
		return ErrMemBudget
	}
	return nil
}
