package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/enum"
	"repro/internal/fsm"
	"repro/internal/runctl"
	"repro/internal/symbolic"
)

// Engine names: the symbolic expansion of Figure 3, and the explicit-state
// search under strict (Figure 2) or counting (Definition 5) equivalence.
const (
	EngineSymbolic     = "symbolic"
	EngineEnumStrict   = "enum-strict"
	EngineEnumCounting = "enum-counting"
)

// Typed failures of Run; match with errors.Is.
var (
	// ErrSpec: the symbolic engine cannot be built for the protocol, or
	// the run hit a scenario its rules do not cover (Result.SpecErrors).
	ErrSpec = errors.New("specification error")
	// ErrResume: Job.Resume does not decode, or was written by another
	// engine, cache count or protocol than the job's.
	ErrResume = errors.New("core: checkpoint cannot resume this job")
)

// Job is one engine run.
type Job struct {
	Engine string // EngineSymbolic, EngineEnumStrict or EngineEnumCounting
	N      int    // the enumeration's cache count (symbolic: ignored)
	Strict bool   // the CleanShared memory-consistency extension check
	// MaxStates is the state cap: the enumeration's distinct states or
	// the expansion's visits (0: the engine default).
	MaxStates int
	runctl.RunConfig
	// RecordLog and StopOnViolation are the symbolic expansion's.
	RecordLog, StopOnViolation bool
	// Resume, when non-nil, is an encoded checkpoint to continue.
	Resume []byte
	// Snapshot receives each periodic snapshot RunConfig.CheckpointEvery
	// asks for, encoded; a non-nil return aborts the run with that error.
	Snapshot func([]byte) error
}

// Outcome is what a run produced: exactly one of Enum and Symbolic is set,
// and Engine is the symbolic run's engine (for the global diagram).
type Outcome struct {
	Enum     *enum.Result
	Symbolic *symbolic.Result
	Engine   *symbolic.Engine
	// Essential counts the distinct (enumeration) or essential (symbolic)
	// states; Visits is the engine's state-visit counter.
	Essential, Visits int
	Resumed           bool // the run continued Job.Resume
}

// Checkpoint encodes the snapshot a stopped run took
// (RunConfig.CheckpointOnStop); it returns nil when the run took none.
func (o *Outcome) Checkpoint() ([]byte, error) {
	switch {
	case o.Enum != nil && o.Enum.Checkpoint != nil:
		return o.Enum.Checkpoint.Encode()
	case o.Symbolic != nil && o.Symbolic.Checkpoint != nil:
		return o.Symbolic.Checkpoint.Encode()
	}
	return nil, nil
}

// CheckpointHead names the run an encoded checkpoint continues.
type CheckpointHead struct {
	Engine   string
	N        int // the enumeration's cache count (symbolic: 0)
	Protocol string
}

// ReadCheckpointHead reads the engine, cache count and protocol of an
// encoded checkpoint; only enumeration checkpoints record a mode. Both
// encoders write these scalar fields before any list, so the read stops at
// the first array or object instead of scanning a payload that can run to
// megabytes.
func ReadCheckpointHead(data []byte) (CheckpointHead, error) {
	h, mode := CheckpointHead{Engine: EngineSymbolic}, ""
	dec := json.NewDecoder(bytes.NewReader(data))
	tok, err := dec.Token()
	if err == nil && tok != json.Delim('{') {
		err = errors.New("not a JSON object")
	}
	for err == nil && dec.More() {
		var key, val json.Token
		if key, err = dec.Token(); err == nil {
			val, err = dec.Token()
		}
		if _, composite := val.(json.Delim); composite {
			break
		}
		switch key {
		case "protocol":
			h.Protocol, _ = val.(string)
		case "mode":
			mode, _ = val.(string)
		case "n":
			n, _ := val.(float64)
			h.N = int(n)
		}
	}
	if err != nil {
		return CheckpointHead{}, fmt.Errorf("%w: %w", ErrResume, err)
	}
	if mode != "" {
		h.Engine = "enum-" + mode
	}
	return h, nil
}

// Run runs one engine on p, fresh or from Job.Resume, under one error
// policy for every caller:
//
//   - a run stopped early (context, memory budget, state cap) returns its
//     partial Outcome with an error matching the runctl sentinel;
//   - a completed run with specification errors returns its Outcome with
//     an error matching ErrSpec;
//   - a protocol the symbolic engine cannot take (ErrSpec), a Resume
//     payload that does not fit the job (ErrResume), an invalid protocol
//     or a failing Snapshot sink returns a nil Outcome.
func Run(ctx context.Context, p *fsm.Protocol, job Job) (*Outcome, error) {
	want := CheckpointHead{job.Engine, job.N, p.Name}
	switch job.Engine {
	case EngineSymbolic:
		want.N = 0
	case EngineEnumStrict, EngineEnumCounting:
	default:
		return nil, fmt.Errorf("core: unknown engine %q", job.Engine)
	}
	if job.Resume != nil {
		head, err := ReadCheckpointHead(job.Resume)
		if err != nil {
			return nil, err
		}
		if head != want {
			return nil, fmt.Errorf("%w: it is from %+v, the job is %+v", ErrResume, head, want)
		}
	}
	out := &Outcome{Resumed: job.Resume != nil}
	if job.Engine == EngineSymbolic {
		res, err := runSymbolic(ctx, p, job, out)
		if err != nil {
			return nil, err
		}
		out.Symbolic, out.Essential, out.Visits = res, len(res.Essential), res.Visits
		return out, runErr("expansion", res.Truncated, res.StopReason, res.SpecErrors)
	}
	res, err := runEnum(ctx, p, job)
	if err != nil {
		return nil, err
	}
	out.Enum, out.Essential, out.Visits = res, res.Unique, res.Visits
	return out, runErr("enumeration", res.Truncated, res.StopReason, res.SpecErrors)
}

// runErr is Run's error for a run that returned a result: its stop reason,
// else its first specification error.
func runErr(what string, truncated bool, stop error, specErrs []error) error {
	switch {
	case truncated:
		return fmt.Errorf("%s stopped: %w", what, stop)
	case len(specErrs) > 0:
		return fmt.Errorf("%w: %v", ErrSpec, specErrs[0])
	}
	return nil
}

// runSymbolic builds the symbolic engine into out and expands, or resumes
// the expansion.
func runSymbolic(ctx context.Context, p *fsm.Protocol, job Job, out *Outcome) (*symbolic.Result, error) {
	eng, err := symbolic.NewEngine(p)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrSpec, err)
	}
	out.Engine = eng
	opts := symbolic.Options{RunConfig: job.RunConfig, MaxVisits: job.MaxStates, Strict: job.Strict,
		RecordLog: job.RecordLog, StopOnViolation: job.StopOnViolation}
	if job.Snapshot != nil {
		opts.OnCheckpoint = func(cp *symbolic.Checkpoint) error { return snapshot(cp, job.Snapshot) }
	}
	if job.Resume == nil {
		return eng.ExpandContext(ctx, opts)
	}
	cp, err := symbolic.DecodeCheckpoint(job.Resume)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrResume, err)
	}
	return eng.ResumeContext(ctx, cp, opts)
}

// runEnum enumerates, or resumes the enumeration.
func runEnum(ctx context.Context, p *fsm.Protocol, job Job) (*enum.Result, error) {
	opts := enum.Options{RunConfig: job.RunConfig, MaxStates: job.MaxStates, Strict: job.Strict}
	if job.Snapshot != nil {
		opts.OnCheckpoint = func(cp *enum.Checkpoint) error { return snapshot(cp, job.Snapshot) }
	}
	switch {
	case job.Resume != nil:
		cp, err := enum.DecodeCheckpoint(job.Resume)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrResume, err)
		}
		return enum.ResumeContext(ctx, p, cp, opts)
	case job.Engine == EngineEnumCounting:
		return enum.CountingContext(ctx, p, job.N, opts)
	default:
		return enum.ExhaustiveContext(ctx, p, job.N, opts)
	}
}

// snapshot encodes a periodic checkpoint into the job's sink.
func snapshot(cp interface{ Encode() ([]byte, error) }, sink func([]byte) error) error {
	data, err := cp.Encode()
	if err != nil {
		return err
	}
	return sink(data)
}
