package enum

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/ckptio"
	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/runctl"
)

// sameCounts asserts the count triple that defines observational equality of
// two enumeration runs.
func sameCounts(t *testing.T, got, want *Result, label string) {
	t.Helper()
	if got.Unique != want.Unique || got.Visits != want.Visits || got.TupleStates != want.TupleStates {
		t.Fatalf("%s: unique/visits/tuples = %d/%d/%d, want %d/%d/%d", label,
			got.Unique, got.Visits, got.TupleStates,
			want.Unique, want.Visits, want.TupleStates)
	}
	if len(got.Violations) != len(want.Violations) {
		t.Fatalf("%s: %d violations, want %d", label, len(got.Violations), len(want.Violations))
	}
}

func TestSequentialCancelReturnsPartialResult(t *testing.T) {
	p := protocols.Illinois()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	testLevelHook = func(level int) {
		if level == 2 {
			cancel()
		}
	}
	defer func() { testLevelHook = nil }()

	res, err := ExhaustiveContext(ctx, p, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("canceled run must be Truncated")
	}
	if !errors.Is(res.StopReason, runctl.ErrCanceled) {
		t.Fatalf("StopReason = %v, want ErrCanceled", res.StopReason)
	}
	full, err := Exhaustive(p, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unique <= 0 || res.Unique >= full.Unique {
		t.Fatalf("partial Unique = %d, want in (0, %d)", res.Unique, full.Unique)
	}
}

func TestSequentialDeadlineStop(t *testing.T) {
	p := protocols.Illinois()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := ExhaustiveContext(ctx, p, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || !errors.Is(res.StopReason, runctl.ErrDeadline) {
		t.Fatalf("truncated=%v stop=%v, want truncated with ErrDeadline", res.Truncated, res.StopReason)
	}
}

// TestBudgetDeadlineStop: a wide run stops on an expired context deadline
// at its first level boundary, as the one-worker run does.
func TestBudgetDeadlineStop(t *testing.T) {
	p := protocols.Illinois()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Minute))
	defer cancel()
	res, err := ExhaustiveContext(ctx, p, 3, Options{RunConfig: runctl.RunConfig{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || !errors.Is(res.StopReason, runctl.ErrDeadline) {
		t.Fatalf("truncated=%v stop=%v, want truncated with ErrDeadline", res.Truncated, res.StopReason)
	}
}

func TestMemBudgetStop(t *testing.T) {
	p := protocols.Illinois()
	res, err := Exhaustive(p, 5, Options{RunConfig: runctl.RunConfig{
		Budget: runctl.Budget{MaxBytes: 4096},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || !errors.Is(res.StopReason, runctl.ErrMemBudget) {
		t.Fatalf("truncated=%v stop=%v, want truncated with ErrMemBudget", res.Truncated, res.StopReason)
	}
	full, err := Exhaustive(p, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unique >= full.Unique {
		t.Fatalf("mem-budgeted run explored %d states, full run %d", res.Unique, full.Unique)
	}
}

func TestBudgetMaxStatesSetsStopReason(t *testing.T) {
	p := protocols.Illinois()
	res, err := Exhaustive(p, 6, Options{MaxStates: 10, RunConfig: runctl.RunConfig{CheckpointOnStop: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || !errors.Is(res.StopReason, runctl.ErrStateBudget) {
		t.Fatalf("truncated=%v stop=%v, want truncated with ErrStateBudget", res.Truncated, res.StopReason)
	}
	if res.Unique > 10 {
		t.Fatalf("state budget exceeded: %d > 10", res.Unique)
	}
	if res.Checkpoint != nil {
		t.Fatal("exact state-cap stop must not carry a checkpoint")
	}
}

// TestParallelCancelMidLevel cancels the BFS at a level boundary and
// asserts the partial result is prefix-consistent: it contains whole levels
// only, so the counts are deterministic and identical across widths.
func TestParallelCancelMidLevel(t *testing.T) {
	p := protocols.Illinois()
	const cancelLevel = 2
	runCanceled := func(workers int) *Result {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		testLevelHook = func(level int) {
			if level == cancelLevel {
				cancel()
			}
		}
		defer func() { testLevelHook = nil }()
		res, err := ExhaustiveContext(ctx, p, 5, Options{RunConfig: runctl.RunConfig{Workers: workers}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	one := runCanceled(1)
	four := runCanceled(4)
	if !one.Truncated || !errors.Is(one.StopReason, runctl.ErrCanceled) {
		t.Fatalf("truncated=%v stop=%v, want truncated with ErrCanceled", one.Truncated, one.StopReason)
	}
	// No half-merged level: the same levels were merged regardless of the
	// worker count, so the partial counts agree exactly.
	sameCounts(t, four, one, "workers=4 vs workers=1")

	full, err := Exhaustive(p, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if one.Unique <= 1 || one.Unique >= full.Unique {
		t.Fatalf("partial Unique = %d, want in (1, %d)", one.Unique, full.Unique)
	}
}

// TestWorkerPanicRecovered injects a panic into one of four workers and
// asserts the run degrades gracefully: the panic is reported as a structured
// WorkerError and the results stay bit-for-bit identical to an undisturbed
// run.
func TestWorkerPanicRecovered(t *testing.T) {
	p := protocols.Illinois()
	testWorkerHook = func(level, worker int) {
		if level == 2 && worker == 0 {
			panic("injected fault")
		}
	}
	defer func() { testWorkerHook = nil }()

	par, err := Exhaustive(p, 4, Options{RunConfig: runctl.RunConfig{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Exhaustive(p, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}

	if len(par.WorkerErrors) == 0 {
		t.Fatal("injected panic was not recorded as a WorkerError")
	}
	we := par.WorkerErrors[0]
	if we.Level != 2 || we.Worker != 0 {
		t.Fatalf("WorkerError at level %d worker %d, want 2/0", we.Level, we.Worker)
	}
	if we.Value != "injected fault" || we.Stack == "" {
		t.Fatalf("WorkerError value %q stack %d bytes", we.Value, len(we.Stack))
	}
	if len(par.SpecErrors) != 0 {
		t.Fatalf("the retry must absorb the panic, got SpecErrors %v", par.SpecErrors)
	}

	sameCounts(t, par, seq, "panicked vs undisturbed")
	if par.Truncated {
		t.Fatal("recovered run must not be Truncated")
	}
	// Bit-for-bit: same distinct states in both runs.
	keys := func(r *Result) map[string]bool {
		m := make(map[string]bool, r.Unique)
		for _, c := range reachable(t, r) {
			m[c.Key()] = true
		}
		return m
	}
	if !reflect.DeepEqual(keys(par), keys(seq)) {
		t.Fatal("recovered run reached a different state set than an undisturbed one")
	}
}

// TestWorkerPanicEveryLevel stresses the recovery path: a worker panics on
// every level and the run still completes with undisturbed counts.
func TestWorkerPanicEveryLevel(t *testing.T) {
	p := protocols.Illinois()
	testWorkerHook = func(level, worker int) {
		if worker == 1 {
			panic(fmt.Sprintf("fault at level %d", level))
		}
	}
	defer func() { testWorkerHook = nil }()

	par, err := Exhaustive(p, 3, Options{RunConfig: runctl.RunConfig{Workers: 3}})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Exhaustive(p, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameCounts(t, par, seq, "repeated panics vs undisturbed")
	if len(par.WorkerErrors) == 0 || len(par.SpecErrors) != 0 {
		t.Fatalf("worker errors %d, spec errors %v", len(par.WorkerErrors), par.SpecErrors)
	}
}

// TestCheckpointResumeSequential interrupts a one-worker run, resumes it
// from the checkpoint, and asserts the final counts match an uninterrupted
// run exactly.
func TestCheckpointResumeSequential(t *testing.T) {
	p := protocols.Illinois()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	testLevelHook = func(level int) {
		if level == 3 {
			cancel()
		}
	}
	partial, err := ExhaustiveContext(ctx, p, 4, Options{RunConfig: runctl.RunConfig{CheckpointOnStop: true}})
	testLevelHook = nil
	if err != nil {
		t.Fatal(err)
	}
	if partial.Checkpoint == nil {
		t.Fatal("CheckpointOnStop run carries no checkpoint")
	}

	resumed, err := ResumeContext(context.Background(), p, partial.Checkpoint, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Truncated {
		t.Fatal("resumed run must complete")
	}
	full, err := Exhaustive(p, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameCounts(t, resumed, full, "resumed vs uninterrupted")
}

// TestResumeRebuildsReachable resumes stop checkpoints: every built-in
// protocol, in both modes, must reach the golden line of an uninterrupted
// run, whose digest covers the replayed reachable set in admission order
// with each state's cache order (the counting-mode representative). Every
// resume replays the checkpoint's provenance, so one that disagrees with
// the visited list or the frontier is refused.
func TestResumeRebuildsReachable(t *testing.T) {
	ctx := context.Background()
	for _, p := range protocols.All() {
		for _, mode := range []string{ModeStrict, ModeCounting} {
			stopCtx, cancel := context.WithCancel(ctx)
			testLevelHook = func(level int) {
				if level == 2 {
					cancel()
				}
			}
			partial, err := enumerate(stopCtx, p, 3, Options{RunConfig: runctl.RunConfig{CheckpointOnStop: true}}, mode, 1)
			testLevelHook = nil
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			if partial.Checkpoint == nil {
				t.Fatalf("%s %s: want a stop checkpoint", p.Name, mode)
			}
			full, err := enumerate(ctx, p, 3, Options{}, mode, 1)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := ResumeContext(ctx, p, partial.Checkpoint, Options{})
			if err != nil {
				t.Fatalf("%s %s: %v", p.Name, mode, err)
			}
			if got, want := goldenLine(p, mode, resumed), goldenLine(p, mode, full); got != want {
				t.Errorf("%s %s: resumed\n  got:  %s\n  want: %s", p.Name, mode, got, want)
			}
		}
	}

	p := protocols.Illinois()
	ckCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	testLevelHook = func(level int) {
		if level == 2 {
			cancel()
		}
	}
	partial, err := ExhaustiveContext(ckCtx, p, 4, Options{RunConfig: runctl.RunConfig{CheckpointOnStop: true}})
	testLevelHook = nil
	if err != nil || partial.Checkpoint == nil {
		t.Fatalf("no stop checkpoint: %v", err)
	}
	cp := *partial.Checkpoint
	cp.Visited = append([]string(nil), cp.Visited...)
	cp.Visited[1], cp.Visited[2] = cp.Visited[2], cp.Visited[1]
	if _, err := ResumeContext(ctx, p, &cp, Options{}); err == nil || !strings.Contains(err.Error(), "provenance 1") {
		t.Errorf("swapped visited ranks: err %v, want a provenance mismatch at rank 1", err)
	}
	cp = *partial.Checkpoint
	cp.Frontier = append([]ConfigState(nil), cp.Frontier...)
	cp.Frontier[0], cp.Frontier[1] = cp.Frontier[1], cp.Frontier[0]
	if _, err := ResumeContext(ctx, p, &cp, Options{}); err == nil || !strings.Contains(err.Error(), "frontier state 1 is not reached") {
		t.Errorf("swapped frontier states: err %v, want frontier state 1 out of admission order", err)
	}

	// A counting checkpoint's frontier state in another cache order has
	// the same key, but is not the representative its provenance reaches.
	ckCtx, cancel = context.WithCancel(ctx)
	defer cancel()
	testLevelHook = func(level int) {
		if level == 2 {
			cancel()
		}
	}
	partial, err = CountingContext(ckCtx, p, 4, Options{RunConfig: runctl.RunConfig{CheckpointOnStop: true}})
	testLevelHook = nil
	if err != nil || partial.Checkpoint == nil {
		t.Fatalf("no stop checkpoint: %v", err)
	}
	cp = *partial.Checkpoint
	cp.Frontier = append([]ConfigState(nil), cp.Frontier...)
	for i, cs := range cp.Frontier {
		if cs.States[0] == cs.States[len(cs.States)-1] {
			continue
		}
		cs.States = append([]string(nil), cs.States...)
		cs.Versions = append([]int64(nil), cs.Versions...)
		slices.Reverse(cs.States)
		slices.Reverse(cs.Versions)
		cp.Frontier[i] = cs
		want := fmt.Sprintf("frontier state %d is not reached", i)
		if _, err := ResumeContext(ctx, p, &cp, Options{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("reordered frontier state: err %v, want %q", err, want)
		}
		return
	}
	t.Fatal("no frontier state with two distinct caches at its ends")
}

// TestCheckpointResumeParallel interrupts a four-worker run at a level
// boundary and resumes it at one and at three workers; each must reach the
// uninterrupted counts.
func TestCheckpointResumeParallel(t *testing.T) {
	p := protocols.MOESI()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	testLevelHook = func(level int) {
		if level == 2 {
			cancel()
		}
	}
	partial, err := CountingContext(ctx, p, 4, Options{RunConfig: runctl.RunConfig{CheckpointOnStop: true, Workers: 4}})
	testLevelHook = nil
	if err != nil {
		t.Fatal(err)
	}
	if partial.Checkpoint == nil {
		t.Fatal("no checkpoint on stop")
	}
	if partial.Checkpoint.Mode != ModeCounting {
		t.Fatalf("checkpoint mode %q, want counting", partial.Checkpoint.Mode)
	}

	full, err := Counting(p, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seqRes, err := ResumeContext(context.Background(), p, partial.Checkpoint, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameCounts(t, seqRes, full, "four-worker checkpoint resumed at one worker")
	parRes, err := ResumeContext(context.Background(), p, partial.Checkpoint, Options{RunConfig: runctl.RunConfig{Workers: 3}})
	if err != nil {
		t.Fatal(err)
	}
	sameCounts(t, parRes, full, "four-worker checkpoint resumed at three workers")
}

// TestPeriodicCheckpointResume drives the OnCheckpoint hook and resumes
// from the last periodic snapshot.
func TestPeriodicCheckpointResume(t *testing.T) {
	p := protocols.Illinois()
	var last *Checkpoint
	count := 0
	res, err := Exhaustive(p, 3, Options{
		RunConfig: runctl.RunConfig{CheckpointEvery: 5},
		OnCheckpoint: func(cp *Checkpoint) error {
			last = cp
			count++
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 || last == nil {
		t.Fatal("periodic checkpoints never fired")
	}
	resumed, err := ResumeContext(context.Background(), p, last, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameCounts(t, resumed, res, "resume from periodic checkpoint")
}

func TestOnCheckpointErrorAborts(t *testing.T) {
	p := protocols.Illinois()
	boom := errors.New("sink failed")
	_, err := Exhaustive(p, 3, Options{
		RunConfig:    runctl.RunConfig{CheckpointEvery: 1},
		OnCheckpoint: func(*Checkpoint) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the sink error", err)
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	p := protocols.Illinois()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	testLevelHook = func(level int) {
		if level == 2 {
			cancel()
		}
	}
	partial, err := ExhaustiveContext(ctx, p, 3, Options{RunConfig: runctl.RunConfig{CheckpointOnStop: true}})
	testLevelHook = nil
	if err != nil {
		t.Fatal(err)
	}
	cp := partial.Checkpoint
	if cp == nil {
		t.Fatal("no checkpoint")
	}

	// The durable store around Encode/DecodeCheckpoint, as the CLI and the
	// campaign runner write and read checkpoints.
	store := &ckptio.Store{Path: filepath.Join(t.TempDir(), "run.ckpt"), Keep: 1}
	save := func(cp *Checkpoint) {
		t.Helper()
		data, err := cp.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Save(data); err != nil {
			t.Fatal(err)
		}
	}
	save(cp)
	data, _, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp, loaded) {
		t.Fatal("checkpoint did not survive the file round trip")
	}
	// Saving twice over the same path must succeed (atomic replace).
	save(loaded)
}

func TestResumeValidation(t *testing.T) {
	p := protocols.Illinois()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	testLevelHook = func(level int) {
		if level == 1 {
			cancel()
		}
	}
	partial, err := ExhaustiveContext(ctx, p, 3, Options{RunConfig: runctl.RunConfig{CheckpointOnStop: true}})
	testLevelHook = nil
	if err != nil {
		t.Fatal(err)
	}
	good := partial.Checkpoint

	cases := []struct {
		name   string
		mutate func(cp *Checkpoint)
	}{
		{"wrong version", func(cp *Checkpoint) { cp.Version = 99 }},
		{"wrong protocol", func(cp *Checkpoint) { cp.Protocol = "other" }},
		{"bad cache count", func(cp *Checkpoint) { cp.N = 0 }},
		{"unknown mode", func(cp *Checkpoint) { cp.Mode = "fancy" }},
		{"unknown state", func(cp *Checkpoint) { cp.Frontier[0].States[0] = "Bogus" }},
		{"torn config", func(cp *Checkpoint) { cp.Frontier[0].Versions = cp.Frontier[0].Versions[:1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := good.Encode()
			if err != nil {
				t.Fatal(err)
			}
			cp, err := DecodeCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(cp)
			if _, err := ResumeContext(context.Background(), p, cp, Options{}); err == nil {
				t.Fatal("corrupted checkpoint was accepted")
			}
		})
	}
}

func TestDecodeCheckpointRejectsGarbage(t *testing.T) {
	if _, err := DecodeCheckpoint([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := DecodeCheckpoint([]byte(`{"version": 42}`)); err == nil {
		t.Fatal("wrong version accepted")
	}
}

// TestResumeRejectsNonCanonical: every restored frontier, reachable and
// violation configuration must be a fixed point of Canonicalize. A stale
// version the data classes would rename (a memory version of 1 at Latest
// 0 classifies as obsolete) still finds its key in the visited list, so
// without the check a hand-edited bare-JSON checkpoint resumed to wrong
// counts. The error names the list and the index.
func TestResumeRejectsNonCanonical(t *testing.T) {
	dragon := protocols.Dragon()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	testLevelHook = func(level int) {
		if level == 1 {
			cancel()
		}
	}
	stopped, err := ExhaustiveContext(ctx, dragon, 4, Options{RunConfig: runctl.RunConfig{CheckpointOnStop: true}})
	testLevelHook = nil
	if err != nil || stopped.Checkpoint == nil {
		t.Fatalf("no stop checkpoint: %v", err)
	}
	broken := brokenIllinois()
	var withViolations *Checkpoint
	stop := errors.New("captured")
	_, err = Exhaustive(broken, 3, Options{
		RunConfig: runctl.RunConfig{CheckpointEvery: 1},
		OnCheckpoint: func(cp *Checkpoint) error {
			if len(cp.Violations) == 0 {
				return nil
			}
			withViolations = cp
			return stop
		},
	})
	if !errors.Is(err, stop) {
		t.Fatalf("no checkpoint with violations: %v", err)
	}

	cases := []struct {
		name string
		p    *fsm.Protocol
		base *Checkpoint
		// mutate edits the checkpoint and returns the list and index the
		// error must name.
		mutate func(cp *Checkpoint) string
	}{
		{"stale memory version", dragon, stopped.Checkpoint, func(cp *Checkpoint) string {
			for i := range cp.Frontier {
				if cp.Frontier[i].Mem == canonObsolete {
					cp.Frontier[i].Mem = 1 // still obsolete at Latest 0
					return fmt.Sprintf("frontier config %d", i)
				}
			}
			t.Fatal("no frontier state with an obsolete memory copy")
			return ""
		}},
		{"latest not zero", dragon, stopped.Checkpoint, func(cp *Checkpoint) string {
			cp.Frontier[1].Latest = 3
			return "frontier config 1"
		}},
		{"violation version", broken, withViolations, func(cp *Checkpoint) string {
			cp.Violations[0].Config.Versions[0] = 7
			return "violation config 0"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := tc.base.Encode()
			if err != nil {
				t.Fatal(err)
			}
			cp, err := DecodeCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}
			want := tc.mutate(cp)
			_, err = ResumeContext(context.Background(), tc.p, cp, Options{})
			if err == nil {
				t.Fatal("non-canonical checkpoint was accepted")
			}
			if !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "not canonical") {
				t.Fatalf("error %q does not name %q as not canonical", err, want)
			}
		})
	}
}
