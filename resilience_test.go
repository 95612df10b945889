package repro_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro"
)

// TestVerifyContextDeadline is the facade-level acceptance check for run
// control: an expired context must yield the partial report together with a
// structured stop reason.
func TestVerifyContextDeadline(t *testing.T) {
	p, err := repro.ProtocolByName("illinois")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rep, err := repro.VerifyContext(ctx, p, repro.VerifyOptions{})
	if !errors.Is(err, repro.ErrDeadline) {
		t.Fatalf("err = %v, want errors.Is(err, repro.ErrDeadline)", err)
	}
	if rep == nil || rep.Symbolic == nil {
		t.Fatal("stopped run must still return the partial report")
	}
	if !rep.Symbolic.Truncated || !errors.Is(rep.Symbolic.StopReason, repro.ErrDeadline) {
		t.Fatalf("partial report truncated=%v stop=%v", rep.Symbolic.Truncated, rep.Symbolic.StopReason)
	}
	if !repro.IsStop(err) {
		t.Fatal("IsStop must classify the deadline error")
	}
}

func TestVerifyContextBudgetAndResume(t *testing.T) {
	p, err := repro.ProtocolByName("illinois")
	if err != nil {
		t.Fatal(err)
	}
	full, err := repro.Verify(p, repro.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Stop at the worklist boundary after the third item: the memory
	// estimate an unbounded run reported there is the budget.
	var est []int64
	if _, err := repro.Verify(p, repro.VerifyOptions{Observer: repro.ObserverFuncs{
		Level: func(ls repro.LevelStats) { est = append(est, ls.EstBytes) },
	}}); err != nil {
		t.Fatal(err)
	}
	partial, err := repro.VerifyContext(context.Background(), p, repro.VerifyOptions{
		Budget:           repro.Budget{MaxBytes: est[2]},
		CheckpointOnStop: true,
	})
	if !errors.Is(err, repro.ErrMemBudget) {
		t.Fatalf("err = %v, want ErrMemBudget", err)
	}
	cp := partial.Symbolic.Checkpoint
	if cp == nil {
		t.Fatal("budget stop must carry a checkpoint")
	}

	data, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := repro.VerifyContext(context.Background(), p, repro.VerifyOptions{Resume: data})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Symbolic.Visits != full.Symbolic.Visits ||
		len(resumed.Symbolic.Essential) != len(full.Symbolic.Essential) {
		t.Fatalf("resumed run: %d visits / %d essential, want %d / %d",
			resumed.Symbolic.Visits, len(resumed.Symbolic.Essential),
			full.Symbolic.Visits, len(full.Symbolic.Essential))
	}
	if !resumed.OK() {
		t.Fatal("resumed Illinois verification must pass")
	}
}

func TestVerifyContextCanceledCrossCheck(t *testing.T) {
	p, err := repro.ProtocolByName("illinois")
	if err != nil {
		t.Fatal(err)
	}
	// A deadline far in the future must not disturb a normal run.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
	defer cancel()
	rep, err := repro.VerifyContext(ctx, p, repro.VerifyOptions{CrossCheckN: []int{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatal("illinois must verify cleanly under a generous budget")
	}
}
