package runctl

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

func TestFromContext(t *testing.T) {
	if err := FromContext(context.Background()); err != nil {
		t.Fatalf("live context: %v", err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := FromContext(canceled); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled context -> %v, want ErrCanceled", err)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if err := FromContext(expired); !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired context -> %v, want ErrDeadline", err)
	}
}

func TestBudgetChecks(t *testing.T) {
	if err := (Budget{}).CheckMem(1 << 40); err != nil {
		t.Fatalf("zero budget must be unlimited, got %v", err)
	}
	m := Budget{MaxBytes: 100}
	if err := m.CheckMem(99); err != nil {
		t.Fatalf("under mem budget: %v", err)
	}
	if err := m.CheckMem(100); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("at mem budget -> %v, want ErrMemBudget", err)
	}
}

func TestIsStop(t *testing.T) {
	for _, err := range []error{ErrCanceled, ErrDeadline, ErrStateBudget, ErrMemBudget} {
		if !IsStop(err) {
			t.Errorf("IsStop(%v) = false", err)
		}
	}
	if IsStop(errors.New("other")) || IsStop(nil) {
		t.Error("IsStop must reject non-stop errors")
	}
}

// TestWidth pins the explicit-width fallback chain: the argument, then
// RunConfig.Workers, then GOMAXPROCS.
func TestWidth(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ workers, config, want int }{
		{3, 5, 3},
		{0, 5, 5},
		{-1, 5, 5},
		{0, 0, procs},
		{-2, -1, procs},
	} {
		if got := (RunConfig{Workers: tc.config}).Width(tc.workers); got != tc.want {
			t.Errorf("Width(%d) with Workers %d = %d, want %d", tc.workers, tc.config, got, tc.want)
		}
	}
}
