package symbolic

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/randproto"
)

// expandAt runs the expansion of p with the given number of speculation
// workers.
func expandAt(p *fsm.Protocol, opts Options, workers int) (*Result, error) {
	opts.Workers = workers
	return ExpandContext(context.Background(), p, opts)
}

// symSignature flattens everything a symbolic Result asserts about the
// protocol: every counter, the Essential list in order, the violations
// with their witness paths, and the visit log when recorded. Two runs
// with equal signatures are observationally identical.
func symSignature(r *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "visits=%d expansions=%d superseded=%d contained=%d evicted=%d specErrs=%d estBytes=%d\n",
		r.Visits, r.Expansions, r.Superseded, r.Contained, r.Evicted, len(r.SpecErrors), r.EstBytes)
	for _, s := range r.Essential {
		sb.WriteString(s.Key())
		sb.WriteByte('\n')
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&sb, "viol %s:", v.State.Key())
		for _, d := range v.Violations {
			fmt.Fprintf(&sb, " [%d %s]", d.Kind, d.Detail)
		}
		for _, ps := range v.Path {
			fmt.Fprintf(&sb, " (%s -> %s)", ps.Label, ps.To.Key())
		}
		sb.WriteByte('\n')
	}
	for _, lr := range r.Log {
		fmt.Fprintf(&sb, "log %s %s %s %s %s\n", lr.From.Key(), lr.Label, lr.Rule, lr.To.Key(), lr.Outcome)
	}
	return sb.String()
}

// TestParallelExpandMatchesSequential pins the headline property of the
// speculation pipeline: over every bundled protocol and several worker
// counts, a speculating run must be bit-identical to a one-worker run,
// which expands every item inline — same essential states in the same
// order, same counters, same violations, witness paths and visit log.
func TestParallelExpandMatchesSequential(t *testing.T) {
	for _, p := range protocols.All() {
		opts := Options{Strict: true, RecordLog: true}
		seq, err := ExpandContext(context.Background(), p, opts)
		if err != nil {
			t.Fatalf("%s: sequential: %v", p.Name, err)
		}
		want := symSignature(seq)
		for _, workers := range []int{2, 4, 8} {
			par, err := expandAt(p, opts, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", p.Name, workers, err)
			}
			if len(par.WorkerErrors) != 0 {
				t.Fatalf("%s workers=%d: unexpected worker errors: %v", p.Name, workers, par.WorkerErrors[0])
			}
			if got := symSignature(par); got != want {
				t.Errorf("%s workers=%d: speculating expansion diverges from one worker\npar: %s\nseq: %s",
					p.Name, workers, got, want)
			}
		}
	}
}

// TestParallelExpandRandprotoSweep extends the parity property to random
// well-formed protocols, including ill-behaved ones whose expansions
// produce violations and spec errors, in both pruning variants.
func TestParallelExpandRandprotoSweep(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randproto.New(rng, 1+rng.Intn(4))
		for _, noContain := range []bool{false, true} {
			opts := Options{Strict: true, RecordLog: true, NoContainment: noContain}
			seq, err := ExpandContext(context.Background(), p, opts)
			if err != nil {
				t.Fatalf("seed %d: sequential: %v", seed, err)
			}
			par, err := expandAt(p, opts, 4)
			if err != nil {
				t.Fatalf("seed %d: parallel: %v", seed, err)
			}
			if got, want := symSignature(par), symSignature(seq); got != want {
				t.Errorf("seed %d noContainment=%t: parallel diverges\npar: %s\nseq: %s",
					seed, noContain, got, want)
			}
		}
	}
}

// TestParallelWorkerPanicRecovered injects a panic into the speculation
// worker expanding the second dispatched state: the run must survive,
// record the panic in WorkerErrors, and still produce results
// bit-identical to a one-worker run (the affected state is re-expanded
// inline).
func TestParallelWorkerPanicRecovered(t *testing.T) {
	p, err := protocols.Synthetic(4)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Strict: true, RecordLog: true}
	seq, err := ExpandContext(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}

	fired := false
	testWorkerHook = func(job, worker int) {
		if job == 1 && !fired {
			fired = true
			panic("injected speculation panic")
		}
	}
	defer func() { testWorkerHook = nil }()

	par, err := expandAt(p, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("the test hook never fired; the run dispatched fewer speculation jobs than expected")
	}
	if len(par.WorkerErrors) != 1 {
		t.Fatalf("want exactly one recorded worker panic, got %d", len(par.WorkerErrors))
	}
	we := par.WorkerErrors[0]
	if we.Job != 1 || !strings.Contains(we.Value, "injected speculation panic") {
		t.Fatalf("worker error misattributed: %+v", we)
	}
	if !strings.Contains(we.Error(), "panicked expanding speculation job 1") {
		t.Fatalf("unexpected error rendering: %v", we)
	}
	if got, want := symSignature(par), symSignature(seq); got != want {
		t.Fatalf("panic recovery changed the results\npar: %s\nseq: %s", got, want)
	}
}

// TestParallelResumeRoundTrip interrupts a one-worker run at a periodic
// checkpoint, resumes it with four speculation workers (and vice versa),
// and requires both to land on the uninterrupted run's results:
// checkpoints are width-portable in both directions.
func TestParallelResumeRoundTrip(t *testing.T) {
	p, err := protocols.Synthetic(4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	// Contained, Evicted and the log are documented as not preserved
	// across checkpoint/resume, so the round-trip comparison covers
	// everything else: the counters, the Essential list and violations.
	resumeSignature := func(r *Result) string {
		var sb strings.Builder
		fmt.Fprintf(&sb, "visits=%d expansions=%d superseded=%d specErrs=%d estBytes=%d\n",
			r.Visits, r.Expansions, r.Superseded, len(r.SpecErrors), r.EstBytes)
		for _, s := range r.Essential {
			sb.WriteString(s.Key())
			sb.WriteByte('\n')
		}
		for _, v := range r.Violations {
			fmt.Fprintf(&sb, "viol %s\n", v.State.Key())
		}
		return sb.String()
	}

	full, err := e.ExpandContext(context.Background(), Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	want := resumeSignature(full)

	capture := func(parallel bool) *Checkpoint {
		t.Helper()
		var cp *Checkpoint
		stop := fmt.Errorf("captured")
		opts := Options{Strict: true}
		opts.RunConfig.CheckpointEvery = 5
		opts.OnCheckpoint = func(c *Checkpoint) error {
			cp = c
			return stop
		}
		if parallel {
			opts.Workers = 4
		}
		if _, err := e.ExpandContext(context.Background(), opts); err != stop {
			t.Fatalf("interrupted run (parallel=%t) ended with %v, want the injected stop", parallel, err)
		}
		if cp == nil {
			t.Fatal("no checkpoint captured")
		}
		return cp
	}

	// One-worker checkpoint → four-worker resume.
	four := Options{}
	four.Workers = 4
	res, err := e.ResumeContext(context.Background(), capture(false), four)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumeSignature(res); got != want {
		t.Fatalf("four-worker resume of a one-worker checkpoint diverges\ngot: %s\nwant: %s", got, want)
	}

	// Four-worker checkpoint → one-worker resume.
	res, err = e.ResumeContext(context.Background(), capture(true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := resumeSignature(res); got != want {
		t.Fatalf("one-worker resume of a four-worker checkpoint diverges\ngot: %s\nwant: %s", got, want)
	}
}
