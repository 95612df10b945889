package campaign

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/enum"
	"repro/internal/mutate"
	"repro/internal/protocols"
)

// quietPolicy is the base test policy: no real sleeping, deterministic
// seed, durable checkpoints in a test-scoped directory.
func quietPolicy(t *testing.T) Policy {
	t.Helper()
	return Policy{
		Seed:            1993,
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 8,
		MaxAttempts:     4,
		sleep:           func(time.Duration) {},
	}
}

func mustRun(t *testing.T, spec Spec) *Report {
	t.Helper()
	rep, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCleanSweep: correct protocols verify clean on every engine, without
// degradation, and the essential-state counts match direct engine runs.
func TestCleanSweep(t *testing.T) {
	spec := Spec{
		Policy: quietPolicy(t),
		Jobs: []JobSpec{
			{Protocol: "illinois", Engine: EngineEnumStrict, N: 3},
			{Protocol: "illinois", Engine: EngineEnumCounting, N: 3},
			{Protocol: "illinois", Engine: EngineSymbolic},
		},
	}
	rep := mustRun(t, spec)
	if rep.Total.Clean != 3 || rep.Total.Jobs != 3 {
		t.Fatalf("totals = %+v, want 3 clean of 3", rep.Total)
	}
	p, err := protocols.ByName("illinois")
	if err != nil {
		t.Fatal(err)
	}
	want, err := enum.Exhaustive(p, 3, enum.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range rep.Jobs {
		if j.Degraded {
			t.Errorf("%s: degraded on a clean run", j.Name)
		}
		if j.Name == "illinois-enum-strict-n3" && j.Essential != want.Unique {
			t.Errorf("essential = %d, direct run says %d", j.Essential, want.Unique)
		}
	}
}

// TestChaosCrashAndCorruptionPreservesVerdicts is the PR's acceptance
// criterion: a campaign whose newest checkpoint is corrupted (and another
// whose newest is deleted) right before a simulated crash must still
// produce exactly the per-job verdicts, essential-state counts and visit
// counts of an undisturbed campaign — recovered through the store's
// generation fallback plus resume.
func TestChaosCrashAndCorruptionPreservesVerdicts(t *testing.T) {
	jobs := []JobSpec{{Protocol: "illinois", Engine: EngineEnumStrict, N: 4}}

	clean := mustRun(t, Spec{Policy: quietPolicy(t), Jobs: jobs})

	for _, kind := range []string{"corrupt", "delete"} {
		pol := quietPolicy(t)
		pol.Chaos = []ChaosOp{
			{Kind: kind, Job: "illinois-enum-strict-n4", AtSave: 2},
			{Kind: "kill", Job: "illinois-enum-strict-n4", AtSave: 2},
		}
		chaos := mustRun(t, Spec{Policy: pol, Jobs: jobs})

		var cb, xb bytes.Buffer
		if err := clean.WriteVerdictLines(&cb); err != nil {
			t.Fatal(err)
		}
		if err := chaos.WriteVerdictLines(&xb); err != nil {
			t.Fatal(err)
		}
		if cb.String() != xb.String() {
			t.Errorf("%s: verdict lines diverged\nclean:\n%s\nchaos:\n%s", kind, cb.String(), xb.String())
		}
		j := chaos.Jobs[0]
		if j.Resumes == 0 {
			t.Errorf("%s: chaos run never resumed from a snapshot", kind)
		}
		if kind == "corrupt" && j.RecoveredCorruption == 0 {
			t.Errorf("corrupt: store never reported a fallback recovery")
		}
		if len(j.Attempts) < 2 {
			t.Errorf("%s: expected a failed first attempt, got %+v", kind, j.Attempts)
		}
		if got := j.Attempts[0].Class; got != ClassTransient {
			t.Errorf("%s: injected crash classified %q, want %q", kind, got, ClassTransient)
		}
	}
}

// TestQuarantine: a permanently wedged job is quarantined after
// MaxAttempts with jittered, monotonically growing backoff, and does not
// prevent the rest of the fleet from finishing.
func TestQuarantine(t *testing.T) {
	pol := quietPolicy(t)
	pol.MaxAttempts = 3
	// Save after every expanded state so the wedge fires on every
	// attempt — otherwise the per-attempt progress of CheckpointEvery
	// states would let a short job outrun the injected fault.
	pol.CheckpointEvery = 1
	pol.Chaos = []ChaosOp{{Kind: "wedge", Job: "illinois-enum-strict-n4", AtSave: 1}}
	rep := mustRun(t, Spec{Policy: pol, Jobs: []JobSpec{
		{Protocol: "illinois", Engine: EngineEnumStrict, N: 4},
		{Protocol: "illinois", Engine: EngineSymbolic},
	}})
	if rep.Total.Quarantined != 1 || rep.Total.Clean != 1 {
		t.Fatalf("totals = %+v, want 1 quarantined + 1 clean", rep.Total)
	}
	var q *JobResult
	for _, j := range rep.Jobs {
		if j.Verdict == VerdictQuarantined {
			q = j
		}
	}
	if len(q.Attempts) != pol.MaxAttempts {
		t.Fatalf("quarantined after %d attempts, want %d", len(q.Attempts), pol.MaxAttempts)
	}
	var prev time.Duration
	for i, a := range q.Attempts {
		if a.Class != ClassTransient {
			t.Errorf("attempt %d class %q, want transient", i+1, a.Class)
		}
		if a.Backoff <= 0 {
			t.Errorf("attempt %d has no backoff", i+1)
		}
		if a.Backoff <= prev {
			// ×2 growth with ±20% jitter is strictly increasing.
			t.Errorf("backoff not growing: %v then %v", prev, a.Backoff)
		}
		prev = a.Backoff
	}
}

// TestDegradationLadder: a job whose state budget is too small for its
// cache count walks down the ladder (resume is pointless for the
// deterministic state cap) until a cheaper configuration fits, and the
// result records the degradation. The ladder has no width rung, so a wide
// policy reaches the same rung in the same two attempts as a one-worker
// one.
func TestDegradationLadder(t *testing.T) {
	p, err := protocols.ByName("illinois")
	if err != nil {
		t.Fatal(err)
	}
	at3, err := enum.Exhaustive(p, 3, enum.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		pol := quietPolicy(t)
		pol.MaxStates = at3.Unique + 1 // fits n=3, not n=4
		pol.MaxAttempts = 6
		pol.Workers = workers
		rep := mustRun(t, Spec{Policy: pol, Jobs: []JobSpec{
			{Protocol: "illinois", Engine: EngineEnumStrict, N: 4},
		}})
		j := rep.Jobs[0]
		if j.Verdict != VerdictClean {
			t.Fatalf("workers=%d: verdict = %s (%s), want clean; attempts: %+v", workers, j.Verdict, j.FailError, j.Attempts)
		}
		if !j.Degraded || j.FinalRung != "shrink-n3" {
			t.Fatalf("workers=%d: final rung = %q degraded=%v, want shrink-n3 after budget exhaustion", workers, j.FinalRung, j.Degraded)
		}
		if len(j.Attempts) != 2 || j.Attempts[0].RungDesc != "requested" {
			t.Fatalf("workers=%d: attempts %+v, want requested then shrink-n3", workers, j.Attempts)
		}
		if j.Essential != at3.Unique {
			t.Fatalf("workers=%d: degraded essential = %d, want n=3 count %d", workers, j.Essential, at3.Unique)
		}
		if got := j.Attempts[0].Class; got != ClassResource {
			t.Fatalf("workers=%d: budget exhaustion classified %q, want %q", workers, got, ClassResource)
		}
	}
}

// TestFaultInjectionWitnessesConfirmed is the fault-injection property:
// over the mutant catalogs of two protocols and both engine families,
// every mutant either verifies clean or yields a witness the independent
// concrete replay confirms. A plausible-but-wrong witness would fail the
// audit and this test.
func TestFaultInjectionWitnessesConfirmed(t *testing.T) {
	for _, proto := range []string{"illinois", "dragon"} {
		p, err := protocols.ByName(proto)
		if err != nil {
			t.Fatal(err)
		}
		var jobs []JobSpec
		for _, m := range mutate.Catalog(p) {
			jobs = append(jobs,
				JobSpec{
					Name:  JobName(m.Protocol.Name+"!"+m.Rule, EngineEnumStrict, 3),
					Proto: m.Protocol, Engine: EngineEnumStrict, N: 3,
				},
				JobSpec{
					Name:  JobName(m.Protocol.Name+"!"+m.Rule, EngineSymbolic, 0),
					Proto: m.Protocol, Engine: EngineSymbolic,
				})
		}
		pol := quietPolicy(t)
		pol.CheckpointDir = "" // tiny runs; no snapshots needed
		rep := mustRun(t, Spec{Policy: pol, Jobs: jobs})
		for _, j := range rep.Jobs {
			switch j.Verdict {
			case VerdictClean:
			case VerdictViolations:
				for _, w := range j.Violations {
					if !w.Confirmed {
						t.Errorf("%s: unconfirmed witness for %v at %s: %s",
							j.Name, w.Kinds, w.State, w.AuditNote)
					}
				}
			default:
				t.Errorf("%s: verdict %s (%s), want clean or violations",
					j.Name, j.Verdict, j.FailError)
			}
		}
		if !rep.Audited() {
			t.Errorf("%s: campaign audit failed: %+v", proto, rep.Audit)
		}
	}
}

// TestReportDeterministic: two runs of the same spec produce
// byte-identical reports — the foundation of the CI chaos diff.
func TestReportDeterministic(t *testing.T) {
	mkSpec := func() Spec {
		pol := quietPolicy(t)
		pol.Chaos = []ChaosOp{{Kind: "kill", Job: "illinois-enum-strict-n4", AtSave: 2}}
		return Spec{Policy: pol, Jobs: []JobSpec{
			{Protocol: "illinois", Engine: EngineEnumStrict, N: 4},
			{Protocol: "firefly", Engine: EngineSymbolic},
		}}
	}
	a := mustRun(t, mkSpec())
	b := mustRun(t, mkSpec())
	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("reports diverged:\n%s\n----\n%s", aj, bj)
	}
}

// TestCanceledCampaign: campaign-level cancellation yields canceled
// verdicts, not retries.
func TestCanceledCampaign(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pol := quietPolicy(t)
	rep, err := Run(ctx, Spec{Policy: pol, Jobs: []JobSpec{
		{Protocol: "illinois", Engine: EngineEnumStrict, N: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs[0].Verdict != VerdictCanceled {
		t.Fatalf("verdict = %s, want canceled", rep.Jobs[0].Verdict)
	}
	if len(rep.Jobs[0].Attempts) > 1 {
		t.Fatalf("canceled job kept retrying: %+v", rep.Jobs[0].Attempts)
	}
}

// TestUnknownProtocolFails: a bad registry name is a spec failure, not a
// retry loop.
func TestUnknownProtocolFails(t *testing.T) {
	rep := mustRun(t, Spec{Policy: quietPolicy(t), Jobs: []JobSpec{
		{Protocol: "no-such-protocol", Engine: EngineSymbolic},
	}})
	j := rep.Jobs[0]
	if j.Verdict != VerdictFailed || j.FailClass != ClassSpec {
		t.Fatalf("verdict = %s class %s, want failed/spec", j.Verdict, j.FailClass)
	}
}
