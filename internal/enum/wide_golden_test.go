package enum

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fsm"
	"repro/internal/mutate"
	"repro/internal/protocols"
	"repro/internal/runctl"
)

const wideGoldenPath = "testdata/wide_golden_digests.txt"

// wideCase is one run of the wide golden sweep.
type wideCase struct {
	p    *fsm.Protocol
	mode string
	n    int
	opts Options
}

// wideCases lists runs whose keys do not fit the 32-byte inline form or
// whose state count needs two bytes per cache: Illinois at n=32 (33 key
// bytes), its mutants (violations and witness paths), a state-capped
// strict run, and the synthetic protocols with 64 and 65 states.
func wideCases(t testing.TB) []wideCase {
	t.Helper()
	keep := Options{KeepReachable: true}
	capped := keep
	capped.MaxStates = 5000
	ill := protocols.Illinois()
	cases := []wideCase{
		{ill, ModeCounting, 32, keep},
		{ill, ModeStrict, 32, capped},
	}
	for _, m := range mutate.Catalog(ill) {
		cases = append(cases, wideCase{m.Protocol, ModeCounting, 32, keep})
	}
	for _, levels := range []int{62, 63} {
		p, err := protocols.Synthetic(levels)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{ModeStrict, ModeCounting} {
			cases = append(cases, wideCase{p, mode, 2, keep})
		}
	}
	return cases
}

// TestWideGoldenDigests freezes the wide runs as digest lines, at one and
// at two workers. Regenerate with
// `go test ./internal/enum -run TestWideGoldenDigests -update` only for a
// deliberate behaviour change.
func TestWideGoldenDigests(t *testing.T) {
	ctx := context.Background()
	var got []string
	for _, c := range wideCases(t) {
		var line string
		for _, workers := range []int{1, 2} {
			res, err := enumerate(ctx, c.p, c.n, c.opts, c.mode, workers)
			if err != nil {
				t.Fatalf("%s %s n=%d at %d workers: %v", c.p.Name, c.mode, c.n, workers, err)
			}
			l := goldenLine(c.p, c.mode, res)
			if workers == 1 {
				line = l
				got = append(got, l)
			} else if l != line {
				t.Errorf("two-worker run diverges from one worker:\n  two: %s\n  one: %s", l, line)
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(wideGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readGolden(wideGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d digest lines, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest drift:\n  got:  %s\n  want: %s", got[i], want[i])
		}
	}
}

// ckptFixture is a checkpoint file taken from a one-worker KeepReachable
// run stopped at the start of level.
type ckptFixture struct {
	file  string
	p     func() (*fsm.Protocol, error)
	mode  string
	n     int
	level int
}

var ckptFixtures = []ckptFixture{
	{"testdata/ckpt_illinois_strict_n4_level2.json",
		func() (*fsm.Protocol, error) { return protocols.Illinois(), nil }, ModeStrict, 4, 2},
	{"testdata/ckpt_synthetic63_strict_n2_level1.json",
		func() (*fsm.Protocol, error) { return protocols.Synthetic(63) }, ModeStrict, 2, 1},
}

// stoppedCheckpoint runs fx's enumeration, cancels it at fx.level and
// returns the encoded stop checkpoint.
func stoppedCheckpoint(t *testing.T, p *fsm.Protocol, fx ckptFixture) []byte {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	testLevelHook = func(level int) {
		if level == fx.level {
			cancel()
		}
	}
	defer func() { testLevelHook = nil }()
	opts := Options{KeepReachable: true, RunConfig: runctl.RunConfig{CheckpointOnStop: true}}
	res, err := enumerate(ctx, p, fx.n, opts, fx.mode, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoint == nil {
		t.Fatalf("%s: stopped run carries no checkpoint", fx.file)
	}
	data, err := res.Checkpoint.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointFixtures pins the checkpoint format against files written
// by an earlier build: resuming each fixture, at one and at two workers,
// must render the uninterrupted run's golden line, and a snapshot taken at
// the same level boundary must encode to the fixture's bytes.
func TestCheckpointFixtures(t *testing.T) {
	for _, fx := range ckptFixtures {
		p, err := fx.p()
		if err != nil {
			t.Fatal(err)
		}
		fresh := stoppedCheckpoint(t, p, fx)
		if *updateGolden {
			if err := os.WriteFile(fx.file, fresh, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		data, err := os.ReadFile(fx.file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fresh, data) {
			t.Errorf("%s: a snapshot at level %d no longer encodes to the fixture's bytes", filepath.Base(fx.file), fx.level)
		}
		full, err := enumerate(context.Background(), p, fx.n, Options{KeepReachable: true}, fx.mode, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := goldenLine(p, fx.mode, full)
		for _, workers := range []int{1, 2} {
			cp, err := DecodeCheckpoint(data)
			if err != nil {
				t.Fatalf("%s: %v", fx.file, err)
			}
			opts := Options{KeepReachable: true, RunConfig: runctl.RunConfig{Workers: workers}}
			res, err := ResumeContext(context.Background(), p, cp, opts)
			if err != nil {
				t.Fatalf("%s: resume at %d workers: %v", fx.file, workers, err)
			}
			if got := goldenLine(p, fx.mode, res); got != want {
				t.Errorf("%s: resumed at %d workers:\n  got:  %s\n  want: %s", filepath.Base(fx.file), workers, got, want)
			}
		}
	}
}

// TestWideRunsSpill: a run with 64 states spills under a memory budget
// like any other, at one and at two workers, and completes with the
// unbudgeted run's golden line.
func TestWideRunsSpill(t *testing.T) {
	p, err := protocols.Synthetic(62)
	if err != nil {
		t.Fatal(err)
	}
	want, err := readGolden(wideGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	line := ""
	for _, l := range want {
		if strings.HasPrefix(l, "Synthetic-62 strict ") {
			line = l
		}
	}
	for _, workers := range []int{1, 2} {
		dir := t.TempDir()
		opts := Options{KeepReachable: true, RunConfig: runctl.RunConfig{
			Budget:   runctl.Budget{MaxBytes: 200 << 10},
			SpillDir: dir,
		}}
		res, err := enumerate(context.Background(), p, 2, opts, ModeStrict, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := goldenLine(p, ModeStrict, res); got != line {
			t.Errorf("budgeted run at %d workers (stop: %v):\n  got:  %s\n  want: %s", workers, res.StopReason, got, line)
		}
		if spillFileCount(t, dir, "spill-visited-") == 0 {
			t.Errorf("budgeted run at %d workers left no spill files", workers)
		}
	}
}
