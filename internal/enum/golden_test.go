package enum

import (
	"bufio"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/ccpsl"
	"repro/internal/fsm"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/runctl"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_digests.txt from the current engine")

const goldenPath = "testdata/golden_digests.txt"

// goldenN is the cache count of the golden sweep: large enough that every
// protocol reaches sharing, eviction and write-back states, small enough
// that 53 protocols × 2 modes × 3 drivers run in a few seconds.
const goldenN = 3

// goldenCorpus returns every shipped spec plus every mutant of it, in a
// fixed order.
func goldenCorpus(t testing.TB) []*fsm.Protocol {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.ccpsl"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no specs found: %v", err)
	}
	sort.Strings(paths)
	var out []*fsm.Protocol
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ccpsl.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, p)
		for _, m := range mutate.Catalog(p) {
			out = append(out, m.Protocol)
		}
	}
	return out
}

// goldenLine renders one run's digest line: the counters in clear, and a
// SHA-256 over everything observable about the run — every violation with
// its configuration, violation text and full witness path, every spec
// error, and the reachable set in discovery order.
func goldenLine(p *fsm.Protocol, mode string, res *Result) string {
	h := sha256.New()
	for _, v := range res.Violations {
		fmt.Fprintf(h, "V %s\n", v.Config.Key())
		for _, viol := range v.Violations {
			fmt.Fprintf(h, "  %s\n", viol.Error())
		}
		for _, s := range v.Path {
			fmt.Fprintf(h, "  -> %s %d %s\n", s.Op, s.Cache, s.To)
		}
	}
	for _, err := range res.SpecErrors {
		fmt.Fprintf(h, "S %v\n", err)
	}
	if err := res.Configs(context.Background(), func(c *fsm.Config) error {
		fmt.Fprintf(h, "R %s\n", c.Key())
		return nil
	}); err != nil {
		fmt.Fprintf(h, "replay: %v\n", err)
	}
	return fmt.Sprintf("%s %s unique=%d visits=%d tuples=%d violations=%d specerrs=%d truncated=%v sha256=%x",
		strings.ReplaceAll(p.Name, " ", "_"), mode, res.Unique, res.Visits, res.TupleStates,
		len(res.Violations), len(res.SpecErrors), res.Truncated, h.Sum(nil))
}

// spillBudget returns a memory budget that forces an out-of-core run to
// spill without ever stopping it. The budget covers exactly what stays
// resident after a spill — the two empty stores' fixed footprint, the
// provenance slice at up to twice the final state count, and the widest
// frontier — so the spill threshold (3/4 of the budget) is crossed as soon
// as a level leaves states resident.
func spillBudget(kc *keyCodec, unique, frontier int) runctl.Budget {
	empty := 2 * newCompactStore(kc.width).bytes()
	return runctl.Budget{MaxBytes: empty + int64(unique)*2*parentRecBytes + int64(frontier)*kc.frontierBytes()}
}

// TestGoldenDigests freezes the enumeration's output over every shipped spec
// and every mutant, in strict and counting modes at n=3, as digest lines.
// Each case runs at one and at two workers and at one and at two workers
// under a memory budget that forces the visited set out of
// core; all four must render the same line, and that line must match the
// golden file. Any change to counts, admission order, violations or witness
// paths shows up as a line diff. Regenerate with
// `go test ./internal/enum -run TestGoldenDigests -update` only for a
// deliberate behaviour change.
func TestGoldenDigests(t *testing.T) {
	ctx := context.Background()
	var got []string
	spilledRuns, spillCases := 0, 0
	for _, p := range goldenCorpus(t) {
		for _, mode := range []string{ModeStrict, ModeCounting} {
			widest := 1
			var po Options
			po.Observer = obs.Funcs{Level: func(ls obs.LevelStats) { widest = max(widest, ls.Frontier) }}
			one, err := enumerate(ctx, p, goldenN, po, mode, 1)
			if err != nil {
				t.Fatalf("%s %s one worker: %v", p.Name, mode, err)
			}
			line := goldenLine(p, mode, one)
			got = append(got, line)

			two, err := enumerate(ctx, p, goldenN, Options{}, mode, 2)
			if err != nil {
				t.Fatalf("%s %s two workers: %v", p.Name, mode, err)
			}
			if l := goldenLine(p, mode, two); l != line {
				t.Errorf("two-worker run diverges from one worker:\n  two: %s\n  one: %s", l, line)
			}

			kc := mustKeyCodec(t, p, goldenN, mode)
			for _, workers := range []int{1, 2} {
				spillCases++
				dir := t.TempDir()
				so := Options{RunConfig: runctl.RunConfig{Budget: spillBudget(kc, one.Unique, widest), SpillDir: dir}}
				sp, err := enumerate(ctx, p, goldenN, so, mode, workers)
				if err != nil {
					t.Fatalf("%s %s spill at %d workers: %v", p.Name, mode, workers, err)
				}
				if l := goldenLine(p, mode, sp); l != line {
					t.Errorf("out-of-core run at %d workers diverges from in-memory:\n  spill: %s\n  mem:   %s", workers, l, line)
				}
				if spillFileCount(t, dir, "spill-visited-") > 0 {
					spilledRuns++
				}
			}
		}
	}
	// The budget must actually push every case out of core, or the
	// out-of-core runs would only repeat the in-memory ones.
	if spilledRuns != spillCases {
		t.Errorf("only %d of %d budgeted runs spilled", spilledRuns, spillCases)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readGolden(goldenPath)
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

func readGolden(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			out = append(out, line)
		}
	}
	return out, sc.Err()
}

// TestParentRankBelowChild pins the invariant witness resolution relies
// on: a state's parent was admitted before it, so its rank is strictly
// lower, and every provenance walk reaches the initial state. It checks
// every provenance record over the golden corpus at one and two workers and
// out of core, and that every violation's witness path is resolved, with
// every hop rendered.
func TestParentRankBelowChild(t *testing.T) {
	ctx := context.Background()
	check := func(what string, b *bfs) {
		t.Helper()
		if len(b.parents) == 0 || b.parents[0].parent != noParent {
			t.Fatalf("%s: rank 0 is not the root", what)
		}
		for r := 1; r < len(b.parents); r++ {
			if par := b.parents[r].parent; par == noParent || int(par) >= r {
				t.Fatalf("%s: rank %d has parent %d", what, r, par)
			}
		}
		if len(b.pending) != 0 {
			t.Fatalf("%s: %d witnesses left unresolved", what, len(b.pending))
		}
		for _, v := range b.res.Violations {
			for _, st := range v.Path {
				if st.To == "" {
					t.Fatalf("%s: witness path has an unrendered hop", what)
				}
			}
		}
	}
	drive := func(name string, p *fsm.Protocol, mode string, o Options, workers int) *bfs {
		t.Helper()
		b, done, err := newBFS(p, goldenN, o, mode)
		if err != nil || done {
			t.Fatalf("%s: newBFS: done=%v err=%v", name, done, err)
		}
		if _, err := b.runPar(ctx, workers); err != nil {
			t.Fatal(err)
		}
		check(name, b)
		return b
	}
	for _, p := range goldenCorpus(t) {
		for _, mode := range []string{ModeStrict, ModeCounting} {
			name := p.Name + " " + mode
			widest := 1
			po := Options{}
			po.Observer = obs.Funcs{Level: func(ls obs.LevelStats) { widest = max(widest, ls.Frontier) }}
			b := drive(name+" one worker", p, mode, po, 1)
			drive(name+" two workers", p, mode, Options{}, 2)

			dir := t.TempDir()
			so := Options{RunConfig: runctl.RunConfig{Budget: spillBudget(b.kc, b.res.Unique, widest), SpillDir: dir}}
			drive(name+" out-of-core", p, mode, so, 2)
			if spillFileCount(t, dir, "spill-visited-") == 0 {
				t.Fatalf("%s: budgeted run did not spill", name)
			}
		}
	}
}

// TestWitnessesResolvedAtEveryBoundary: witness paths are rendered in
// batches, so every way a run can hand out violations — a periodic
// checkpoint, a StopOnViolation stop, a state-budget stop — must carry
// fully resolved paths equal to those of the complete run.
func TestWitnessesResolvedAtEveryBoundary(t *testing.T) {
	ctx := context.Background()
	samePaths := func(what string, got, want []Violation) {
		t.Helper()
		if len(got) > len(want) {
			t.Fatalf("%s: %d violations, complete run has %d", what, len(got), len(want))
		}
		for i := range got {
			if fmt.Sprint(got[i].Path) != fmt.Sprint(want[i].Path) {
				t.Fatalf("%s: violation %d path\n  got  %v\n  want %v", what, i, got[i].Path, want[i].Path)
			}
		}
	}
	runs := 0
	for _, p := range goldenCorpus(t) {
		full, err := enumerate(ctx, p, goldenN, Options{}, ModeStrict, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Violations) < 3 {
			continue
		}
		runs++
		for _, workers := range []int{1, 2} {
			drive := func(o Options) *Result {
				t.Helper()
				res, err := enumerate(ctx, p, goldenN, o, ModeStrict, workers)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			name := fmt.Sprintf("%s workers=%d", p.Name, workers)

			res := drive(Options{StopOnViolation: true})
			samePaths(name+" StopOnViolation", res.Violations, full.Violations)

			res = drive(Options{MaxStates: full.Unique / 2})
			samePaths(name+" state budget", res.Violations, full.Violations)

			saves := 0
			o := Options{OnCheckpoint: func(cp *Checkpoint) error {
				saves++
				got := make([]Violation, len(cp.Violations))
				for i, vs := range cp.Violations {
					for _, ps := range vs.Path {
						got[i].Path = append(got[i].Path, PathStep{Cache: ps.Cache, Op: fsm.Op(ps.Op), To: ps.To})
					}
				}
				samePaths(name+" checkpoint", got, full.Violations)
				return nil
			}}
			o.RunConfig.CheckpointEvery = 2
			drive(o)
			if saves == 0 {
				t.Fatalf("%s: no checkpoint taken", name)
			}
		}
		if runs == 4 {
			break
		}
	}
	if runs == 0 {
		t.Fatal("no corpus run has violations")
	}
}

// TestOneWorkerPanicMatchesGolden: a one-worker run isolates a worker
// panic exactly as a wide run does. The panic is recovered into
// Result.WorkerErrors, the slice is retried, and the result still renders
// its golden line.
func TestOneWorkerPanicMatchesGolden(t *testing.T) {
	want, err := readGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	testWorkerHook = func(level, worker int) {
		if level == 1 {
			panic("injected fault")
		}
	}
	defer func() { testWorkerHook = nil }()
	corpus := goldenCorpus(t)
	for i, p := range corpus[:2] { // a shipped spec and its first mutant
		for j, mode := range []string{ModeStrict, ModeCounting} {
			opts := Options{RunConfig: runctl.RunConfig{Workers: 1}}
			res, err := enumerate(context.Background(), p, goldenN, opts, mode, opts.Workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.WorkerErrors) != 1 {
				t.Fatalf("%s %s: %d worker errors, want 1", p.Name, mode, len(res.WorkerErrors))
			}
			if we := res.WorkerErrors[0]; we.Level != 1 || we.Worker != 0 || we.Value != "injected fault" {
				t.Fatalf("%s %s: worker error %+v, want level 1 worker 0", p.Name, mode, we)
			}
			if got := goldenLine(p, mode, res); got != want[2*i+j] {
				t.Errorf("recovered run diverges from the golden line:\n  got:  %s\n  want: %s", got, want[2*i+j])
			}
		}
	}
}
