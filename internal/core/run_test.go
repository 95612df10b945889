package core

import (
	"bufio"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/ccpsl"
	"repro/internal/enum"
	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/runctl"
	"repro/internal/symbolic"
)

// deadlineAfter is a context whose deadline passes after limit calls to
// Err: the engines check it once per level (enum) or per worklist item
// (symbolic), so a limit stops a run at a chosen boundary.
type deadlineAfter struct {
	context.Context
	calls atomic.Int64
	limit int64
}

func (c *deadlineAfter) Err() error {
	if c.calls.Add(1) > c.limit {
		return context.DeadlineExceeded
	}
	return nil
}

// enumGoldenLine renders an enumeration the way the enum package's golden
// digests do (internal/enum/testdata/golden_digests.txt): the counters in
// clear and a SHA-256 over the violations, spec errors and reachable set.
func enumGoldenLine(t *testing.T, p *fsm.Protocol, res *enum.Result) string {
	t.Helper()
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
		t.Fatal(err)
	}
	return fmt.Sprintf("%s %s unique=%d visits=%d tuples=%d violations=%d specerrs=%d truncated=%v sha256=%x",
		strings.ReplaceAll(p.Name, " ", "_"), res.Mode, res.Unique, res.Visits, res.TupleStates,
		len(res.Violations), len(res.SpecErrors), res.Truncated, h.Sum(nil))
}

// enumGolden returns the enum package's frozen digest line for prefix
// ("<protocol> <mode> "), recorded at n=3.
func enumGolden(t *testing.T, prefix string) string {
	t.Helper()
	f, err := os.Open("../enum/testdata/golden_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), prefix) {
			return sc.Text()
		}
	}
	t.Fatalf("no golden line %q", prefix)
	return ""
}

// symbolicSummary is what must survive a stop and resume of an expansion:
// the essential states by key and the counters.
func symbolicSummary(res *symbolic.Result) string {
	var keys []string
	for _, s := range symbolic.SortStates(res.Essential) {
		keys = append(keys, s.Key())
	}
	return fmt.Sprintf("%v visits=%d expansions=%d superseded=%d violations=%d",
		keys, res.Visits, res.Expansions, res.Superseded, len(res.Violations))
}

// TestRunEngines holds every engine to Run's one contract: a state cap
// returns the partial Outcome with ErrStateBudget; a deadline stop's
// checkpoint, resumed through Job.Resume at another width, reproduces the
// uninterrupted run; a payload of another engine, cache count or protocol
// is refused with ErrResume; and specification errors come back with
// their Outcome as ErrSpec.
func TestRunEngines(t *testing.T) {
	illinois, err := protocols.ByName("illinois")
	if err != nil {
		t.Fatal(err)
	}
	dragon, err := protocols.ByName("dragon")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("../../cmd/ccverify/testdata/illinois_dirty_supplier.ccpsl")
	if err != nil {
		t.Fatal(err)
	}
	broken, err := ccpsl.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		engine, other string
		n             int
	}{
		{EngineSymbolic, EngineEnumStrict, 0},
		{EngineEnumStrict, EngineEnumCounting, 3},
		{EngineEnumCounting, EngineSymbolic, 3},
	} {
		t.Run(tc.engine, func(t *testing.T) {
			job := Job{Engine: tc.engine, N: tc.n}

			capped := job
			capped.MaxStates = 3
			out, err := Run(context.Background(), illinois, capped)
			if !errors.Is(err, runctl.ErrStateBudget) || out == nil {
				t.Fatalf("state cap: outcome %v, err %v, want a partial outcome with ErrStateBudget", out != nil, err)
			}
			if out.Visits == 0 {
				t.Error("state cap: the partial outcome counts no visits")
			}

			counted := &deadlineAfter{Context: context.Background(), limit: math.MaxInt64}
			full, err := Run(counted, illinois, job)
			if err != nil {
				t.Fatal(err)
			}
			stopping := job
			stopping.CheckpointOnStop = true
			stopped, err := Run(&deadlineAfter{Context: context.Background(), limit: counted.calls.Load() / 2}, illinois, stopping)
			if !errors.Is(err, runctl.ErrDeadline) || stopped == nil {
				t.Fatalf("deadline: outcome %v, err %v, want a partial outcome with ErrDeadline", stopped != nil, err)
			}
			payload, err := stopped.Checkpoint()
			if err != nil || payload == nil {
				t.Fatalf("deadline stop carried no checkpoint (%v)", err)
			}
			wide := job
			wide.Workers, wide.Resume = 2, payload
			resumed, err := Run(context.Background(), illinois, wide)
			if err != nil {
				t.Fatal(err)
			}
			if !resumed.Resumed || full.Resumed {
				t.Errorf("Resumed: resumed run %v, fresh run %v", resumed.Resumed, full.Resumed)
			}
			if resumed.Essential != full.Essential || resumed.Visits != full.Visits {
				t.Errorf("resumed run %d/%d essential/visits, uninterrupted %d/%d",
					resumed.Essential, resumed.Visits, full.Essential, full.Visits)
			}
			if tc.engine == EngineSymbolic {
				if got, want := symbolicSummary(resumed.Symbolic), symbolicSummary(full.Symbolic); got != want {
					t.Errorf("resumed expansion\n%s\nuninterrupted\n%s", got, want)
				}
			} else {
				golden := enumGolden(t, "Illinois "+full.Enum.Mode+" ")
				if got := enumGoldenLine(t, illinois, full.Enum); got != golden {
					t.Errorf("uninterrupted run\n%s\ngolden\n%s", got, golden)
				}
				if got := enumGoldenLine(t, illinois, resumed.Enum); got != golden {
					t.Errorf("resumed run\n%s\ngolden\n%s", got, golden)
				}
			}

			type misfit struct {
				what string
				p    *fsm.Protocol
				job  Job
			}
			misfits := []misfit{
				{"engine", illinois, Job{Engine: tc.other, N: 3}},
				{"protocol", dragon, job},
			}
			if tc.n > 0 {
				misfits = append(misfits, misfit{"n", illinois, Job{Engine: tc.engine, N: tc.n + 1}})
			}
			for _, m := range misfits {
				m.job.Resume = payload
				if out, err := Run(context.Background(), m.p, m.job); !errors.Is(err, ErrResume) || out != nil {
					t.Errorf("payload of another %s: outcome %v, err %v, want ErrResume", m.what, out != nil, err)
				}
			}

			out, err = Run(context.Background(), broken, Job{Engine: tc.engine, N: 2})
			if !errors.Is(err, ErrSpec) || out == nil {
				t.Fatalf("spec error: outcome %v, err %v, want an outcome with ErrSpec", out != nil, err)
			}
			specErrs := out.Symbolic != nil && len(out.Symbolic.SpecErrors) > 0 ||
				out.Enum != nil && len(out.Enum.SpecErrors) > 0
			if !specErrs {
				t.Error("ErrSpec outcome carries no specification errors")
			}
		})
	}
}

// TestRunRefusals: an unknown engine and a payload that is not a
// checkpoint fail before anything runs; a protocol the symbolic engine
// cannot take is a specification error that keeps the engine's own error.
func TestRunRefusals(t *testing.T) {
	p, err := protocols.ByName("illinois")
	if err != nil {
		t.Fatal(err)
	}
	if out, err := Run(context.Background(), p, Job{Engine: "bfs"}); err == nil || out != nil {
		t.Errorf("unknown engine: outcome %v, err %v", out != nil, err)
	}
	for _, payload := range []string{"{", "[1]", "null", `{"version": 2}`} {
		if _, err := Run(context.Background(), p, Job{Engine: EngineSymbolic, Resume: []byte(payload)}); !errors.Is(err, ErrResume) {
			t.Errorf("payload %q: err %v, want ErrResume", payload, err)
		}
	}
	wide, err := protocols.Synthetic(63) // 65 states
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(context.Background(), wide, Job{Engine: EngineSymbolic})
	if !errors.Is(err, ErrSpec) || !errors.Is(err, symbolic.ErrTooManyStates) || out != nil {
		t.Errorf("65 states: outcome %v, err %v, want ErrSpec wrapping ErrTooManyStates", out != nil, err)
	}
}

// TestRunSnapshotSink: Job.Snapshot receives encoded periodic snapshots
// that resume like a stop checkpoint, and its error aborts the run.
func TestRunSnapshotSink(t *testing.T) {
	p, err := protocols.ByName("dragon")
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range []Job{{Engine: EngineSymbolic}, {Engine: EngineEnumStrict, N: 3}} {
		full, err := Run(context.Background(), p, job)
		if err != nil {
			t.Fatal(err)
		}
		var snaps [][]byte
		sinkErr := errors.New("sink full")
		job.CheckpointEvery = 2
		job.Snapshot = func(data []byte) error {
			snaps = append(snaps, data)
			return sinkErr
		}
		if out, err := Run(context.Background(), p, job); !errors.Is(err, sinkErr) || out != nil {
			t.Fatalf("%s: failing sink: outcome %v, err %v", job.Engine, out != nil, err)
		}
		if len(snaps) != 1 {
			t.Fatalf("%s: %d snapshots before the failing sink stopped the run", job.Engine, len(snaps))
		}
		job.Snapshot, job.Resume = nil, snaps[0]
		resumed, err := Run(context.Background(), p, job)
		if err != nil {
			t.Fatal(err)
		}
		if resumed.Essential != full.Essential || resumed.Visits != full.Visits {
			t.Errorf("%s: resumed from a periodic snapshot %d/%d, uninterrupted %d/%d",
				job.Engine, resumed.Essential, resumed.Visits, full.Essential, full.Visits)
		}
	}
}
