package enum

import (
	"context"
	"errors"
	"testing"

	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/runctl"
)

// reachable collects the run's replayed reachable set.
func reachable(t *testing.T, res *Result) []*fsm.Config {
	t.Helper()
	var out []*fsm.Config
	if err := res.Configs(context.Background(), func(c *fsm.Config) error {
		out = append(out, c.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReplayMatchesUnique: the replay yields one configuration per
// distinct state of the run, each under its own key.
func TestReplayMatchesUnique(t *testing.T) {
	res, err := Counting(protocols.MSI(), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	configs := reachable(t, res)
	if len(configs) != res.Unique {
		t.Fatalf("replayed %d configurations, unique %d", len(configs), res.Unique)
	}
	seen := map[string]bool{}
	for _, c := range configs {
		k := countingKey(c)
		if seen[k] {
			t.Fatalf("duplicate reachable state %s", k)
		}
		seen[k] = true
	}
}

// TestReplayWindowTwoLevels pins the replay's memory: it never holds more
// state keys than the two largest adjacent BFS levels of the run, and it
// holds exactly that many once. The levels are read off the provenance
// records. The spilled run shows the replay does not read the visited set.
func TestReplayWindowTwoLevels(t *testing.T) {
	dragon := protocols.Dragon()
	dir := t.TempDir()
	for _, tc := range []struct {
		mode string
		n    int
		opts Options
	}{
		{ModeStrict, 6, Options{}},
		{ModeCounting, 8, Options{}},
		{ModeStrict, 6, Options{RunConfig: runctl.RunConfig{Budget: runctl.Budget{MaxBytes: 150 << 10}, SpillDir: dir}}},
	} {
		res, err := enumerate(context.Background(), dragon, tc.n, tc.opts, tc.mode, 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated {
			t.Fatalf("%s n=%d stopped: %v", tc.mode, tc.n, res.StopReason)
		}
		if tc.opts.SpillDir != "" && spillFileCount(t, dir, "spill-visited-") == 0 {
			t.Fatalf("%s n=%d: the budgeted run did not spill", tc.mode, tc.n)
		}
		depth := make([]int, len(res.parents))
		var levels []int
		for r, rec := range res.parents {
			if rec.parent != noParent {
				depth[r] = depth[rec.parent] + 1
			}
			if depth[r] == len(levels) {
				levels = append(levels, 0)
			}
			levels[depth[r]]++
		}
		want := 1
		for i := 1; i < len(levels); i++ {
			want = max(want, levels[i-1]+levels[i])
		}
		states := 0
		peak, err := replay(context.Background(), res.kc, res.parents, func(uint32, *Key, Key) error {
			states++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if states != res.Unique || peak != want {
			t.Errorf("%s n=%d: replayed %d of %d states holding at most %d keys, want %d (levels %v)",
				tc.mode, tc.n, states, res.Unique, peak, want, levels)
		}
	}
}

// TestReplayCanceled: a replay under a cancelled context stops with
// ErrCanceled before calling fn, and fn's own error ends it.
func TestReplayCanceled(t *testing.T) {
	res, err := Exhaustive(protocols.Illinois(), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	count := func(*fsm.Config) error { calls++; return nil }
	if err := res.Configs(ctx, count); !errors.Is(err, runctl.ErrCanceled) || calls != 0 {
		t.Errorf("cancelled replay: err %v after %d calls, want ErrCanceled after none", err, calls)
	}
	step := func(from, to, cache int, op fsm.Op, rule *fsm.Rule) error { calls++; return nil }
	if err := res.Steps(ctx, step); !errors.Is(err, runctl.ErrCanceled) || calls != 0 {
		t.Errorf("cancelled steps: err %v after %d calls, want ErrCanceled after none", err, calls)
	}
	stop := errors.New("stop")
	if err := res.Configs(context.Background(), func(*fsm.Config) error { return stop }); err != stop {
		t.Errorf("replay returned %v, want fn's error", err)
	}
}
