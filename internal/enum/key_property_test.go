package enum

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/randproto"
	"repro/internal/runctl"
)

// TestPackedKeyPartitionMatchesLegacy is the correctness property of the
// packed state-identity layer: over random well-formed protocols and random
// walks through their concrete state spaces, the packed Keys must induce
// exactly the same partition as the legacy canonical strings in both
// equivalence modes — two configurations collide under kc.key if and only if
// they collide under strictKey/countingKey. Alongside the partition the test
// pins the rendering (render must reproduce the legacy string byte for byte,
// since checkpoints store it) and the parse round-trip.
func TestPackedKeyPartitionMatchesLegacy(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randproto.New(rng, 1+rng.Intn(4))
		n := 2 + rng.Intn(3)
		for _, mode := range []string{ModeStrict, ModeCounting} {
			kc := newKeyCodec(p, n, mode)
			legacy := func(c *fsm.Config) string {
				if mode == ModeCounting {
					return countingKey(c)
				}
				return strictKey(c)
			}
			byLegacy := map[string]Key{}
			byKey := map[Key]string{}

			c := fsm.NewConfig(p, n)
			Canonicalize(c)
			for step := 0; step < 200; step++ {
				if _, err := fsm.Step(p, c, rng.Intn(n), p.Ops[rng.Intn(len(p.Ops))]); err != nil {
					t.Fatalf("seed %d mode %s: step: %v", seed, mode, err)
				}
				Canonicalize(c)
				state, k, err := kc.configKeys(c)
				if err != nil {
					t.Fatal(err)
				}
				lk := legacy(c)

				if prev, ok := byLegacy[lk]; ok && prev != k {
					t.Fatalf("seed %d mode %s: legacy key %q maps to two packed keys", seed, mode, lk)
				}
				byLegacy[lk] = k
				if prev, ok := byKey[k]; ok && prev != lk {
					t.Fatalf("seed %d mode %s: packed key of %q collides with %q", seed, mode, lk, prev)
				}
				byKey[k] = lk

				if got := kc.render(k); got != lk {
					t.Fatalf("seed %d mode %s: render = %q, legacy = %q", seed, mode, got, lk)
				}
				rk, err := kc.parse(kc.render(k))
				if err != nil {
					t.Fatalf("seed %d mode %s: parse: %v", seed, mode, err)
				}
				if rk != k {
					t.Fatalf("seed %d mode %s: parse(render) changed key of %q", seed, mode, lk)
				}

				if got := kc.renderTuple(kc.tupleKey(&state)); got != c.StateKey() {
					t.Fatalf("seed %d mode %s: renderTuple = %q, StateKey = %q", seed, mode, got, c.StateKey())
				}
			}
		}
	}
}

// TestWideKeyRoundTrip covers the keys that do not fit inline: Illinois at
// n=32 (33 key bytes) and a 65-state protocol (two-byte units). Over a
// random walk, render must reproduce the legacy string, parse(render(k))
// must give k back, and decoding a state key must give the canonical
// configuration.
func TestWideKeyRoundTrip(t *testing.T) {
	syn, err := protocols.Synthetic(63)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		p        *fsm.Protocol
		n, unit  int
		wantLong bool
	}{
		{protocols.Illinois(), 32, 1, true},
		{syn, 4, 2, false},
		{syn, 16, 2, true},
	} {
		for _, mode := range []string{ModeStrict, ModeCounting} {
			kc := newKeyCodec(tc.p, tc.n, mode)
			if kc.unit != tc.unit {
				t.Fatalf("%s n=%d: unit %d, want %d", tc.p.Name, tc.n, kc.unit, tc.unit)
			}
			c := fsm.NewConfig(tc.p, tc.n)
			Canonicalize(c)
			for step := 0; step < 300; step++ {
				op := tc.p.Ops[rng.Intn(len(tc.p.Ops))]
				if _, err := fsm.Step(tc.p, c, rng.Intn(tc.n), op); err != nil {
					t.Fatal(err)
				}
				Canonicalize(c)
				state, k, err := kc.configKeys(c)
				if err != nil {
					t.Fatal(err)
				}
				if long := k.str != ""; long != tc.wantLong {
					t.Fatalf("%s n=%d: long key = %v, want %v", tc.p.Name, tc.n, long, tc.wantLong)
				}
				want := strictKey(c)
				if mode == ModeCounting {
					want = countingKey(c)
				}
				if got := kc.render(k); got != want {
					t.Fatalf("%s n=%d %s: render = %q, want %q", tc.p.Name, tc.n, mode, got, want)
				}
				if back, err := kc.parse(kc.render(k)); err != nil || back != k {
					t.Fatalf("%s n=%d %s: parse(render(k)) = %v, want k", tc.p.Name, tc.n, mode, err)
				}
				if got := kc.config(&state); strictKey(got) != strictKey(c) {
					t.Fatalf("%s n=%d: decoded %s, want %s", tc.p.Name, tc.n, strictKey(got), strictKey(c))
				}
				if got := kc.renderTuple(kc.tupleKey(&state)); got != c.StateKey() {
					t.Fatalf("%s n=%d: tuple %q, want %q", tc.p.Name, tc.n, got, c.StateKey())
				}
			}
		}
	}
}

// TestOldCheckpointVersionRejected pins the failure mode for checkpoints
// written by builds that keyed states with raw strings (version 1): both the
// decoder and the resume path must fail loudly, naming the found and the
// supported version, instead of misreading the old format.
func TestOldCheckpointVersionRejected(t *testing.T) {
	p := protocols.Illinois()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	testLevelHook = func(level int) {
		if level == 2 {
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

	cp := *partial.Checkpoint
	cp.Version = 1

	if _, err := ResumeContext(context.Background(), p, &cp, Options{}); err == nil {
		t.Fatal("resume accepted a version-1 checkpoint")
	} else if !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("resume error must name both versions, got: %v", err)
	}

	data, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(data); err == nil {
		t.Fatal("decoder accepted a version-1 checkpoint")
	} else if !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("decode error must name both versions, got: %v", err)
	}
}
