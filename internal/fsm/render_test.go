package fsm_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/enum"
	"repro/internal/fsm"
	"repro/internal/randproto"
)

// The key and violation-detail renderers build their strings with strconv
// appends. These tests pin them byte-for-byte against the fmt renderings
// they replaced, written out again here as references.

func refKey(c *fsm.Config) string {
	var b strings.Builder
	for i, s := range c.States {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%d", s, c.Versions[i])
	}
	fmt.Fprintf(&b, "|m:%d|l:%d", c.MemVersion, c.Latest)
	return b.String()
}

func refCountingKey(c *fsm.Config) string {
	pairs := make([]string, len(c.States))
	for i, s := range c.States {
		pairs[i] = fmt.Sprintf("%s:%d", s, c.Versions[i])
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",") + fmt.Sprintf("|m:%d", c.MemVersion)
}

func refCheckConfig(p *fsm.Protocol, c *fsm.Config, strict bool) []fsm.Violation {
	var out []fsm.Violation
	inSet := func(s fsm.State, set []fsm.State) bool {
		for _, t := range set {
			if s == t {
				return true
			}
		}
		return false
	}
	for i, s := range c.States {
		if !inSet(s, p.Inv.Exclusive) {
			continue
		}
		for j, t := range c.States {
			if j != i && p.IsValidCopy(t) {
				out = append(out, fsm.Violation{Kind: fsm.ViolationExclusive,
					Detail: fmt.Sprintf("cache %d in exclusive state %s coexists with cache %d in %s", i, s, j, t)})
			}
		}
	}
	owners := 0
	for _, s := range c.States {
		if inSet(s, p.Inv.Owners) {
			owners++
		}
	}
	if owners > 1 {
		out = append(out, fsm.Violation{Kind: fsm.ViolationOwners,
			Detail: fmt.Sprintf("%d caches hold ownership states", owners)})
	}
	for i, s := range c.States {
		if inSet(s, p.Inv.Readable) && c.Versions[i] != c.Latest {
			out = append(out, fsm.Violation{Kind: fsm.ViolationStaleRead,
				Detail: fmt.Sprintf("cache %d in readable state %s holds version %d but latest is %d",
					i, s, c.Versions[i], c.Latest)})
		}
	}
	if strict && len(p.Inv.CleanShared) > 0 {
		for i, s := range c.States {
			if inSet(s, p.Inv.CleanShared) && c.MemVersion != c.Versions[i] {
				out = append(out, fsm.Violation{Kind: fsm.ViolationCleanShared,
					Detail: fmt.Sprintf("cache %d in clean state %s holds version %d but memory holds %d",
						i, s, c.Versions[i], c.MemVersion)})
			}
		}
	}
	return out
}

// checkRenderers compares every renderer on c with its reference, on the
// configuration as given and after enum.Canonicalize.
func checkRenderers(t *testing.T, p *fsm.Protocol, c *fsm.Config) {
	t.Helper()
	for _, canon := range []bool{false, true} {
		if canon {
			c = c.Clone()
			enum.Canonicalize(c)
		}
		if got, want := c.Key(), refKey(c); got != want {
			t.Fatalf("Key() = %q, want %q", got, want)
		}
		for _, mode := range []string{enum.ModeStrict, enum.ModeCounting} {
			want := refKey(c)
			if mode == enum.ModeCounting {
				want = refCountingKey(c)
			}
			got, err := enum.CanonicalKey(c, mode)
			if err != nil || got != want {
				t.Fatalf("CanonicalKey(%s) = %q, %v; want %q", mode, got, err, want)
			}
		}
		for _, strict := range []bool{false, true} {
			got, want := fsm.CheckConfig(p, c, strict), refCheckConfig(p, c, strict)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("CheckConfig(strict=%v) on %s:\n  got  %v\n  want %v", strict, refKey(c), got, want)
			}
			var kinds fsm.KindSet
			for _, v := range want {
				kinds = kinds.Add(v.Kind)
			}
			if k := fsm.CheckKinds(p, c, strict); k != kinds {
				t.Fatalf("CheckKinds(strict=%v) on %s = %08b, want %08b", strict, refKey(c), k, kinds)
			}
		}
	}
}

// renderVersions are the version numbers the seeds draw from: no data,
// the canonical domain, ordinary small versions and the int64 extremes.
var renderVersions = []int64{fsm.NoData, 0, -2, 1, 7, 10, 123456789, math.MaxInt64, math.MinInt64}

// randomConfig draws a configuration of n caches over p's states, with
// every version taken from vs.
func randomConfig(rng *rand.Rand, p *fsm.Protocol, n int, vs []int64) *fsm.Config {
	c := &fsm.Config{States: make([]fsm.State, n), Versions: make([]int64, n)}
	for i := range c.States {
		c.States[i] = p.States[rng.Intn(len(p.States))]
		c.Versions[i] = vs[rng.Intn(len(vs))]
	}
	c.MemVersion = vs[rng.Intn(len(vs))]
	c.Latest = vs[rng.Intn(len(vs))]
	return c
}

// renderProtocol is a randproto protocol with a random CleanShared set, so
// the strict-only check renders too.
func renderProtocol(seed int64, nStates int) (*fsm.Protocol, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	p := randproto.New(rng, nStates)
	for _, s := range p.States[1:] {
		if rng.Intn(2) == 0 {
			p.Inv.CleanShared = append(p.Inv.CleanShared, s)
		}
	}
	return p, rng
}

// TestRenderersMatchFmt is the table form of FuzzRenderers: fixed
// configurations covering no data, version 0, the canonical domain and
// large versions, plus a seeded sweep of random protocols and
// configurations, including states reached by real steps.
func TestRenderersMatchFmt(t *testing.T) {
	p, _ := renderProtocol(1993, 3)
	for _, c := range []*fsm.Config{
		fsm.NewConfig(p, 1),
		fsm.NewConfig(p, 4),
		{States: []fsm.State{"V1", "V2", "I"}, Versions: []int64{0, 0, fsm.NoData}, MemVersion: 0, Latest: 0},
		{States: []fsm.State{"V3", "V1"}, Versions: []int64{-2, 0}, MemVersion: -2, Latest: 0},
		{States: []fsm.State{"V1", "V1", "V2"}, Versions: []int64{math.MaxInt64, 41, fsm.NoData}, MemVersion: math.MinInt64, Latest: math.MaxInt64},
		{States: []fsm.State{"V2", "V1"}, Versions: []int64{1 << 40, 1<<40 - 1}, MemVersion: 3, Latest: 1 << 40},
	} {
		checkRenderers(t, p, c)
	}
	for seed := int64(0); seed < 200; seed++ {
		p, rng := renderProtocol(seed, int(seed%4)+1)
		checkRenderers(t, p, randomConfig(rng, p, 1+rng.Intn(6), renderVersions))
		// A short random walk: configurations the engines actually reach.
		c := fsm.NewConfig(p, 3)
		for step := 0; step < 12; step++ {
			if _, err := fsm.Step(p, c, rng.Intn(3), p.Ops[rng.Intn(len(p.Ops))]); err != nil {
				break
			}
			checkRenderers(t, p, c)
		}
	}
}

// FuzzRenderers pins Config.Key, enum.CanonicalKey (both modes),
// CheckConfig's details and CheckKinds against their fmt references over
// random protocols and configurations. The fuzzer drives the protocol
// seed, the cache count and three versions mixed into the draw pool.
//
//	go test ./internal/fsm -run='^$' -fuzz=FuzzRenderers -fuzztime=10s
func FuzzRenderers(f *testing.F) {
	f.Add(int64(0), uint8(3), int64(0), int64(fsm.NoData), int64(1))
	f.Add(int64(1993), uint8(5), int64(-2), int64(math.MaxInt64), int64(math.MinInt64))
	f.Add(int64(42), uint8(1), int64(1<<40), int64(7), int64(-1<<40))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, v1, v2, v3 int64) {
		p, rng := renderProtocol(seed, int(uint64(seed)%4)+1)
		vs := append([]int64{v1, v2, v3}, renderVersions...)
		checkRenderers(t, p, randomConfig(rng, p, 1+int(n%8), vs))
	})
}
