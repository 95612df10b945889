package replay

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fsm"
	"repro/internal/obs"
	"repro/internal/protocols"
	"repro/internal/runctl"
	"repro/internal/sim"
)

// materialized builds an in-memory trace for spec.
func materialized(t testing.TB, spec WorkloadSpec, gz bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := MaterializeTo(&buf, spec, gz); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReplayMatchesDirectSimulation(t *testing.T) {
	// Replaying a materialized trace must reproduce the statistics of
	// running the generator directly against the machine: materialization
	// is lossless for block-granularity workloads. This pins the
	// generated-workload pipe `cctrace gen -o - | cctrace replay -` to the
	// direct simulation it replaces, bounded and unbounded.
	for _, kind := range []string{KindUniform, KindHotBlock, KindMigratory, KindProducerConsumer} {
		for _, capacity := range []int{0, 8} {
			spec := WorkloadSpec{Kind: kind, Seed: 11, Caches: 4, Blocks: 16, Ops: 20000}
			data := materialized(t, spec, false)

			res, err := Replay(context.Background(), bytes.NewReader(data), protocols.MESI(), Options{Capacity: capacity})
			if err != nil {
				t.Fatal(err)
			}

			norm := spec
			if err := norm.Normalize(); err != nil {
				t.Fatal(err)
			}
			gen, err := NewWorkload(norm)
			if err != nil {
				t.Fatal(err)
			}
			m, err := sim.New(sim.Config{Protocol: protocols.MESI(), Caches: spec.Caches, Blocks: DefaultMaxBlocks, Capacity: capacity})
			if err != nil {
				t.Fatal(err)
			}
			direct, err := m.Run(gen, spec.Ops)
			if err != nil {
				t.Fatal(err)
			}

			name := fmt.Sprintf("%s capacity %d", kind, capacity)
			if res.Stats != direct {
				t.Fatalf("%s: replay stats diverge from direct simulation:\nreplay: %+v\ndirect: %+v", name, res.Stats, direct)
			}
			if capacity > 0 && direct.CapacityEvictions == 0 {
				t.Errorf("%s: no capacity evictions; the bounded case exercises nothing", name)
			}
			if res.Ops != int64(spec.Ops) {
				t.Fatalf("%s: replayed %d ops, want %d", name, res.Ops, spec.Ops)
			}
			if res.Blocks != spec.Blocks {
				t.Fatalf("%s: touched %d blocks, want %d", name, res.Blocks, spec.Blocks)
			}
			if res.TraceDigest == "" {
				t.Fatalf("%s: complete replay has no trace digest", name)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("%s: violations: %v", name, res.Violations)
			}
		}
	}
}

func TestReplayGzipSameStats(t *testing.T) {
	spec := WorkloadSpec{Kind: KindProducerConsumer, Seed: 5, Caches: 4, Blocks: 8, Ops: 5000}
	plain := materialized(t, spec, false)
	zipped := materialized(t, spec, true)
	a, err := Replay(context.Background(), bytes.NewReader(plain), protocols.Dragon(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(context.Background(), bytes.NewReader(zipped), protocols.Dragon(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Fatalf("gzip replay diverges:\nplain: %+v\ngzip:  %+v", a.Stats, b.Stats)
	}
}

func TestReplayMaxOpsAndSkip(t *testing.T) {
	spec := WorkloadSpec{Kind: KindUniform, Seed: 9, Caches: 2, Blocks: 8, Ops: 10000}
	data := materialized(t, spec, false)

	head, err := Replay(context.Background(), bytes.NewReader(data), protocols.MSI(), Options{MaxOps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if head.Ops != 1000 {
		t.Fatalf("MaxOps run applied %d ops, want 1000", head.Ops)
	}
	if !head.Truncated {
		t.Fatal("MaxOps run not flagged truncated")
	}
	if head.StopReason != nil {
		t.Fatalf("MaxOps is a request, not a budget violation; got stop reason %v", head.StopReason)
	}

	tail, err := Replay(context.Background(), bytes.NewReader(data), protocols.MSI(), Options{SkipOps: 9000})
	if err != nil {
		t.Fatal(err)
	}
	if tail.Ops != 1000 {
		t.Fatalf("SkipOps run applied %d ops, want 1000", tail.Ops)
	}
	if tail.Truncated {
		t.Fatal("SkipOps run reached EOF but is flagged truncated")
	}
}

func TestReplayCancellation(t *testing.T) {
	spec := WorkloadSpec{Kind: KindUniform, Seed: 9, Caches: 2, Blocks: 8, Ops: 50000}
	data := materialized(t, spec, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Replay(ctx, bytes.NewReader(data), protocols.MSI(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || !errors.Is(res.StopReason, runctl.ErrCanceled) {
		t.Fatalf("truncated=%v stop=%v, want canceled stop", res.Truncated, res.StopReason)
	}
	if res.Ops >= int64(spec.Ops) {
		t.Fatalf("canceled run applied all %d ops", res.Ops)
	}
}

// TestReplayStopCountsAppliedRefs cancels a replay at its first progress
// tick, 1,000 references in. The machine checks the context every 1,024
// references, so it applies 24 more before it stops; Result.Ops must count
// them, as Stats.Ops does, and a resume with SkipOps = Result.Ops must
// apply exactly the rest of the trace.
func TestReplayStopCountsAppliedRefs(t *testing.T) {
	spec := WorkloadSpec{Kind: KindUniform, Seed: 9, Caches: 2, Blocks: 8, Ops: 10000}
	data := materialized(t, spec, false)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Replay(ctx, bytes.NewReader(data), protocols.MSI(), Options{
		Observer:      obs.Funcs{Level: func(obs.LevelStats) { cancel() }},
		ProgressEvery: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.StopReason, runctl.ErrCanceled) {
		t.Fatalf("stop reason %v, want a cancellation", res.StopReason)
	}
	if res.Ops != res.Stats.Ops || res.Ops <= 1000 || res.Ops >= int64(spec.Ops) {
		t.Fatalf("stopped run: Ops %d, Stats.Ops %d; want them equal, past the tick and short of the trace", res.Ops, res.Stats.Ops)
	}
	rest, err := Replay(context.Background(), bytes.NewReader(data), protocols.MSI(), Options{SkipOps: res.Ops})
	if err != nil {
		t.Fatal(err)
	}
	if rest.Truncated || rest.Ops != int64(spec.Ops)-res.Ops {
		t.Fatalf("resume with SkipOps %d applied %d ops (truncated %v), want %d", res.Ops, rest.Ops, rest.Truncated, int64(spec.Ops)-res.Ops)
	}
}

func TestReplayEmitsProgress(t *testing.T) {
	spec := WorkloadSpec{Kind: KindHotBlock, Seed: 2, Caches: 2, Blocks: 8, Ops: 5000}
	data := materialized(t, spec, false)
	var levels []obs.LevelStats
	reg := obs.NewRegistry()
	_, err := Replay(context.Background(), bytes.NewReader(data), protocols.MSI(), Options{
		Observer:      obs.Funcs{Level: func(ls obs.LevelStats) { levels = append(levels, ls) }},
		Metrics:       reg,
		ProgressEvery: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) < 5 {
		t.Fatalf("got %d progress callbacks, want >= 5", len(levels))
	}
	last := levels[len(levels)-1]
	if last.Engine != "replay" || last.Protocol != "MSI" || last.Visits != spec.Ops {
		t.Fatalf("final level %+v", last)
	}
	if got := reg.Counter("replay_ops_total").Value(); got != int64(spec.Ops) {
		t.Fatalf("replay_ops_total = %d, want %d", got, spec.Ops)
	}
}

func TestCompareIdenticalStreams(t *testing.T) {
	// Fan-out compare must give each protocol exactly the stats a solo
	// replay of the same trace gives it.
	spec := WorkloadSpec{Kind: KindMigratory, Seed: 1993, Caches: 4, Blocks: 64, Ops: 30000}
	data := materialized(t, spec, false)
	protos := []*fsm.Protocol{protocols.MSI(), protocols.MESI(), protocols.MOESI(), protocols.Dragon()}

	cr, err := Compare(context.Background(), bytes.NewReader(data), protos, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Results) != len(protos) {
		t.Fatalf("%d results, want %d", len(cr.Results), len(protos))
	}
	for i, p := range protos {
		if cr.Results[i].Protocol != p.Name {
			t.Fatalf("result %d is %s, want caller order %s", i, cr.Results[i].Protocol, p.Name)
		}
		solo, err := Replay(context.Background(), bytes.NewReader(data), p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if cr.Results[i].Stats != solo.Stats {
			t.Fatalf("%s: fan-out stats diverge from solo replay:\nfan-out: %+v\nsolo:    %+v",
				p.Name, cr.Results[i].Stats, solo.Stats)
		}
	}
}

func TestCompareMESIBeatsMSIOnMigratory(t *testing.T) {
	// The classic result the CI smoke job asserts: on a migratory workload
	// with enough blocks that ownership periods start unshared, MESI's
	// silent E→M upgrade saves the broadcast MSI pays on every first write.
	spec := WorkloadSpec{Kind: KindMigratory, Seed: 1993, Caches: 4, Blocks: 64, Ops: 100000}
	data := materialized(t, spec, false)
	cr, err := Compare(context.Background(), bytes.NewReader(data),
		[]*fsm.Protocol{protocols.MSI(), protocols.MESI()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	msi, mesi := cr.Results[0].Stats, cr.Results[1].Stats
	if mesi.BusTransactions >= msi.BusTransactions {
		t.Fatalf("MESI bus %d >= MSI bus %d on migratory workload", mesi.BusTransactions, msi.BusTransactions)
	}
}

func TestReportDeterministicEncoding(t *testing.T) {
	spec := WorkloadSpec{Kind: KindProducerConsumer, Seed: 6, Caches: 4, Blocks: 16, Ops: 10000}
	data := materialized(t, spec, false)
	protos := func() []*fsm.Protocol {
		return []*fsm.Protocol{protocols.MSI(), protocols.MESI(), protocols.Dragon()}
	}
	encode := func() []byte {
		cr, err := Compare(context.Background(), bytes.NewReader(data), protos(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewReport(cr).Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatalf("report encoding not byte-identical:\n%s\n---\n%s", a, b)
	}
	rep, err := DecodeReport(a)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ReportSchema || len(rep.Results) != 3 || rep.Ops != int64(spec.Ops) {
		t.Fatalf("decoded report %+v", rep)
	}
	if rep.Table() == "" {
		t.Fatal("empty table rendering")
	}
}

func TestLockTraceReplaysThroughLockMSI(t *testing.T) {
	spec := WorkloadSpec{Kind: KindLock, Seed: 4, Caches: 4, Blocks: 2, Ops: 8000}
	data := materialized(t, spec, false)
	res, err := Replay(context.Background(), bytes.NewReader(data), protocols.LockMSI(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != int64(spec.Ops) {
		t.Fatalf("replayed %d ops, want %d", res.Ops, spec.Ops)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
}

func TestFalseSharingFoldsWordsIntoBlocks(t *testing.T) {
	// 4 groups × 4 caches of 8-byte words at blocksize 64 fold into
	// ceil(16 words / 8 per block) = 2 blocks... but grouped per cache:
	// what matters is blocks < distinct words, proving the fold happens.
	spec := WorkloadSpec{Kind: KindFalseSharing, Seed: 8, Caches: 4, Blocks: 4, Ops: 10000}
	data := materialized(t, spec, false)
	res, err := Replay(context.Background(), bytes.NewReader(data), protocols.MESI(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	words := spec.Blocks * spec.Caches
	if res.Blocks >= words {
		t.Fatalf("replay saw %d blocks for %d words: no false-sharing fold", res.Blocks, words)
	}
}

// permuteCaches renumbers every reference's cache index through perm,
// leaving the header, comments and addresses as they are.
func permuteCaches(t testing.TB, data []byte, perm []int) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, line := range strings.SplitAfter(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 3 || strings.HasPrefix(line, "#") {
			out.WriteString(line)
			continue
		}
		c, err := strconv.Atoi(fields[0])
		if err != nil {
			t.Fatalf("reference line %q: %v", line, err)
		}
		fmt.Fprintf(&out, "%d %s %s\n", perm[c], fields[1], fields[2])
	}
	return out.Bytes()
}

// TestCompareCachePermutationInvariant is a metamorphic property of the
// simulator: caches are interchangeable, so renumbering a trace's cache
// indices leaves every protocol's totals unchanged, bounded or not.
func TestCompareCachePermutationInvariant(t *testing.T) {
	protos := []*fsm.Protocol{protocols.MSI(), protocols.MESI(), protocols.MOESI(), protocols.Dragon()}
	perm := []int{2, 0, 3, 1}
	for _, kind := range []string{KindUniform, KindMigratory, KindFalseSharing} {
		spec := WorkloadSpec{Kind: kind, Seed: 17, Caches: len(perm), Blocks: 16, Ops: 20000}
		data := materialized(t, spec, false)
		permuted := permuteCaches(t, data, perm)
		for _, capacity := range []int{0, 8} {
			a, err := Compare(context.Background(), bytes.NewReader(data), protos, Options{Capacity: capacity})
			if err != nil {
				t.Fatal(err)
			}
			b, err := Compare(context.Background(), bytes.NewReader(permuted), protos, Options{Capacity: capacity})
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range protos {
				if a.Results[i].Ops != int64(spec.Ops) || b.Results[i].Ops != a.Results[i].Ops {
					t.Fatalf("%s %s capacity %d: replayed %d and %d ops, want %d",
						kind, p.Name, capacity, a.Results[i].Ops, b.Results[i].Ops, spec.Ops)
				}
				if a.Results[i].Stats != b.Results[i].Stats {
					t.Errorf("%s %s capacity %d: totals change when caches are renumbered:\noriginal: %+v\npermuted: %+v",
						kind, p.Name, capacity, a.Results[i].Stats, b.Results[i].Stats)
				}
			}
		}
	}
}

// BenchmarkReplayThroughput is the replay throughput gate: the streaming
// parser plus RunRefs must replay well above a million operations per
// second. The migratory trace never evicts; the capacity trace (uniform
// over 1,024 blocks into 64-block caches) evicts on most misses. CI
// uploads both in bench_replay.txt.
func BenchmarkReplayThroughput(b *testing.B) {
	cases := []struct {
		name     string
		spec     WorkloadSpec
		capacity int
	}{
		{"migratory", WorkloadSpec{Kind: KindMigratory, Seed: 1, Caches: 4, Blocks: 64, Ops: 200000}, 0},
		{"capacity", WorkloadSpec{Kind: KindUniform, Seed: 1, Caches: 8, Blocks: 1024, Ops: 200000}, 64},
	}
	p := protocols.MESI()
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			data := materialized(b, c.spec, false)
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			total := 0
			for i := 0; i < b.N; i++ {
				res, err := Replay(context.Background(), bytes.NewReader(data), p, Options{Capacity: c.capacity})
				if err != nil {
					b.Fatal(err)
				}
				total += int(res.Ops)
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkCompare is `cctrace compare` in perfbench's trace-compare
// shapes: MSI, MESI, MOESI and Dragon over 250,000 references of 8 caches
// holding 64 blocks each, on a false-sharing trace of 16 blocks
// (contended) and a uniform one over 1,024 blocks (capacity). Every
// iteration must reproduce the first one's per-protocol stats.
func BenchmarkCompare(b *testing.B) {
	protos := []*fsm.Protocol{protocols.MSI(), protocols.MESI(), protocols.MOESI(), protocols.Dragon()}
	cases := []struct {
		name string
		spec WorkloadSpec
	}{
		{"contended", WorkloadSpec{Kind: KindFalseSharing, Seed: 1, Caches: 8, Blocks: 16, Ops: 250000}},
		{"capacity", WorkloadSpec{Kind: KindUniform, Seed: 1, Caches: 8, Blocks: 1024, Ops: 250000}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			data := materialized(b, c.spec, false)
			var want []sim.Stats
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Compare(context.Background(), bytes.NewReader(data), protos, Options{Capacity: 64})
				if err != nil {
					b.Fatal(err)
				}
				for k, r := range res.Results {
					if r.Ops != int64(c.spec.Ops) {
						b.Fatalf("%s replayed %d ops, want %d", r.Protocol, r.Ops, c.spec.Ops)
					}
					if i == 0 {
						want = append(want, r.Stats)
					} else if r.Stats != want[k] {
						b.Fatalf("%s: stats %+v, first run %+v", r.Protocol, r.Stats, want[k])
					}
				}
			}
		})
	}
}
