package replay

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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

func TestReplayStateBudget(t *testing.T) {
	spec := WorkloadSpec{Kind: KindUniform, Seed: 9, Caches: 2, Blocks: 8, Ops: 10000}
	data := materialized(t, spec, false)
	res, err := Replay(context.Background(), bytes.NewReader(data), protocols.MSI(), Options{
		RunConfig: runctl.RunConfig{Budget: runctl.Budget{MaxStates: 2500}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 2500 {
		t.Fatalf("budgeted run applied %d ops, want 2500", res.Ops)
	}
	if !res.Truncated || !errors.Is(res.StopReason, runctl.ErrStateBudget) {
		t.Fatalf("truncated=%v stop=%v, want state-budget stop", res.Truncated, res.StopReason)
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

func TestReplayEmitsProgress(t *testing.T) {
	spec := WorkloadSpec{Kind: KindHotBlock, Seed: 2, Caches: 2, Blocks: 8, Ops: 5000}
	data := materialized(t, spec, false)
	var levels []obs.LevelStats
	reg := obs.NewRegistry()
	_, err := Replay(context.Background(), bytes.NewReader(data), protocols.MSI(), Options{
		RunConfig: runctl.RunConfig{
			Observer: obs.Funcs{Level: func(ls obs.LevelStats) { levels = append(levels, ls) }},
			Metrics:  reg,
		},
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

// BenchmarkReplayThroughput is the PR's throughput gate: the streaming
// parser plus RunRefs must replay well above a million operations per
// second. CI publishes it as BENCH_PR9.json.
func BenchmarkReplayThroughput(b *testing.B) {
	spec := WorkloadSpec{Kind: KindMigratory, Seed: 1, Caches: 4, Blocks: 64, Ops: 200000}
	data := materialized(b, spec, false)
	p := protocols.MESI()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		res, err := Replay(context.Background(), bytes.NewReader(data), p, Options{})
		if err != nil {
			b.Fatal(err)
		}
		total += int(res.Ops)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "ops/s")
}
