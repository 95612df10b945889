package repro

// Benchmark harness: one benchmark per figure/table of the paper (see the
// experiment index in DESIGN.md). Run with
//
//	go test -bench=. -benchmem
//
// The symbolic benchmarks (Fig3/Fig4/A2) measure the paper's headline
// claim: verification cost is a small constant independent of the number of
// caches, while the Figure 2 exhaustive baseline grows like mⁿ with n.
import (
	"context"
	"fmt"
	"io"
	"testing"

	"repro/internal/ccpsl"
	"repro/internal/core"
	"repro/internal/enum"
	"repro/internal/experiments"
	"repro/internal/fsm"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/protocols"
	"repro/internal/runctl"
	"repro/internal/sim"
	"repro/internal/symbolic"
	"repro/internal/trace"
)

// BenchmarkFig1LocalDiagram — E1: building the per-cache transition diagram
// of Figure 1.
func BenchmarkFig1LocalDiagram(b *testing.B) {
	p := protocols.Illinois()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := graph.BuildLocal(p)
		if len(l.Edges) != 15 {
			b.Fatal("wrong diagram")
		}
	}
}

// BenchmarkFig2Exhaustive — E2: the exhaustive search of Figure 2 for a
// fixed number of caches; the cost grows like mⁿ.
func BenchmarkFig2Exhaustive(b *testing.B) {
	p := protocols.Illinois()
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var states int
			for i := 0; i < b.N; i++ {
				res, err := enum.Exhaustive(p, n, enum.Options{})
				if err != nil {
					b.Fatal(err)
				}
				states = res.Unique
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

// BenchmarkFig2Counting — E2: the counting-equivalence variant
// (Definition 5); the space collapses to multisets.
func BenchmarkFig2Counting(b *testing.B) {
	p := protocols.Illinois()
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := enum.Counting(p, n, enum.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3SymbolicExpansion — E3: the essential-states algorithm of
// Figure 3, per protocol. This cost is independent of the cache count.
func BenchmarkFig3SymbolicExpansion(b *testing.B) {
	for _, p := range protocols.All() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			var visits int
			for i := 0; i < b.N; i++ {
				res, err := symbolic.Expand(p, symbolic.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if !res.OK() {
					b.Fatal("verification failed")
				}
				visits = res.Visits
			}
			b.ReportMetric(float64(visits), "visits")
		})
	}
}

// BenchmarkObservability — the cost of the observability layer around the
// Figure 3 expansion. The nil-observer variant is the default fast path and
// must stay within noise of BenchmarkFig3SymbolicExpansion/Illinois (the
// engine-optimization baseline): engines skip every hook on a nil run
// handle without allocating. The observed variant bounds the overhead of
// per-level callbacks plus registry counters.
func BenchmarkObservability(b *testing.B) {
	p := protocols.Illinois()
	b.Run("nil-observer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := symbolic.Expand(p, symbolic.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("observed", func(b *testing.B) {
		b.ReportAllocs()
		reg := NewMetrics()
		var opts symbolic.Options
		opts.RunConfig.Observer = ObserverFuncs{Level: func(LevelStats) {}}
		opts.RunConfig.Metrics = reg
		for i := 0; i < b.N; i++ {
			if _, err := symbolic.Expand(p, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig4GlobalDiagram — E4: symbolic expansion plus global diagram
// construction for Illinois (the full Figure 4 artifact).
func BenchmarkFig4GlobalDiagram(b *testing.B) {
	p := protocols.Illinois()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng, err := symbolic.NewEngine(p)
		if err != nil {
			b.Fatal(err)
		}
		res := eng.Expand(symbolic.Options{})
		g, err := graph.BuildGlobal(eng, res.Essential)
		if err != nil {
			b.Fatal(err)
		}
		if len(g.Nodes) != 5 {
			b.Fatal("wrong node count")
		}
	}
}

// BenchmarkFig4ContextTable — E5: the context-variable table of Figure 4.
func BenchmarkFig4ContextTable(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := experiments.RenderFig4Table(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA2VisitLog — E6: the logged expansion (Appendix A.2).
func BenchmarkA2VisitLog(b *testing.B) {
	p := protocols.Illinois()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := symbolic.Expand(p, symbolic.Options{RecordLog: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Log) != res.Visits {
			b.Fatal("log incomplete")
		}
	}
}

// BenchmarkComplexitySweep — E7: the full enumeration-vs-symbolic
// comparison of Section 3.1 (two protocols, n = 2..6).
func BenchmarkComplexitySweep(b *testing.B) {
	for _, name := range []string{"illinois", "dragon"} {
		name := name
		b.Run(name, func(b *testing.B) {
			p, err := protocols.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Complexity(p, []int{2, 3, 4, 5, 6}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSuiteVerification — E8: full pipeline (symbolic + graph) per
// protocol of the Archibald & Baer suite.
func BenchmarkSuiteVerification(b *testing.B) {
	for _, p := range protocols.All() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := core.Verify(p, core.Options{BuildGraph: true})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.OK() {
					b.Fatal("verification failed")
				}
			}
		})
	}
}

// BenchmarkMutantDetection — E9: time to refute one injected fault
// (drop-invalidation on Illinois), including witness extraction.
func BenchmarkMutantDetection(b *testing.B) {
	var mutant = func() *core.Report {
		for _, m := range mutate.Catalog(protocols.Illinois()) {
			if m.Kind == "drop-invalidation" {
				rep, err := core.Verify(m.Protocol, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				return rep
			}
		}
		b.Fatal("mutant not found")
		return nil
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := mutant()
		if rep.Symbolic.OK() {
			b.Fatal("mutant escaped")
		}
	}
}

// BenchmarkCrossCheck — E10: the executable Theorem 1 (concrete
// enumeration + abstraction coverage) for growing cache counts.
func BenchmarkCrossCheck(b *testing.B) {
	p := protocols.Illinois()
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := core.Verify(p, core.Options{CrossCheckN: []int{n}})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.OK() {
					b.Fatal("cross-check failed")
				}
			}
		})
	}
}

// BenchmarkSimulator — extension: concrete simulation throughput
// (references per second) per protocol under the migratory workload.
func BenchmarkSimulator(b *testing.B) {
	for _, p := range protocols.All() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			m, err := sim.New(sim.Config{Protocol: p, Caches: 8, Blocks: 32, Capacity: 16})
			if err != nil {
				b.Fatal(err)
			}
			w, err := trace.NewMigratory(1, 8, 32, 4)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			st, err := m.Run(w, b.N)
			if err != nil {
				b.Fatal(err)
			}
			if st.StaleReads != 0 {
				b.Fatal("stale reads")
			}
		})
	}
}

// BenchmarkParallelEnumeration — the Figure 2 baseline across widths:
// the level-synchronous BFS over the mⁿ space (Dragon, n=8).
func BenchmarkParallelEnumeration(b *testing.B) {
	p := protocols.Dragon()
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := enum.Exhaustive(p, 8, enum.Options{RunConfig: runctl.RunConfig{Workers: workers}})
				if err != nil {
					b.Fatal(err)
				}
				if res.Unique == 0 {
					b.Fatal("no states")
				}
			}
		})
	}
}

// BenchmarkScalingSynthetic — E11: symbolic verification cost as the number
// of per-cache states grows (the paper's "more complex protocols" claim).
func BenchmarkScalingSynthetic(b *testing.B) {
	for _, k := range []int{2, 4, 8, 16} {
		k := k
		b.Run(fmt.Sprintf("levels=%d", k), func(b *testing.B) {
			p, err := protocols.Synthetic(k)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := symbolic.Expand(p, symbolic.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if !res.OK() {
					b.Fatal("verification failed")
				}
			}
		})
	}
}

// BenchmarkAblationContainmentPruning — the value of Definition 9 pruning:
// the same expansion with and without containment.
func BenchmarkAblationContainmentPruning(b *testing.B) {
	p, err := protocols.Synthetic(8)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		opts symbolic.Options
	}{
		{"with-containment", symbolic.Options{}},
		{"no-containment", symbolic.Options{NoContainment: true}},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var states int
			for i := 0; i < b.N; i++ {
				res, err := symbolic.Expand(p, mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				states = len(res.Essential)
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

// BenchmarkContainment — micro: the containment test dominating the
// worklist algorithm's pruning.
func BenchmarkContainment(b *testing.B) {
	eng, err := symbolic.NewEngine(protocols.Illinois())
	if err != nil {
		b.Fatal(err)
	}
	res := eng.Expand(symbolic.Options{})
	states := res.Essential
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range states {
			for _, s := range states {
				symbolic.Contains(a, s)
			}
		}
	}
}

// BenchmarkAbstraction — micro: the α function of the cross-check.
func BenchmarkAbstraction(b *testing.B) {
	p := protocols.Illinois()
	eng, err := symbolic.NewEngine(p)
	if err != nil {
		b.Fatal(err)
	}
	res, err := enum.Counting(p, 8, enum.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var reachable []*fsm.Config
	if err := res.Configs(context.Background(), func(c *fsm.Config) error {
		reachable = append(reachable, c.Clone())
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range reachable {
			if _, err := eng.Abstract(c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkParallelSymbolicExpansion — the Figure 3 speculation pipeline
// across worker counts, on synthetic protocols large enough that
// per-state expansion dominates. Results are bit-identical at every worker
// count (workers=1 expands inline); on a single-core host this measures
// the pipeline's overhead (it must stay within noise of workers=1), and
// the speedup appears with GOMAXPROCS ≥ 2. The Synthetic-40 cases are the
// run verify-large's stage 1 times (42 essential states, 72,948 visits),
// so they are its in-process A/B.
func BenchmarkParallelSymbolicExpansion(b *testing.B) {
	for _, c := range []struct {
		levels           int
		name             string
		workers          []int
		essential, visit int
	}{
		{levels: 24, workers: []int{1, 2, 4, 8}},
		{levels: 40, name: "Synthetic-40/", workers: []int{1, 2}, essential: 42, visit: 72948},
	} {
		p, err := protocols.Synthetic(c.levels)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range c.workers {
			b.Run(fmt.Sprintf("%sworkers=%d", c.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := symbolic.Expand(p, symbolic.Options{RunConfig: runctl.RunConfig{Workers: workers}})
					if err != nil {
						b.Fatal(err)
					}
					if !res.OK() {
						b.Fatal("verification failed")
					}
					if c.visit > 0 && (len(res.Essential) != c.essential || res.Visits != c.visit) {
						b.Fatalf("%d essential states and %d visits, want %d and %d",
							len(res.Essential), res.Visits, c.essential, c.visit)
					}
				}
			})
		}
	}
}

// BenchmarkSpillEnumeration — out-of-core Figure 2 enumeration: the
// memory budget is set well below the run's peak resident footprint, so
// the visited and tuple sets spill cold shards to disk and stream them
// back for duplicate detection at level boundaries. The run must still
// complete (not truncate) and find the full state count.
func BenchmarkSpillEnumeration(b *testing.B) {
	p, err := protocols.Synthetic(6)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := enum.Exhaustive(p, 5, enum.Options{
			Strict: true,
			RunConfig: runctl.RunConfig{
				Budget:   runctl.Budget{MaxBytes: 768 << 10},
				SpillDir: b.TempDir(),
				Workers:  4,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Truncated {
			b.Fatalf("spilling run truncated: %v", res.StopReason)
		}
	}
}

// BenchmarkSpecParse — extension: the ccpsl front end.
func BenchmarkSpecParse(b *testing.B) {
	spec := ccpsl.Format(protocols.Dragon())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ccpsl.Parse(spec); err != nil {
			b.Fatal(err)
		}
	}
}
