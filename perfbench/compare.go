package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/compile"
	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
)

// traceCompare is the `cctrace compare` path: replay.Compare runs four
// protocols over two seeded traces generated at set-up — one
// coherence-miss heavy (false sharing), one eviction heavy (uniform over
// a working set 16× the cache capacity) — and replay.Replay runs one
// protocol alone over the second.
type traceCompare struct {
	e      *env
	traces [2]traceInput
	protos []*fsm.Protocol
	opts   replay.Options
	// want holds the first Compare's per-protocol stats of each trace;
	// every later run must reproduce them exactly.
	want [2][]sim.Stats
	// The last round's Compare wall times, for the traced probes.
	lastCompare [2]float64
}

// traceInput is one materialized trace.
type traceInput struct {
	name string // contended | capacity
	spec replay.WorkloadSpec
	data []byte
}

// Geometry of the comparison: 8 caches of 64 blocks each.
const (
	tcCaches   = 8
	tcCapacity = 64
)

// Indexes into traceCompare.protos.
const (
	soloProtocol   = 1 // MESI, the protocol replay.Replay runs alone (stage 3)
	updateProtocol = 3 // Dragon, which updates sharers and never invalidates
)

// wantSim pins per-protocol counts (bus transactions, invalidations,
// misses) on the seed of the recorded numbers and on the test's held-out
// seed, keyed by trace, seed, length and protocol. Other seeds are checked
// for agreement between Compare, Replay and RunRefs instead.
var wantSim = map[string][3]int64{
	"contended seed=1 ops=250000 MSI":      {190521, 169367, 169405},
	"contended seed=1 ops=250000 MESI":     {190520, 169367, 169405},
	"contended seed=1 ops=250000 MOESI":    {190520, 169367, 169405},
	"contended seed=1 ops=250000 Dragon":   {75237, 0, 128},
	"capacity seed=1 ops=250000 MSI":       {277922, 32749, 229682},
	"capacity seed=1 ops=250000 MESI":      {276295, 32749, 229682},
	"capacity seed=1 ops=250000 MOESI":     {294392, 32749, 229682},
	"capacity seed=1 ops=250000 Dragon":    {295164, 0, 229683},
	"contended seed=9973 ops=20000 MSI":    {15089, 13349, 13393},
	"contended seed=9973 ops=20000 MESI":   {15089, 13349, 13393},
	"contended seed=9973 ops=20000 MOESI":  {15089, 13349, 13393},
	"contended seed=9973 ops=20000 Dragon": {5890, 0, 128},
	"capacity seed=9973 ops=20000 MSI":     {21983, 2581, 18421},
	"capacity seed=9973 ops=20000 MESI":    {21860, 2581, 18421},
	"capacity seed=9973 ops=20000 MOESI":   {23299, 2581, 18421},
	"capacity seed=9973 ops=20000 Dragon":  {23347, 0, 18399},
}

func traceSpecs(seed int64, ops int) [2]traceInput {
	return [2]traceInput{
		{name: "contended", spec: replay.WorkloadSpec{
			Kind: replay.KindFalseSharing, Seed: seed, Caches: tcCaches, Blocks: 16, Ops: ops,
		}},
		{name: "capacity", spec: replay.WorkloadSpec{
			Kind: replay.KindUniform, Seed: seed, Caches: tcCaches, Blocks: 16 * tcCapacity, Ops: ops,
		}},
	}
}

func newTraceCompare(e *env) (bench, error) {
	t := &traceCompare{
		e:      e,
		traces: traceSpecs(e.seed, e.size.traceOps),
		protos: []*fsm.Protocol{protocols.MSI(), protocols.MESI(), protocols.MOESI(), protocols.Dragon()},
		opts:   replay.Options{Capacity: tcCapacity},
	}
	if err := t.materialize(); err != nil {
		return nil, err
	}
	// One checked warm-up round; it also records the stats every later
	// round must reproduce.
	t.round(nil, nil)
	return t, nil
}

func (t *traceCompare) materialize() error {
	for i := range t.traces {
		var buf bytes.Buffer
		if _, err := replay.Materialize(&buf, t.traces[i].spec); err != nil {
			return fmt.Errorf("materializing %s trace: %w", t.traces[i].name, err)
		}
		t.traces[i].data = buf.Bytes()
	}
	return nil
}

func (t *traceCompare) close() {}

// stats of a protocol's run, in the pinned form.
func simCounts(st sim.Stats) [3]int64 {
	return [3]int64{st.BusTransactions, st.Invalidations, st.ReadMisses + st.WriteMisses}
}

// compare runs replay.Compare over trace i and checks it.
func (t *traceCompare) compare(tr *tracer, i int) {
	in := &t.traces[i]
	var cr *replay.CompareResult
	var err error
	tr.span("replay.compare", func() {
		cr, err = replay.Compare(context.Background(), bytes.NewReader(in.data), t.protos, t.opts)
	})
	if !t.e.ck.op(err == nil && len(cr.Results) == len(t.protos), "compare %s: %v", in.name, err) {
		return
	}
	var stats []sim.Stats
	ok := true
	for _, r := range cr.Results {
		ok = ok && !r.Truncated && len(r.Violations) == 0 && r.Stats.StaleReads == 0 &&
			r.Ops == int64(in.spec.Ops)
		stats = append(stats, r.Stats)
	}
	t.e.ck.op(ok, "compare %s: truncated, incoherent or short result", in.name)
	// MESI's exclusive state saves the upgrade transaction of a private
	// block, so it never needs more bus transactions than MSI.
	t.e.ck.op(stats[1].BusTransactions <= stats[0].BusTransactions,
		"compare %s: MESI bus transactions %d above MSI's %d", in.name, stats[1].BusTransactions, stats[0].BusTransactions)
	if i == 1 {
		t.e.ck.op(stats[1].BusTransactions < stats[0].BusTransactions,
			"compare %s: MESI bus transactions %d not below MSI's %d", in.name, stats[1].BusTransactions, stats[0].BusTransactions)
	}
	if t.want[i] == nil {
		t.want[i] = stats
		for k, p := range t.protos {
			key := fmt.Sprintf("%s seed=%d ops=%d %s", in.name, t.e.seed, in.spec.Ops, p.Name)
			if want, known := wantSim[key]; known {
				t.e.ck.op(simCounts(stats[k]) == want, "%s: counts %v, recorded %v", key, simCounts(stats[k]), want)
			}
		}
		return
	}
	same := true
	for k := range stats {
		same = same && stats[k] == t.want[i][k]
	}
	t.e.ck.op(same, "compare %s: stats differ from the run's first comparison", in.name)
}

// solo runs replay.Replay of one protocol over the capacity trace; its
// stats must equal that protocol's Compare lane.
func (t *traceCompare) solo(tr *tracer) {
	in := &t.traces[1]
	var res *replay.Result
	var err error
	tr.span("replay.replay", func() {
		res, err = replay.Replay(context.Background(), bytes.NewReader(in.data), t.protos[soloProtocol], t.opts)
	})
	ok := err == nil && !res.Truncated && t.want[1] != nil && res.Stats == t.want[1][soloProtocol]
	t.e.ck.op(ok, "replay %s over %s: %v, stats differ from its Compare lane", t.protos[soloProtocol].Name, in.name, err)
}

// round runs the three stages once: Compare over each trace, then the
// single-protocol replay. It returns their wall times. With refs it also
// times a host reference run before each stage, into refs.
func (t *traceCompare) round(tr *tracer, refs *[3]float64) [3]float64 {
	var w [3]float64
	for i := range w {
		settle(tr)
		if refs != nil {
			refs[i] = t.e.hostRef()
		}
		t0 := time.Now()
		if i < len(t.traces) {
			t.compare(tr, i)
		} else {
			t.solo(tr)
		}
		w[i] = time.Since(t0).Seconds()
	}
	t.lastCompare = [2]float64{w[0], w[1]}
	return w
}

func (t *traceCompare) measure(until time.Time) [3]samples {
	var s [3]samples
	for len(s[0].walls) == 0 || time.Now().Before(until) {
		var refs [3]float64
		w := t.round(nil, &refs)
		for i := range w {
			s[i].add(w[i], refs[i])
		}
	}
	refs := float64(t.e.size.traceOps)
	for i, in := range t.traces {
		m := median(s[i].walls)
		t.e.printf("trace-compare: replay_refs_per_s_%s %.0f (Compare over %d refs × %d protocols: %s)\n",
			in.name, refs*float64(len(t.protos))/m, t.e.size.traceOps, len(t.protos), s[i].describe())
	}
	t.e.printf("trace-compare: replay_%s_s %s\n", t.protos[soloProtocol].Name, s[2].describe())
	return s
}

func (t *traceCompare) pass(tr *tracer) { t.round(tr, nil) }

func (t *traceCompare) layers(tr *tracer, m metrics) {
	tr.span("replay.materialize", func() {
		if err := t.materialize(); err != nil {
			t.e.ck.op(false, "%v", err)
		}
	})
	m.set("replay.materialize_s", "s", tr.self("replay.materialize"))
	other := 0.0
	for i := range t.traces {
		in := &t.traces[i]
		refs := t.scan(tr, in)
		slowest := 0.0
		for k, p := range t.protos {
			st, wall := t.runRefs(tr, p, refs)
			slowest = max(slowest, wall)
			ok := t.want[i] != nil && st == t.want[i][k]
			t.e.ck.op(ok, "RunRefs %s over %s: stats differ from its Compare lane", p.Name, in.name)
			c := simCounts(st)
			tag := in.name + "." + p.Name
			m.set("sim.run_refs_s."+tag, "s", wall)
			m.set("sim.bus_tx."+tag, "count", float64(c[0]))
			m.set("sim.misses."+tag, "count", float64(c[2]))
			if k == updateProtocol {
				t.e.ck.op(c[1] == 0, "%s over %s: %d invalidations from an update protocol", p.Name, in.name, c[1])
			} else {
				m.set("sim.invalidations."+tag, "count", float64(c[1]))
			}
		}
		other += t.lastCompare[i] - slowest
	}
	m.set("replay.scan_s", "s", tr.self("replay.scan"))
	m.set("replay.compare_other_s", "s", other)
}

// scan decodes a trace with the Scanner alone, keeping the references.
func (t *traceCompare) scan(tr *tracer, in *traceInput) []trace.Ref {
	refs := make([]trace.Ref, 0, in.spec.Ops)
	tr.span("replay.scan", func() {
		sc, err := replay.NewScanner(bytes.NewReader(in.data), replay.ScanOptions{})
		if !t.e.ck.op(err == nil, "scanner %s: %v", in.name, err) {
			return
		}
		buf := make([]trace.Ref, 4096)
		for {
			n, err := sc.NextBatch(buf)
			refs = append(refs, buf[:n]...)
			if err == io.EOF {
				break
			}
			if !t.e.ck.op(err == nil, "scan %s: %v", in.name, err) {
				return
			}
		}
	})
	t.e.ck.op(len(refs) == in.spec.Ops, "scan %s: %d refs, want %d", in.name, len(refs), in.spec.Ops)
	return refs
}

// runRefs replays pre-decoded references through one compiled machine
// shaped like a replay lane, returning its stats and RunRefs wall time.
func (t *traceCompare) runRefs(tr *tracer, p *fsm.Protocol, refs []trace.Ref) (sim.Stats, float64) {
	var cp *compile.Protocol
	var err error
	tr.span("compile.compile", func() { cp, err = compile.Compile(p) })
	if !t.e.ck.op(err == nil, "compile %s: %v", p.Name, err) {
		return sim.Stats{}, 0
	}
	var m *sim.Machine
	tr.span("sim.new", func() {
		m, err = sim.New(sim.Config{
			Protocol: p, Compiled: cp, Caches: tcCaches,
			Blocks: replay.DefaultMaxBlocks, Capacity: tcCapacity,
		})
	})
	if !t.e.ck.op(err == nil, "sim.New %s: %v", p.Name, err) {
		return sim.Stats{}, 0
	}
	var st sim.Stats
	wall := tr.timed("sim.run_refs", func() { st, err = m.RunRefs(context.Background(), refs) })
	t.e.ck.op(err == nil, "RunRefs %s: %v", p.Name, err)
	return st, wall
}
