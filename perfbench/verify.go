package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/enum"
	"repro/internal/fsm"
	"repro/internal/obs"
	"repro/internal/protocols"
	"repro/internal/runctl"
	"repro/internal/symbolic"
)

// verifyLarge is the ccverify path on inputs where the engines' per-state
// inner loops dominate: a large symbolic expansion, a large strict
// enumeration and an enumeration that must spill to disk. The seed orders
// the three runs within each round.
type verifyLarge struct {
	e                  *env
	sym, dragon, spill *fsm.Protocol
	spillDir           string
	rng                *rand.Rand

	// The last round's results and stage times, for the traced probes.
	lastSym   *symbolic.Result
	lastEnum  *enum.Result
	lastSpill *enum.Result
	lastTimes [3]float64
}

// counts are the exact figures a run must reproduce.
type counts struct{ states, visits int }

// wantCounts pins the engines' results on the benchmark inputs, keyed by
// run kind and protocol name.
var wantCounts = map[string]counts{
	"symbolic Synthetic-40": {42, 72948},
	"enum Dragon n=10":      {6164, 156580},
	"spill Synthetic-6 n=5": {16812, 240155},
	"symbolic Synthetic-8":  {10, 900},
	"enum Dragon n=5":       {122, 1550},
	"spill Synthetic-4 n=5": {3130, 43805},
}

func newVerifyLarge(e *env) (bench, error) {
	sym, err := protocols.Synthetic(e.size.symLevels)
	if err != nil {
		return nil, err
	}
	sp, err := protocols.Synthetic(e.size.spillLevels)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.workDir, "spill-")
	if err != nil {
		return nil, err
	}
	v := &verifyLarge{
		e: e, sym: sym, dragon: protocols.Dragon(), spill: sp,
		spillDir: dir, rng: e.rng("verify-large"),
	}
	// One checked warm-up round: the heap grows and the code pages fault in
	// here rather than in the first measured round.
	v.round(nil, nil)
	return v, nil
}

func (v *verifyLarge) close() { os.RemoveAll(v.spillDir) }

// checkCounts records one run's outcome against wantCounts.
func (v *verifyLarge) checkCounts(key string, got counts, ok bool, detail string) {
	want, known := wantCounts[key]
	v.e.ck.op(ok && known && got == want, "%s: got %d states / %d visits (want %d / %d) %s",
		key, got.states, got.visits, want.states, want.visits, detail)
}

// symbolicRun is symbolic.NewEngine + ExpandParallelContext at the given
// width.
func (v *verifyLarge) symbolicRun(tr *tracer, workers int, reg *obs.Registry, suffix string) *symbolic.Result {
	var eng *symbolic.Engine
	var res *symbolic.Result
	var err error
	tr.span("symbolic.new_engine"+suffix, func() { eng, err = symbolic.NewEngine(v.sym) })
	if err == nil {
		opts := symbolic.Options{RunConfig: runctl.RunConfig{Workers: workers, Metrics: reg}}
		tr.span("symbolic.expand"+suffix, func() {
			res, err = eng.ExpandParallelContext(context.Background(), opts, workers)
		})
	}
	key := "symbolic " + v.sym.Name
	if err != nil {
		v.checkCounts(key, counts{}, false, err.Error())
		return nil
	}
	v.checkCounts(key, counts{len(res.Essential), res.Visits}, res.OK() && !res.Truncated,
		fmt.Sprintf("ok=%t truncated=%t", res.OK(), res.Truncated))
	return res
}

// enumRun is the strict enumeration of Dragon at the benchmark's n.
func (v *verifyLarge) enumRun(tr *tracer, workers int, suffix string) *enum.Result {
	var res *enum.Result
	var err error
	tr.span("enum.run"+suffix, func() {
		res, err = enum.ExhaustiveParallelContext(context.Background(), v.dragon, v.e.size.dragonN,
			enum.Options{RunConfig: runctl.RunConfig{Workers: workers}}, workers)
	})
	key := fmt.Sprintf("enum %s n=%d", v.dragon.Name, v.e.size.dragonN)
	if err != nil {
		v.checkCounts(key, counts{}, false, err.Error())
		return nil
	}
	v.checkCounts(key, counts{res.Unique, res.Visits}, res.OK() && !res.Truncated,
		fmt.Sprintf("ok=%t truncated=%t", res.OK(), res.Truncated))
	return res
}

// spillRun enumerates under a memory budget far below the run's footprint,
// so cold visited shards spill to files and stream back; it must complete.
func (v *verifyLarge) spillRun(tr *tracer) *enum.Result {
	var res *enum.Result
	var err error
	tr.span("enum.spill_run", func() {
		res, err = enum.ExhaustiveParallelContext(context.Background(), v.spill, v.e.size.spillN, enum.Options{
			Strict: true,
			RunConfig: runctl.RunConfig{
				Budget:   runctl.Budget{MaxBytes: v.e.size.spillBudget},
				SpillDir: v.spillDir,
				Workers:  v.e.nproc,
			},
		}, v.e.nproc)
	})
	key := fmt.Sprintf("spill %s n=%d", v.spill.Name, v.e.size.spillN)
	if err != nil {
		v.checkCounts(key, counts{}, false, err.Error())
		return nil
	}
	v.checkCounts(key, counts{res.Unique, res.Visits}, res.OK() && !res.Truncated,
		fmt.Sprintf("ok=%t truncated=%t stop=%v", res.OK(), res.Truncated, res.StopReason))
	return res
}

// round runs the three stages once, in a seeded order, and returns their
// wall times in stage order (symbolic, enum, spill). With refs it also
// times a host reference run before each stage, into refs.
func (v *verifyLarge) round(tr *tracer, refs *[3]float64) [3]float64 {
	var t [3]float64
	for _, i := range v.rng.Perm(3) {
		settle(tr)
		if refs != nil {
			refs[i] = v.e.hostRef()
		}
		t0 := time.Now()
		switch i {
		case 0:
			v.lastSym = v.symbolicRun(tr, v.e.nproc, nil, "")
		case 1:
			v.lastEnum = v.enumRun(tr, v.e.nproc, "")
		case 2:
			v.lastSpill = v.spillRun(tr)
		}
		t[i] = time.Since(t0).Seconds()
	}
	v.lastTimes = t
	return t
}

func (v *verifyLarge) measure(until time.Time) [3]samples {
	var s [3]samples
	for len(s[0].walls) == 0 || time.Now().Before(until) {
		var refs [3]float64
		t := v.round(nil, &refs)
		for i := range t {
			s[i].add(t[i], refs[i])
		}
	}
	names := [3]string{"symbolic_run_s", "enum_run_s", "spill_run_s"}
	for i := range s {
		v.e.printf("verify-large: %-15s %s\n", names[i], s[i].describe())
	}
	return s
}

func (v *verifyLarge) pass(tr *tracer) { v.round(tr, nil) }

func (v *verifyLarge) layers(tr *tracer, m metrics) {
	// The speculation counters live in a metrics registry, which the
	// measured runs do without; this extra run at the same width has one.
	reg := obs.NewRegistry()
	sres := v.symbolicRun(tr, v.e.nproc, reg, "_registry")
	// Worker ladder: the pass's symbolic and enum calls again at one worker.
	t0 := time.Now()
	v.symbolicRun(tr, 1, nil, "_w1")
	symSeq := time.Since(t0).Seconds()
	t0 = time.Now()
	v.enumRun(tr, 1, "_w1")
	enumSeq := time.Since(t0).Seconds()

	m.set("symbolic.new_engine_s", "s", tr.self("symbolic.new_engine"))
	m.set("symbolic.expand_s", "s", tr.self("symbolic.expand"))
	m.set("enum.run_s", "s", tr.self("enum.run"))
	m.set("enum.spill_run_s", "s", tr.self("enum.spill_run"))
	m.set("symbolic.speedup", "x", symSeq/v.lastTimes[0])
	m.set("enum.speedup", "x", enumSeq/v.lastTimes[1])
	if sres != nil {
		m.set("symbolic.visits", "count", float64(sres.Visits))
		m.set("symbolic.essential", "count", float64(len(sres.Essential)))
		m.set("symbolic.contained", "count", float64(sres.Contained))
		m.set("symbolic.evicted", "count", float64(sres.Evicted))
		snap := reg.Snapshot()
		jobs := snap.Counters["speculation_jobs_total"]
		m.set("symbolic.spec_jobs", "count", float64(jobs))
		// Reported as the kept share, so it stays above 0 when no
		// speculation is discarded.
		m.set("symbolic.spec_kept_ratio", "ratio", 1-float64(snap.Counters["speculation_discarded_total"])/float64(max(1, jobs)))
	}
	if r := v.lastEnum; r != nil {
		m.set("enum.unique", "count", float64(r.Unique))
		m.set("enum.visits", "count", float64(r.Visits))
		m.set("enum.dedup_ratio", "ratio", float64(r.Unique)/float64(r.Visits))
		m.set("enum.est_mb", "MB", float64(r.EstBytes)/1e6)
	}
	if v.lastSpill != nil {
		files, bytes := dirUsage(v.spillDir)
		m.set("enum.spill_files", "count", float64(files))
		m.set("enum.spill_mb", "MB", float64(bytes)/1e6)
	}
	v.e.printf("verify-large: worker ladder, 1 vs %d workers: symbolic %.2fx, enum %.2fx\n",
		v.e.nproc, symSeq/v.lastTimes[0], enumSeq/v.lastTimes[1])
}

// dirUsage counts the regular files under dir and their bytes.
func dirUsage(dir string) (files int, bytes int64) {
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				files++
				bytes += info.Size()
			}
		}
		return nil
	})
	return files, bytes
}
