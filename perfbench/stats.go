package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest of p99, p90 and p50 that has at least ten
// samples beyond it, with its label.
func tailQuantile(xs []float64) (string, float64) {
	for _, t := range []struct {
		label string
		q     float64
	}{{"p99", 0.99}, {"p90", 0.90}} {
		if float64(len(xs))*(1-t.q) >= 10 {
			return t.label, quantile(xs, t.q)
		}
	}
	return "p50", median(xs)
}

// span is one timed interval of the traced pass.
type span struct {
	name  string
	start time.Time
	child time.Duration // time covered by direct children
}

// stageTotal accumulates one span name's self time.
type stageTotal struct {
	self  time.Duration
	count int
}

// tracer records nested spans on one goroutine and aggregates their self
// times by name. A nil tracer records nothing, so the untraced pass runs
// the same code.
type tracer struct {
	open   []span
	totals map[string]*stageTotal
	order  []string
	root   time.Time
	end    time.Time
}

func newTracer() *tracer {
	t := &tracer{totals: map[string]*stageTotal{}, root: time.Now()}
	t.open = []span{{name: "other", start: t.root}}
	return t
}

// span runs f inside a span called name.
func (t *tracer) span(name string, f func()) {
	if t == nil {
		f()
		return
	}
	t.open = append(t.open, span{name: name, start: time.Now()})
	f()
	s := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	d := time.Since(s.start)
	t.add(name, d-s.child)
	t.open[len(t.open)-1].child += d
}

// timed runs f inside a span and returns its wall time in seconds; with a
// nil tracer it only times f.
func (t *tracer) timed(name string, f func()) float64 {
	t0 := time.Now()
	t.span(name, f)
	return time.Since(t0).Seconds()
}

func (t *tracer) add(name string, self time.Duration) {
	st := t.totals[name]
	if st == nil {
		st = &stageTotal{}
		t.totals[name] = st
		t.order = append(t.order, name)
	}
	st.self += self
	st.count++
}

// self is the total self time recorded under name, in seconds.
func (t *tracer) self(name string) float64 {
	if st := t.totals[name]; st != nil {
		return st.self.Seconds()
	}
	return 0
}

// count is how many spans were recorded under name.
func (t *tracer) count(name string) int {
	if st := t.totals[name]; st != nil {
		return st.count
	}
	return 0
}

func (t *tracer) elapsed() time.Duration { return time.Since(t.root) }

// finish closes the root span; its self time is "other".
func (t *tracer) finish() {
	t.end = time.Now()
}

func (t *tracer) wall() time.Duration { return t.end.Sub(t.root) }

func (t *tracer) other() time.Duration { return t.wall() - t.open[0].child }

// maxOtherShare is the largest share of the traced wall time that may fall
// outside every named span; more means the spans miss real work.
const maxOtherShare = 0.10

// report prints the stage table and checks that the spans cover the work.
// The stage self-times plus other equal the wall time by construction:
// other is the wall time minus the time the root's children cover.
func (t *tracer) report(e *env, workload string) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s traced stages (self time):\n", workload)
	var sum time.Duration
	for _, name := range t.order {
		st := t.totals[name]
		sum += st.self
		fmt.Fprintf(&b, "  %-28s %6d spans %10.4f s\n", name, st.count, st.self.Seconds())
	}
	sum += t.other()
	fmt.Fprintf(&b, "  %-28s %6s       %10.4f s\n", "other", "", t.other().Seconds())
	fmt.Fprintf(&b, "  %-28s %6s       %10.4f s (stages + other = %.4f s)\n", "wall", "", t.wall().Seconds(), sum.Seconds())
	e.printf("%s", b.String())
	share := t.other().Seconds() / t.wall().Seconds()
	e.ck.op(share <= maxOtherShare, "%s: other is %.1f%% of the traced wall time, above %.0f%%: the spans miss work",
		workload, 100*share, 100*maxOtherShare)
}
