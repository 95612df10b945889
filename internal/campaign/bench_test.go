package campaign

import (
	"context"
	"sort"
	"testing"

	"repro/internal/enum"
	"repro/internal/fsm"
	"repro/internal/mutate"
	"repro/internal/protocols"
	"repro/internal/symbolic"
)

// sweepN is the cache count of the sweep's enumeration half.
const sweepN = 4

// sweepProtocols returns the 53 protocols of the service's catalog sweep
// ({"sweep": {"mutants": true}}): every registered protocol and each of
// its mutants that needs no strict check, in sweep order.
func sweepProtocols(tb testing.TB) []*fsm.Protocol {
	tb.Helper()
	names := protocols.Names()
	sort.Strings(names)
	var out []*fsm.Protocol
	for _, name := range names {
		p, err := protocols.ByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, p)
		for _, m := range mutate.Catalog(p) {
			out = append(out, m.Protocol)
		}
	}
	return out
}

// sweepSymbolicWitnesses runs the symbolic engine over the sweep and
// returns each protocol's violations.
func sweepSymbolicWitnesses(tb testing.TB, protos []*fsm.Protocol) [][]symbolic.StateViolation {
	tb.Helper()
	out := make([][]symbolic.StateViolation, len(protos))
	for i, p := range protos {
		eng, err := symbolic.NewEngine(p)
		if err != nil {
			tb.Fatal(err)
		}
		res, err := eng.ExpandContext(context.Background(), symbolic.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = res.Violations
	}
	return out
}

// BenchmarkConfirmWitnesses times the witness audit alone over the
// service's 53-job catalog sweep: the symbolic half audits every symbolic
// witness, the enum half every strict n=4 enumeration witness. The
// engines run before the timer starts, so one op is one sweep's audit.
//
//	go test -run '^$' -bench BenchmarkConfirmWitnesses -benchmem ./internal/campaign
func BenchmarkConfirmWitnesses(b *testing.B) {
	protos := sweepProtocols(b)
	b.Run("symbolic", func(b *testing.B) {
		runs := sweepSymbolicWitnesses(b, protos)
		witnesses := 0
		for _, vs := range runs {
			witnesses += len(vs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, p := range protos {
				ConfirmSymbolicWitnesses(p, false, runs[j])
			}
		}
		b.ReportMetric(float64(witnesses), "witnesses/op")
	})
	b.Run("enum-strict-n4", func(b *testing.B) {
		runs := make([][]enum.Violation, len(protos))
		witnesses := 0
		for j, p := range protos {
			res, err := enum.ExhaustiveContext(context.Background(), p, sweepN, enum.Options{})
			if err != nil {
				b.Fatal(err)
			}
			runs[j] = res.Violations
			witnesses += len(res.Violations)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, p := range protos {
				ConfirmEnumWitnesses(p, sweepN, enum.ModeStrict, false, runs[j])
			}
		}
		b.ReportMetric(float64(witnesses), "witnesses/op")
	})
}

// TestConfirmSymbolicAllocs bounds the allocations of one symbolic audit
// of the catalog sweep. The audit steps candidates in a scratch
// configuration, dedups on integer fingerprints and keeps its frontiers
// in pooled per-depth arenas, so what remains is per witness, per trie
// node and per distinct configuration, not per candidate.
func TestConfirmSymbolicAllocs(t *testing.T) {
	const maxAllocs = 15000
	protos := sweepProtocols(t)
	runs := sweepSymbolicWitnesses(t, protos)
	allocs := testing.AllocsPerRun(3, func() {
		for j, p := range protos {
			ConfirmSymbolicWitnesses(p, false, runs[j])
		}
	})
	if allocs > maxAllocs {
		t.Errorf("symbolic audit of the sweep: %.0f allocations, want at most %d", allocs, maxAllocs)
	}
	t.Logf("symbolic audit of the sweep: %.0f allocations", allocs)
}
