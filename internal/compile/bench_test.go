package compile

import (
	"testing"

	"repro/internal/fsm"
)

// benchOps is a fixed reference pattern that exercises misses, hits,
// upgrades and replacements across four caches.
var benchOps = []struct {
	cache int
	op    int
}{
	{0, 0}, {1, 0}, {2, 1}, {0, 0}, {3, 1}, {1, 2}, {2, 0}, {0, 1},
	{3, 0}, {1, 1}, {2, 2}, {0, 0}, {3, 2}, {1, 0}, {2, 0}, {3, 1},
}

// BenchmarkStepCompiled and BenchmarkStepInterpreted pin the per-step cost
// of the shared compiled representation against the interpreted fsm.Step
// reference it is parity-tested against. CI uploads the pair in
// bench_step.txt.
func BenchmarkStepCompiled(b *testing.B) {
	p := specProtocol(b, "mesi")
	cp, err := Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	c := cp.NewConfig(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref := benchOps[i%len(benchOps)]
		if _, err := cp.Step(c, ref.cache, ref.op); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStepInterpreted(b *testing.B) {
	p := specProtocol(b, "mesi")
	c := fsm.NewConfig(p, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref := benchOps[i%len(benchOps)]
		if _, err := fsm.Step(p, c, ref.cache, p.Ops[ref.op]); err != nil {
			b.Fatal(err)
		}
	}
}
