package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
)

// heldOutSeed is not used for any recorded number.
const heldOutSeed = 9973

// benchmarkFile is the subset of BENCHMARK.json the test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runTiny runs the benchmark at the tiny size and fails the test unless
// every output check passed.
func runTiny(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	var out strings.Builder
	res, err := run(options{workload: workload, seed: heldOutSeed, seconds: 0.5, trace: trace, size: tinySize}, &out)
	if testing.Verbose() {
		io.WriteString(os.Stdout, out.String())
	}
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%t attempted=%d failed=%d\n%s", workload, res.Correct, res.Attempted, res.Failed, out.String())
	}
	return res
}

// checkMetrics compares a result's metric names and units with the
// declared list.
func checkMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	var missing, extra []string
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			missing = append(missing, name)
		} else if m.Unit != unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing)+len(extra) > 0 {
		t.Errorf("%s: missing metrics %v, undeclared metrics %v", what, missing, extra)
	}
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}
}

func TestTinyUntraced(t *testing.T) {
	bf := readBenchmarkFile(t)
	want := map[string]string{}
	for _, m := range bf.EndToEnd {
		want[m.Name] = m.Unit
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := runTiny(t, w.name, false)
			checkMetrics(t, w.name, res.Metrics, want)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.name, name, m.Value)
				}
			}
		})
	}
}

func TestTinyTraced(t *testing.T) {
	bf := readBenchmarkFile(t)
	want := map[string]string{}
	for _, m := range bf.PerLayer {
		want[m.Name] = m.Unit
	}
	res := runTiny(t, "service", true)
	checkMetrics(t, "traced run", res.Metrics, want)
	for name, m := range res.Metrics {
		// The tracing overhead is a difference of two walls and may fall
		// to or below 0 within noise; every other figure is positive.
		if m.Value <= 0 && !strings.HasSuffix(name, ".trace_overhead_s") {
			t.Errorf("%s = %v, want > 0", name, m.Value)
		}
	}
}
