// Command ccbench runs the repository's benchmark suite in a short,
// CI-friendly configuration and emits both the raw `go test -bench` text and
// a machine-readable JSON summary. CI uses it to publish a benchmark
// artifact per commit and to feed benchstat comparisons against the merge
// base; locally it is a convenient one-liner for before/after measurements:
//
//	ccbench -count 5 -text after.txt -json after.json
//	benchstat before.txt after.txt
//
// The default -bench selection covers the performance-tracked paths: the
// Figure 2 exhaustive enumeration, the parallel frontier, the Figure 3
// symbolic expansion (sequential and the speculation pipeline), the
// synthetic scaling family, the out-of-core spill run and, in
// internal/serve, the 53-job mutant sweep with its witness audit.
//
// Exit codes: 0 success, 1 benchmark failure or I/O error.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"repro/internal/runctl"
)

// BenchResult is one parsed benchmark line.
type BenchResult struct {
	// Name is the full benchmark name including sub-benchmark and GOMAXPROCS
	// suffix, e.g. "BenchmarkFig2Exhaustive/n=7-8".
	Name string `json:"name"`
	// Iters is the iteration count the harness settled on.
	Iters int64 `json:"iters"`
	// Metrics maps a unit to its per-op value: "ns/op", "B/op", "allocs/op"
	// and any custom ReportMetric units such as "visits" or "states".
	Metrics map[string]float64 `json:"metrics"`
}

func main() {
	var (
		bench = flag.String("bench", "BenchmarkFig2Exhaustive|BenchmarkParallelEnumeration|BenchmarkFig3SymbolicExpansion|BenchmarkScalingSynthetic|BenchmarkParallelSymbolicExpansion|BenchmarkSpillEnumeration|BenchmarkMutantSweep",
			"benchmark selection regex passed to go test -bench")
		benchtime   = flag.String("benchtime", "1x", "go test -benchtime value")
		count       = flag.Int("count", 1, "go test -count value")
		pkg         = flag.String("pkg", ".,./internal/serve", "comma-separated package patterns to benchmark")
		textOut     = flag.String("text", "", "also write the raw go test output to this file (for benchstat)")
		jsonOut     = flag.String("json", "", "write the parsed JSON summary to this file")
		showVersion = flag.Bool("version", false, "print version information and exit")
	)
	flag.Parse()

	if *showVersion {
		fmt.Println(runctl.VersionString("ccbench"))
		os.Exit(0)
	}

	raw, err := runBenchmarks(*pkg, *bench, *benchtime, *count)
	if raw != nil {
		os.Stdout.Write(raw)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccbench:", err)
		os.Exit(1)
	}
	if *textOut != "" {
		if err := os.WriteFile(*textOut, raw, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ccbench:", err)
			os.Exit(1)
		}
	}
	if *jsonOut != "" {
		results := parseBenchOutput(bytes.NewReader(raw))
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccbench:", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ccbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ccbench: wrote %d results to %s\n", len(results), *jsonOut)
	}
}

// runBenchmarks shells out to go test; -run='^$' keeps unit tests out of the
// timing run. The combined output is returned even on failure so the caller
// can surface compile or benchmark errors.
func runBenchmarks(pkg, bench, benchtime string, count int) ([]byte, error) {
	args := []string{"test", "-run=^$",
		"-bench=" + bench, "-benchtime=" + benchtime,
		"-count=" + strconv.Itoa(count), "-benchmem"}
	cmd := exec.Command("go", append(args, strings.Split(pkg, ",")...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return out, fmt.Errorf("go test -bench: %w", err)
	}
	return out, nil
}

// parseBenchOutput extracts the benchmark result lines from go test output.
// A line looks like:
//
//	BenchmarkFig2Exhaustive/n=7-8  184  6310343 ns/op  142.0 states  2218396 B/op  53008 allocs/op
//
// i.e. name, iteration count, then (value, unit) pairs. Unparseable lines
// are skipped: the raw text is preserved separately for benchstat, so the
// JSON view only needs the well-formed measurements.
func parseBenchOutput(r io.Reader) []BenchResult {
	var out []BenchResult
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || len(f)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		res := BenchResult{Name: f[0], Iters: iters, Metrics: map[string]float64{}}
		ok := true
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				ok = false
				break
			}
			res.Metrics[f[i+1]] = v
		}
		if ok {
			out = append(out, res)
		}
	}
	return out
}
