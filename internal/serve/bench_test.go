package serve

import (
	"context"
	"sort"
	"testing"
	"time"

	"repro/internal/fsm"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/protocols"
)

// The cache hit / cache miss pair quantifies what the content-addressed
// cache buys: a hit is a map lookup plus a payload copy, a miss is a full
// symbolic verification. ccbench publishes them as BENCH_PR4.json.

func benchServer(b *testing.B) (*Server, func()) {
	b.Helper()
	srv, err := New(Config{Workers: 2, QueueDepth: 64, KeepJobs: 16})
	if err != nil {
		b.Fatal(err)
	}
	srv.Start()
	return srv, func() {}
}

func benchSubmit(b *testing.B, srv *Server, noCache bool) {
	b.Helper()
	p, err := protocols.ByName("illinois")
	if err != nil {
		b.Fatal(err)
	}
	_, canonical, err := ResolveSpec("illinois", "")
	if err != nil {
		b.Fatal(err)
	}
	opts := JobOptions{Engine: EngineSymbolic}
	if err := opts.normalize(); err != nil {
		b.Fatal(err)
	}
	// Warm run so the hit benchmark measures hits from iteration one.
	j, _, err := srv.SubmitEx(p, canonical, opts, SubmitOptions{Timeout: 30 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	<-j.Done()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, _, err := srv.SubmitEx(p, canonical, opts, SubmitOptions{Timeout: 30 * time.Second, NoCache: noCache})
		if err != nil {
			b.Fatal(err)
		}
		<-j.Done()
	}
}

func BenchmarkServeCacheHit(b *testing.B) {
	srv, done := benchServer(b)
	defer done()
	benchSubmit(b, srv, false)
}

func BenchmarkServeCacheMiss(b *testing.B) {
	srv, done := benchServer(b)
	defer done()
	benchSubmit(b, srv, true)
}

// BenchmarkMutantSweep runs the 53-job catalog sweep — every library
// protocol and each of its mutants that needs no strict check, the jobs a
// {"sweep": {"mutants": true}} batch expands to — through runSymbolic and
// through runEnum at strict n=4, engine plus witness audit, one sweep per
// op. witnesses/op counts the audited violations, the work the run-level
// audit shares across prefixes. ccbench runs it by default:
//
//	go run ./cmd/ccbench -pkg ./internal/serve -bench BenchmarkMutantSweep -count 5 -benchtime 5x
func BenchmarkMutantSweep(b *testing.B) {
	names := protocols.Names()
	sort.Strings(names)
	var protos []*fsm.Protocol
	for _, name := range names {
		p, err := protocols.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		protos = append(protos, p)
		for _, m := range mutate.Catalog(p) {
			protos = append(protos, m.Protocol)
		}
	}
	for _, c := range []struct {
		name string
		opts JobOptions
		run  func(context.Context, *fsm.Protocol, JobOptions, *obs.Registry) (*Report, error)
	}{
		{"symbolic", JobOptions{Engine: EngineSymbolic}, runSymbolic},
		{"enum-strict-n4", JobOptions{Engine: EngineEnumStrict, N: 4}, runEnum},
	} {
		b.Run(c.name, func(b *testing.B) {
			if err := c.opts.normalize(); err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			witnesses := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range protos {
					rep, err := c.run(ctx, p, c.opts, nil)
					if err != nil {
						b.Fatal(err)
					}
					witnesses += len(rep.Violations)
				}
			}
			b.ReportMetric(float64(len(protos)), "jobs")
			b.ReportMetric(float64(witnesses)/float64(b.N), "witnesses/op")
		})
	}
}

// BenchmarkReportEncode renders the strict n=4 enumeration sweep's 53
// reports the way a /v1/verify/batch stream does: each report once into
// its indented cache form, then spliced into its NDJSON row. The engine
// runs happen before the timer starts.
//
//	go test -run '^$' -bench BenchmarkReportEncode -benchmem ./internal/serve
func BenchmarkReportEncode(b *testing.B) {
	jobs := sweepJobs(b, JobOptions{Engine: EngineEnumStrict, N: 4})
	reps := make([]*Report, len(jobs))
	for i := range jobs {
		bj := &jobs[i]
		rep, _, err := runVerification(context.Background(), bj.Proto, bj.Key, bj.Opts, nil)
		if err != nil {
			b.Fatal(err)
		}
		reps[i] = rep
	}
	var row []byte
	reportBytes := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reportBytes = 0
		for k, rep := range reps {
			payload := encodeReport(rep)
			line := BatchLine{Index: k, Protocol: rep.Protocol, CacheKey: rep.CacheKey,
				State: StateDone, Disposition: BatchComputed, Attempts: 1, Report: payload}
			row = appendBatchLine(row[:0], &line)
			reportBytes += len(payload)
		}
	}
	b.ReportMetric(float64(len(reps)), "reports")
	b.ReportMetric(float64(reportBytes)/(1<<20), "MiB/sweep")
}
