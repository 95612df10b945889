// Package replay is the trace-driven workload engine: it materializes the
// synthetic generators of internal/trace into a versioned on-disk trace
// format, streams trace files back through the concrete multiprocessor
// simulator (internal/sim) at millions of operations per second, and
// renders deterministic per-protocol comparison reports on the classic
// Archibald & Baer axes (miss ratio, bus transactions per operation,
// invalidations versus broadcast updates).
//
// The paper's evaluation is analytic, but its protocol suite descends from
// the trace-driven simulation tradition: "processor op address" lines
// replayed through a set of private caches with hit/miss/invalidation
// statistics, compared protocol against protocol on one identical
// reference stream. This package is that methodology as a subsystem:
//
//   - format.go: the cctrace v1 text format (a "#"-comment header carrying
//     schema and cache-count metadata, then one "<cache> <op> <hex-addr>"
//     line per reference) plus a Writer that materializes any
//     trace.Workload deterministically.
//   - scanner.go: a streaming parser with line-numbered typed errors,
//     transparent gzip decompression, and address→block mapping with a
//     configurable block size.
//   - gen.go: a registry of the synthetic generators (uniform, hot-block,
//     migratory, producer-consumer, false-sharing, lock) behind a
//     canonical, digestable WorkloadSpec.
//   - replay.go: the replay engine — batched decoding into pooled slices
//     feeding sim.Machine.RunRefs, runctl budgets and cancellation at
//     operation boundaries, periodic obs progress events, and a fan-out
//     mode replaying one decoded stream through N protocols concurrently.
//   - report.go: the deterministic JSON + table comparison report.
//
// The same engine backs the cctrace CLI (gen/replay/compare) and the
// verification service's POST /v1/simulate job type.
package replay
