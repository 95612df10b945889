package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"

	"repro/internal/ccpsl"
	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/protocols"
)

// Engine names accepted by the service: core.Run's.
const (
	EngineSymbolic     = core.EngineSymbolic
	EngineEnumStrict   = core.EngineEnumStrict
	EngineEnumCounting = core.EngineEnumCounting
)

// maxEnumN caps the cache count a request may ask an enumeration engine
// for; the state space grows as mⁿ, so an uncapped n is a denial-of-service
// knob.
const maxEnumN = 12

// maxWorkers caps the parallel width a request may ask for; goroutines are
// cheap but not free, and the engines gain nothing beyond the host's cores.
const maxWorkers = 16

// JobOptions are the engine-facing options that shape a verification
// result and therefore participate in the cache key. Per-request execution
// knobs that cannot change a completed verdict (deadline, cache bypass) are
// deliberately excluded.
type JobOptions struct {
	// Engine is symbolic (default), enum-strict or enum-counting.
	Engine string `json:"engine,omitempty"`
	// N is the cache count for enumeration engines (default 4, ignored
	// and zeroed for symbolic).
	N int `json:"n,omitempty"`
	// Strict enables the CleanShared memory-consistency extension check.
	Strict bool `json:"strict,omitempty"`
	// MaxStates bounds distinct states (enum) or state visits (symbolic);
	// 0 means the engine default. A run that trips it fails rather than
	// returning a partial verdict, so it is part of the key only for
	// completeness of the options rendering.
	MaxStates int `json:"max_states,omitempty"`
	// Workers is the engine width: the level-synchronous BFS's workers
	// (enum) or the speculation pipeline's (symbolic); 0 or 1 runs one
	// worker, on the job's goroutine. Every width gives the same result,
	// but the knob still enters the cache key so a cached verdict always
	// names the exact configuration that produced it.
	Workers int `json:"workers,omitempty"`
}

// normalize fills defaults and validates the options in place.
func (o *JobOptions) normalize() error {
	if o.Engine == "" {
		o.Engine = EngineSymbolic
	}
	switch o.Engine {
	case EngineSymbolic:
		// The symbolic expansion is independent of the cache count; zero
		// it so "symbolic n=3" and "symbolic n=4" share a cache entry.
		o.N = 0
	case EngineEnumStrict, EngineEnumCounting:
		if o.N == 0 {
			o.N = 4
		}
		if o.N < 2 || o.N > maxEnumN {
			return fmt.Errorf("serve: n=%d out of range [2, %d]", o.N, maxEnumN)
		}
	default:
		return fmt.Errorf("serve: unknown engine %q (have %s, %s, %s)",
			o.Engine, EngineSymbolic, EngineEnumStrict, EngineEnumCounting)
	}
	if o.MaxStates < 0 {
		return fmt.Errorf("serve: negative max_states %d", o.MaxStates)
	}
	if o.Workers == 0 {
		// Sequential is the default; canonicalize so "workers omitted" and
		// "workers: 1" share a cache entry.
		o.Workers = 1
	}
	if o.Workers < 1 || o.Workers > maxWorkers {
		return fmt.Errorf("serve: workers=%d out of range [1, %d]", o.Workers, maxWorkers)
	}
	return nil
}

// keySchema versions the cache-key derivation. Bump it whenever the
// canonical spec rendering, the options rendering or the report schema
// changes meaning, so stale disk-tier entries from older builds can never
// be served as current results.
const keySchema = 3 // v3: the simulate job kind joined the key namespace

// CacheKey derives the content address of a verification result: the
// SHA-256 over a versioned rendering of the engine options followed by the
// canonical ccpsl specification. Deterministic by construction, and
// collision-resistant enough that the key alone identifies the result.
func CacheKey(canonicalSpec string, o JobOptions) string {
	h := sha256.New()
	fmt.Fprintf(h, "ccserve-key-v%d\x00engine=%s\x00n=%d\x00strict=%t\x00maxstates=%d\x00workers=%d\x00",
		keySchema, o.Engine, o.N, o.Strict, o.MaxStates, o.Workers)
	io.WriteString(h, canonicalSpec)
	return hex.EncodeToString(h.Sum(nil))
}

// SimulateCacheKey derives the content address of a simulation result: the
// SHA-256 over a versioned rendering of the protocol fan-out and the replay
// options, followed by the trace identity — "trace:" plus the digest of the
// submitted trace bytes, or "workload:" plus the canonical workload spec
// for server-generated traces. The protocol list is keyed in request order
// because the report preserves that order, and byte-identical cached
// responses are the contract. It shares keySchema with CacheKey, so a bump
// retires both namespaces together.
func SimulateCacheKey(identity string, protoNames []string, o SimOptions) string {
	h := sha256.New()
	fmt.Fprintf(h, "ccserve-simkey-v%d\x00protocols=%s\x00blocksize=%d\x00maxblocks=%d\x00capacity=%d\x00maxops=%d\x00strict=%t\x00",
		keySchema, strings.Join(protoNames, ","), o.BlockSize, o.MaxBlocks, o.Capacity, o.MaxOps, o.Strict)
	io.WriteString(h, identity)
	return hex.EncodeToString(h.Sum(nil))
}

// ResolveSpec turns a request's protocol source — a library protocol name
// or an inline ccpsl specification, exactly one of which must be set —
// into the parsed protocol and its canonical ccpsl rendering. The
// canonical form, not the submitted text, feeds CacheKey: Parse∘Format is
// idempotent, so every spelling of a protocol maps to one cache entry.
func ResolveSpec(protocol, spec string) (*fsm.Protocol, string, error) {
	var p *fsm.Protocol
	var err error
	switch {
	case protocol != "" && spec != "":
		return nil, "", fmt.Errorf("serve: request must set either protocol or spec, not both")
	case protocol != "":
		p, err = protocols.ByName(protocol)
	case spec != "":
		p, err = ccpsl.Parse(spec)
	default:
		return nil, "", fmt.Errorf("serve: request must set protocol or spec")
	}
	if err != nil {
		return nil, "", err
	}
	if err := p.Validate(); err != nil {
		return nil, "", err
	}
	return p, ccpsl.Format(p), nil
}
