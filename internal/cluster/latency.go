package cluster

import (
	"sort"
	"sync"
	"time"
)

// latencyRing is the sample window behind the adaptive hedge deadlines.
const latencyRing = 64

// latencyMinSamples is how many observations the window wants before it
// trusts its quantile over the caller's static default.
const latencyMinSamples = 8

// LatencyWindow keeps a fixed ring of recent successful call latencies and
// answers quantile queries over it. It is the data source for the adaptive
// hedge deadlines — the client's peer fetches and the service's batch
// forwards: hedge when a call is slower than most recent successes were.
// The zero value is an empty window, safe for concurrent use.
type LatencyWindow struct {
	mu   sync.Mutex
	ring [latencyRing]time.Duration
	n    int // samples stored (caps at latencyRing)
	idx  int // next write position
}

// Observe records one successful call latency.
func (t *LatencyWindow) Observe(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring[t.idx] = d
	t.idx = (t.idx + 1) % latencyRing
	if t.n < latencyRing {
		t.n++
	}
}

// Quantile returns the q-quantile (0 < q <= 1) of the window — the sample
// at rank int(q·n)−1 of the n sorted samples, clamped to [0, n−1] — or
// ok=false while fewer than latencyMinSamples observations exist.
func (t *LatencyWindow) Quantile(q float64) (time.Duration, bool) {
	t.mu.Lock()
	n := t.n
	samples := make([]time.Duration, n)
	copy(samples, t.ring[:n])
	t.mu.Unlock()
	if n < latencyMinSamples {
		return 0, false
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
	i := int(q*float64(n)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return samples[i], true
}
