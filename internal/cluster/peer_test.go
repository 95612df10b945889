package cluster

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// testPeer builds a peer with tight, explicit thresholds.
func testPeer(t *testing.T) *peer {
	t.Helper()
	cfg := Config{
		SuspectAfter:    1,
		DownAfter:       3,
		BreakerFailures: 3,
		BreakerCooldown: 10 * time.Second,
	}.withDefaults()
	return newPeer("http://p:1", cfg, obs.NewRegistry())
}

func TestHealthMachineWalksDownAndHealsInstantly(t *testing.T) {
	p := testPeer(t)
	now := time.Unix(1000, 0)
	if got := p.status(); got.Health != "healthy" {
		t.Fatalf("born %s, want healthy", got.Health)
	}
	p.failure(now)
	if got := p.status(); got.Health != "suspect" {
		t.Fatalf("after 1 failure: %s, want suspect", got.Health)
	}
	p.failure(now)
	p.failure(now)
	if got := p.status(); got.Health != "down" {
		t.Fatalf("after 3 failures: %s, want down", got.Health)
	}
	p.success()
	if got := p.status(); got.Health != "healthy" || got.ConsecutiveFailures != 0 {
		t.Fatalf("after success: %+v, want healthy with streak reset", got)
	}
}

func TestBreakerOpensHalfOpensAndCloses(t *testing.T) {
	p := testPeer(t)
	now := time.Unix(1000, 0)

	// Three consecutive failures trip the breaker.
	for i := 0; i < 3; i++ {
		if !p.allow(now) {
			t.Fatalf("closed breaker denied request %d", i)
		}
		p.failure(now)
	}
	if got := p.status(); got.Breaker != "open" {
		t.Fatalf("breaker %s after %d failures, want open", got.Breaker, 3)
	}
	if p.allow(now.Add(time.Second)) {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}

	// Past the cooldown it half-opens and admits exactly one trial.
	later := now.Add(11 * time.Second)
	if !p.allow(later) {
		t.Fatal("breaker did not half-open after the cooldown")
	}
	if got := p.status(); got.Breaker != "half-open" {
		t.Fatalf("breaker %s, want half-open", got.Breaker)
	}
	if p.allow(later) {
		t.Fatal("half-open breaker admitted a second concurrent trial")
	}

	// A successful trial closes it.
	p.success()
	if got := p.status(); got.Breaker != "closed" || got.Health != "healthy" {
		t.Fatalf("after trial success: %+v, want closed/healthy", got)
	}
	if !p.allow(later) {
		t.Fatal("closed breaker denied a request")
	}
}

func TestBreakerReopensOnFailedTrial(t *testing.T) {
	p := testPeer(t)
	now := time.Unix(1000, 0)
	for i := 0; i < 3; i++ {
		p.failure(now)
	}
	later := now.Add(11 * time.Second)
	if !p.allow(later) {
		t.Fatal("no half-open trial")
	}
	p.failure(later)
	if got := p.status(); got.Breaker != "open" {
		t.Fatalf("breaker %s after failed trial, want open", got.Breaker)
	}
	// The fresh cooldown counts from the failed trial, not the first trip.
	if p.allow(later.Add(9 * time.Second)) {
		t.Fatal("re-opened breaker admitted a request before a full new cooldown")
	}
	if !p.allow(later.Add(11 * time.Second)) {
		t.Fatal("re-opened breaker never half-opened again")
	}
}

func TestLatencyTrackerQuantile(t *testing.T) {
	tr := &LatencyWindow{}
	if _, ok := tr.Quantile(0.9); ok {
		t.Fatal("quantile with no samples reported ok")
	}
	for i := 1; i <= 10; i++ {
		tr.Observe(time.Duration(i) * time.Millisecond)
	}
	p90, ok := tr.Quantile(0.9)
	if !ok {
		t.Fatal("quantile with 10 samples not ok")
	}
	if p90 < 8*time.Millisecond || p90 > 10*time.Millisecond {
		t.Errorf("p90 of 1..10ms = %v, want in [8ms, 10ms]", p90)
	}
	// The window slides: flooding with large samples moves the quantile up.
	for i := 0; i < latencyRing; i++ {
		tr.Observe(time.Second)
	}
	if p90, _ := tr.Quantile(0.9); p90 != time.Second {
		t.Errorf("p90 after window turnover = %v, want 1s", p90)
	}
}
