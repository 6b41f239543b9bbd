package cluster

import (
	"errors"
	"testing"
	"time"
)

// TestBreakerLifecycle walks a peer breaker through closed → open →
// half-open → closed with a controlled clock.
func TestBreakerLifecycle(t *testing.T) {
	var flips []string
	br := &breaker{
		threshold: 2,
		cooldown:  time.Second,
		onState: func(from, to BreakerState) {
			flips = append(flips, from.String()+">"+to.String())
		},
	}
	now := time.Unix(1000, 0)
	boom := errors.New("boom")

	if !br.allow(now) {
		t.Fatal("closed breaker rejected an attempt")
	}
	br.failure(now, boom)
	if br.state != breakerClosed {
		t.Fatalf("state after 1 failure = %v, want closed", br.state)
	}
	if !br.allow(now) {
		t.Fatal("breaker under threshold rejected an attempt")
	}
	br.failure(now, boom)
	if br.state != breakerOpen {
		t.Fatalf("state after threshold failures = %v, want open", br.state)
	}
	if h := br.snapshot(); h.ConsecutiveFailures != 2 || h.LastFailure != "boom" {
		t.Fatalf("snapshot when open = %+v, want 2 consecutive failures", h)
	}
	if br.allow(now.Add(500 * time.Millisecond)) {
		t.Fatal("open breaker admitted an attempt before cooldown")
	}
	if !br.allow(now.Add(1100 * time.Millisecond)) {
		t.Fatal("cooled-down breaker refused the half-open probe")
	}
	if br.state != breakerHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", br.state)
	}
	// Only one probe is admitted.
	if br.allow(now.Add(1200 * time.Millisecond)) {
		t.Fatal("second probe admitted while the first is in flight")
	}
	br.success()
	if br.state != breakerClosed {
		t.Fatalf("state after probe success = %v, want closed", br.state)
	}
	want := []string{"closed>open", "open>half-open", "half-open>closed"}
	if len(flips) != len(want) {
		t.Fatalf("flips = %v, want %v", flips, want)
	}
	for i := range want {
		if flips[i] != want[i] {
			t.Fatalf("flips = %v, want %v", flips, want)
		}
	}
	// A success ends the streak but keeps the last error for /v1/cluster.
	if h := br.snapshot(); h.ConsecutiveFailures != 0 || h.LastFailure != "boom" {
		t.Fatalf("snapshot after recovery = %+v", h)
	}
}

// TestBreakerJitter proves a jittered cooldown stays within [0.5, 1.5) of
// the configured cooldown, varies across opens, and reproduces exactly for
// a fixed seed.
func TestBreakerJitter(t *testing.T) {
	cooldowns := func(seed uint64, opens int) []time.Duration {
		br := &breaker{threshold: 1, cooldown: time.Second, jitterSeed: seed}
		now := time.Unix(2000, 0)
		var out []time.Duration
		if !br.allow(now) {
			t.Fatal("closed breaker refused")
		}
		br.failure(now, errors.New("x")) // first open
		for i := 0; i < opens; i++ {
			// Measure this open's effective cooldown by stepping the clock
			// until a half-open probe is admitted, then fail the probe to
			// re-open with a fresh jittered cooldown.
			step := 10 * time.Millisecond
			var waited time.Duration
			for !br.allow(now.Add(waited)) {
				waited += step
				if waited > 2*time.Second {
					t.Fatal("cooldown exceeded the jitter upper bound")
				}
			}
			out = append(out, waited)
			now = now.Add(waited)
			br.failure(now, errors.New("x"))
		}
		return out
	}
	a := cooldowns(42, 6)
	b := cooldowns(42, 6)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter not deterministic: %v vs %v", a, b)
		}
		if a[i] < 500*time.Millisecond || a[i] >= 1510*time.Millisecond {
			t.Fatalf("open %d cooldown %v outside [0.5s, 1.5s)", i, a[i])
		}
	}
	distinct := map[time.Duration]bool{}
	for _, d := range a {
		distinct[d] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("jitter produced no variation across opens: %v", a)
	}
}
