package cluster

import (
	"sync"
	"time"
)

// BreakerState is a peer breaker's position.
type BreakerState int

const (
	// breakerClosed: the peer is healthy; forwards flow through.
	breakerClosed BreakerState = iota
	// breakerOpen: the peer failed repeatedly; forwards skip it until the
	// cooldown elapses, then one half-open probe is admitted.
	breakerOpen
	// breakerHalfOpen: the cooldown elapsed and one probe is in flight; its
	// outcome closes or re-opens the breaker.
	breakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is one peer's circuit breaker; the zero state is closed. All
// methods are safe for concurrent use; time is supplied by the caller so
// tests control it.
type breaker struct {
	mu        sync.Mutex
	state     BreakerState
	threshold int           // consecutive failures that open the breaker; <= 0 never opens on a streak
	cooldown  time.Duration // open duration before a half-open probe
	openedAt  time.Time
	probing   bool // a half-open probe is in flight
	// jitterSeed, when non-zero, scales each open's effective cooldown by a
	// deterministic factor in [0.5, 1.5) derived from (seed, opens): when
	// every peer of a partitioned node opens at the same instant, their
	// half-open probes spread out instead of arriving as one storm.
	jitterSeed  uint64
	opens       uint64
	effCooldown time.Duration // cooldown chosen at the most recent open
	// onState, when non-nil, observes every state transition. It is
	// invoked outside the lock and must be safe for concurrent use.
	onState func(from, to BreakerState)

	consecFails int
	lastFailure string
}

// notify reports a state change to the observer hook, outside the lock.
func (b *breaker) notify(from, to BreakerState) {
	if from != to && b.onState != nil {
		b.onState(from, to)
	}
}

// allow reports whether an attempt may proceed now. A true return in
// half-open state claims the single probe slot; the caller must report the
// outcome via success or failure (or release it via abandon).
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	from := b.state
	switch b.state {
	case breakerClosed:
		b.mu.Unlock()
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) >= b.effCooldown {
			b.state = breakerHalfOpen
			b.probing = true
			b.mu.Unlock()
			b.notify(from, breakerHalfOpen)
			return true
		}
	case breakerHalfOpen:
		if !b.probing {
			b.probing = true
			b.mu.Unlock()
			return true
		}
	}
	b.mu.Unlock()
	return false
}

// success records a served attempt: the breaker closes and the failure
// streak resets.
func (b *breaker) success() {
	b.mu.Lock()
	b.consecFails = 0
	from := b.state
	b.state = breakerClosed
	b.probing = false
	b.mu.Unlock()
	b.notify(from, breakerClosed)
}

// failure records a failed attempt; the breaker opens when the streak
// reaches the threshold or when a half-open probe fails.
func (b *breaker) failure(now time.Time, err error) {
	b.mu.Lock()
	b.consecFails++
	b.lastFailure = err.Error()
	from := b.state
	b.probing = false
	opened := from == breakerHalfOpen || (b.threshold > 0 && b.consecFails >= b.threshold)
	if opened {
		b.state = breakerOpen
		b.openedAt = now
		b.opens++
		b.effCooldown = b.cooldown
		if b.jitterSeed != 0 {
			u := float64(splitmix(b.jitterSeed^0x3c6ef372fe94f82b, b.opens)) / float64(^uint64(0))
			b.effCooldown = time.Duration(float64(b.cooldown) * (0.5 + u))
		}
	}
	b.mu.Unlock()
	if opened {
		b.notify(from, breakerOpen)
	}
}

// abandon releases a claimed probe slot without judging the peer (the
// attempt aborted for caller-side reasons, e.g. cancellation).
func (b *breaker) abandon() {
	b.mu.Lock()
	from := b.state
	if b.state == breakerHalfOpen {
		b.state = breakerOpen
	}
	b.probing = false
	to := b.state
	b.mu.Unlock()
	b.notify(from, to)
}

// snapshot copies the observable state (URL and Name are the caller's).
func (b *breaker) snapshot() PeerHealth {
	b.mu.Lock()
	defer b.mu.Unlock()
	return PeerHealth{
		State:               b.state,
		ConsecutiveFailures: b.consecFails,
		LastFailure:         b.lastFailure,
	}
}

// splitmix is splitmix64 over seed and a counter: the deterministic
// decision function behind the cooldown jitter.
func splitmix(seed, n uint64) uint64 {
	z := seed + n*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
