// Package resilience implements the self-healing backend ladder: an
// ordered list of independently-implemented matching backends
// (bitstream-GPU → hybrid Aho-Corasick → NFA reference) that serve the
// same request, so a faulting primary degrades instead of failing.
//
// Three mechanisms compose:
//
//   - Retry with jittered backoff: faults classified transient
//     (errors.Is(err, bgerr.ErrTransient) — e.g. a failed kernel launch)
//     are retried on the same backend up to MaxRetries times. Terminal
//     faults (ErrLimit, ErrUnsupported, ErrCanceled) are never retried
//     and never fall over: they are the caller's answer.
//   - A circuit breaker per backend (closed → open → half-open): after
//     BreakerThreshold consecutive failover-class failures the backend
//     stops being attempted; after BreakerCooldown one probe is admitted,
//     and its outcome closes or re-opens the breaker.
//   - Sampled differential cross-checking: a configurable fraction of
//     calls served by a non-reference backend is re-executed on the
//     reference (last) backend and the match sets compared. A mismatch
//     quarantines the serving backend — pinned open, no probes, until an
//     explicit Reset — and the reference result is returned.
//
// Determinism: backoff jitter and sampling decisions derive from the
// configured seed and a call counter (splitmix64), never from the clock
// or global rand, so failing schedules reproduce. The clock and sleep
// functions are injectable for tests. A Ladder is safe for concurrent
// use.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"bitgen/internal/bgerr"
	"bitgen/internal/obs"
)

// Class is the resilience disposition of an error.
type Class int

const (
	// ClassAbort: terminal — return to the caller; no retry, no failover.
	// Resource limits and unsupported requests are deterministic refusals
	// (every backend honors the same contract), and a canceled context
	// means the caller no longer wants an answer.
	ClassAbort Class = iota
	// ClassRetry: transient — retry the same backend with backoff.
	ClassRetry
	// ClassFailover: this backend cannot serve the request (contained
	// panic, corrupted state, unknown fault) but another rung may.
	ClassFailover
)

func (c Class) String() string {
	switch c {
	case ClassAbort:
		return "abort"
	case ClassRetry:
		return "retry"
	case ClassFailover:
		return "failover"
	}
	return "unknown"
}

// Classify maps an error onto the bgerr taxonomy's resilience classes.
func Classify(err error) Class {
	switch {
	case err == nil:
		return ClassAbort
	case errors.Is(err, bgerr.ErrCanceled),
		errors.Is(err, bgerr.ErrLimit),
		errors.Is(err, bgerr.ErrUnsupported):
		return ClassAbort
	case errors.Is(err, bgerr.ErrTransient):
		return ClassRetry
	default:
		// *bgerr.InternalError (contained panics) and anything unknown:
		// assume the backend, not the request, is at fault.
		return ClassFailover
	}
}

// Backend is one ladder rung: an independent matcher producing the
// pattern → sorted-match-end-positions map for an input. Patterns with no
// matches must be omitted (so match sets compare across backends that
// materialize empty streams differently). The aux return is an opaque
// backend-specific payload handed back in Outcome.Aux on success (the
// bitstream backend uses it to carry modeled execution stats).
type Backend interface {
	Name() string
	Run(ctx context.Context, input []byte) (positions map[string][]int, aux any, err error)
}

// Outcome is one served request.
type Outcome struct {
	// Backend is the name of the rung that produced Positions.
	Backend string
	// Positions maps each pattern with ≥1 match to its sorted end
	// positions.
	Positions map[string][]int
	// Aux is the serving backend's opaque payload.
	Aux any
	// CrossChecked reports that this call was sampled for differential
	// cross-checking; Mismatch reports that the check failed and the
	// result came from the reference backend instead.
	CrossChecked, Mismatch bool
	// Attempts counts backend attempts made to serve this call (1 on the
	// happy path; retries and fallbacks add up).
	Attempts int
}

// Config parameterizes a Ladder. The zero value gives the documented
// defaults.
type Config struct {
	// MaxRetries bounds same-backend retries of transient faults.
	// Zero means 2; negative disables retries.
	MaxRetries int
	// RetryBaseDelay is the backoff base: attempt k sleeps
	// base·2^k·jitter with jitter uniform in [0.5, 1.5). Zero means 1ms.
	RetryBaseDelay time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// backend's breaker. Zero means 3; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects attempts before
	// admitting a half-open probe. Zero means 5s.
	BreakerCooldown time.Duration
	// CrossCheckFraction in [0,1] is the sampled share of non-reference
	// calls re-executed on the reference backend. Zero disables.
	CrossCheckFraction float64
	// Seed drives the deterministic jitter and sampling decisions.
	Seed uint64
	// Now and Sleep are test hooks; nil selects time.Now / time.Sleep.
	Now   func() time.Time
	Sleep func(time.Duration)
	// Obs, when non-nil, receives ladder spans (rung attempts, failover
	// and breaker transitions, cross-checks) and mirrors the Health
	// counters into the metrics registry. Nil is free.
	Obs *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBaseDelay == 0 {
		c.RetryBaseDelay = time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerThreshold < 0 {
		c.BreakerThreshold = 0 // breaker never opens on failure counts
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.CrossCheckFraction < 0 {
		c.CrossCheckFraction = 0
	}
	if c.CrossCheckFraction > 1 {
		c.CrossCheckFraction = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// BackendHealth is one rung's observable state.
type BackendHealth struct {
	Name                string
	State               State
	Quarantined         bool
	ConsecutiveFailures int
	// Attempts counts admitted attempts (including retries), Successes
	// served calls, Failures failover-class outcomes, Retries transient
	// retries, Skips attempts rejected by the breaker.
	Attempts, Successes, Failures, Retries, Skips uint64
	// LastFailure is the most recent failure or quarantine reason.
	LastFailure string
}

// Health is a point-in-time snapshot of the ladder.
type Health struct {
	// Backends lists every rung in ladder order.
	Backends []BackendHealth
	// Calls counts ladder invocations; Fallbacks those served by a rung
	// other than the first; CrossChecks sampled differential checks;
	// Mismatches checks that caught a wrong match set.
	Calls, Fallbacks, CrossChecks, Mismatches uint64
}

// ErrNoBackend is wrapped into the error returned when every rung failed
// or was rejected by its breaker.
var ErrNoBackend = errors.New("resilience: no backend could serve the request")

// Ladder runs requests down an ordered backend list. The last backend is
// the reference implementation used for differential cross-checking.
type Ladder struct {
	backends []Backend
	breakers []*breaker
	cfg      Config
	m        ladderMetrics

	calls       atomic.Uint64
	fallbacks   atomic.Uint64
	crossChecks atomic.Uint64
	mismatches  atomic.Uint64
	ctr         atomic.Uint64 // jitter + sampling decision counter
}

// ladderMetrics holds pre-registered counter handles mirroring the
// Health counters into the metrics registry. All fields are nil when
// metrics are off; *obs.Counter methods are nil-safe, so Run updates
// them unconditionally.
type ladderMetrics struct {
	calls, fallbacks, retries, crossChecks, mismatches *obs.Counter
	served, failures                                   []*obs.Counter // per rung, ladder order
}

// New builds a ladder over the backends, first-to-last in preference
// order. At least one backend is required.
func New(backends []Backend, cfg Config) (*Ladder, error) {
	if len(backends) == 0 {
		return nil, errors.New("resilience: ladder needs at least one backend")
	}
	cfg = cfg.withDefaults()
	l := &Ladder{backends: backends, cfg: cfg}
	// Register every series eagerly — including all breaker destination
	// states — so a scrape before the first failover still exposes the
	// full schema and golden tests see a stable name set. reg and the
	// counters it returns are nil-safe, so this is free when metrics are
	// off.
	reg := cfg.Obs.Reg()
	l.m = ladderMetrics{
		calls:       reg.Counter(obs.MLadderCalls, obs.HLadderCalls),
		fallbacks:   reg.Counter(obs.MLadderFallbacks, obs.HLadderFallbacks),
		retries:     reg.Counter(obs.MLadderRetries, obs.HLadderRetries),
		crossChecks: reg.Counter(obs.MLadderCrossChecks, obs.HLadderCrossChecks),
		mismatches:  reg.Counter(obs.MLadderMismatches, obs.HLadderMismatches),
	}
	for _, b := range backends {
		name := b.Name()
		br := &breaker{
			threshold: cfg.BreakerThreshold,
			cooldown:  cfg.BreakerCooldown,
		}
		l.m.served = append(l.m.served,
			reg.Counter(obs.MBackendServed, obs.HBackendServed, obs.L("backend", name)))
		l.m.failures = append(l.m.failures,
			reg.Counter(obs.MBackendFailures, obs.HBackendFailures, obs.L("backend", name)))
		for _, to := range []State{Closed, Open, HalfOpen} {
			reg.Counter(obs.MBreakerFlips, obs.HBreakerFlips,
				obs.L("backend", name), obs.L("to", to.String()))
		}
		if o := cfg.Obs; o != nil {
			br.onState = func(from, to State, reason string) {
				o.Reg().Counter(obs.MBreakerFlips, obs.HBreakerFlips,
					obs.L("backend", name), obs.L("to", to.String())).Inc()
				level := obs.LevelInfo
				if to == Open {
					level = obs.LevelWarn
				}
				o.Event(level, "breaker", obs.TraceID{},
					obs.FStr("layer", "ladder"), obs.FStr("backend", name),
					obs.FStr("from", from.String()), obs.FStr("to", to.String()),
					obs.FStr("reason", reason))
			}
		}
		l.breakers = append(l.breakers, br)
	}
	return l, nil
}

// Backends returns the rung names in ladder order.
func (l *Ladder) Backends() []string {
	names := make([]string, len(l.backends))
	for i, b := range l.backends {
		names[i] = b.Name()
	}
	return names
}

// Run serves one request: walk the rungs, retry transient faults,
// fall over on backend faults, abort on terminal ones, and sample
// differential cross-checks against the reference rung.
func (l *Ladder) Run(ctx context.Context, input []byte) (*Outcome, error) {
	l.calls.Add(1)
	l.m.calls.Inc()
	o := l.cfg.Obs.For(ctx)
	rspan := o.Span("resilience", "ladder-run", 0).Arg("input_bytes", len(input))
	defer rspan.End()
	ref := len(l.backends) - 1
	attempts := 0
	var lastErr error
	for i, b := range l.backends {
		br := l.breakers[i]
		if !br.allow(l.cfg.Now()) {
			o.Instant("resilience", "rung-skipped", 0, obs.A("backend", b.Name()))
			continue
		}
		aspan := o.Span("resilience", "rung:"+b.Name(), 0)
		pos, aux, err := l.attempt(ctx, o, i, input, &attempts)
		if err == nil {
			aspan.End()
			out := &Outcome{Backend: b.Name(), Positions: pos, Aux: aux, Attempts: attempts}
			if i != ref && l.sampleCrossCheck() {
				out.CrossChecked = true
				l.crossChecks.Add(1)
				l.m.crossChecks.Inc()
				cspan := o.Span("resilience", "cross-check", 0).
					Arg("serving", b.Name()).Arg("reference", l.backends[ref].Name())
				refPos, _, refErr := l.backends[ref].Run(ctx, input)
				if refErr == nil && !Equal(pos, refPos) {
					cspan.Arg("mismatch", true).End()
					l.mismatches.Add(1)
					l.m.mismatches.Inc()
					br.quarantine(l.cfg.Now(), fmt.Sprintf(
						"differential cross-check mismatch vs %s", l.backends[ref].Name()))
					l.fallbacks.Add(1)
					l.m.fallbacks.Inc()
					l.m.failures[i].Inc()
					l.m.served[ref].Inc()
					rspan.Arg("backend", l.backends[ref].Name())
					return &Outcome{
						Backend: l.backends[ref].Name(), Positions: refPos,
						CrossChecked: true, Mismatch: true, Attempts: attempts + 1,
					}, nil
				}
				cspan.Arg("mismatch", false).End()
			}
			br.success()
			if i != 0 {
				l.fallbacks.Add(1)
				l.m.fallbacks.Inc()
			}
			l.m.served[i].Inc()
			rspan.Arg("backend", b.Name()).Arg("attempts", attempts)
			return out, nil
		}
		if Classify(err) == ClassAbort {
			aspan.Arg("error", "abort").End()
			br.abandon()
			rspan.Arg("error", err.Error())
			return nil, err
		}
		aspan.Arg("error", "failover").End()
		o.Instant("resilience", "failover", 0,
			obs.A("from", b.Name()), obs.A("error", err.Error()))
		l.m.failures[i].Inc()
		br.failure(l.cfg.Now(), err)
		lastErr = err
	}
	rspan.Arg("error", "no-backend")
	if lastErr != nil {
		return nil, fmt.Errorf("%w: last failure: %w", ErrNoBackend, lastErr)
	}
	return nil, ErrNoBackend
}

// attempt runs one backend, retrying transient faults with jittered
// exponential backoff. It returns the first non-transient error, the
// error after retry exhaustion, or the successful result.
func (l *Ladder) attempt(ctx context.Context, o *obs.Observer, i int, input []byte, attempts *int) (map[string][]int, any, error) {
	b := l.backends[i]
	for try := 0; ; try++ {
		*attempts++
		pos, aux, err := b.Run(ctx, input)
		if err == nil {
			return pos, aux, nil
		}
		if Classify(err) != ClassRetry || try >= l.cfg.MaxRetries {
			return nil, nil, err
		}
		l.breakers[i].mu.Lock()
		l.breakers[i].retries++
		l.breakers[i].mu.Unlock()
		l.m.retries.Inc()
		o.Instant("resilience", "retry", 0,
			obs.A("backend", b.Name()), obs.A("try", try))
		l.cfg.Sleep(l.backoff(try))
		if ctx != nil && ctx.Err() != nil {
			return nil, nil, bgerr.Canceled(ctx.Err())
		}
	}
}

// backoff is base·2^try scaled by a deterministic jitter in [0.5, 1.5).
func (l *Ladder) backoff(try int) time.Duration {
	if try > 20 {
		try = 20
	}
	d := l.cfg.RetryBaseDelay << uint(try)
	u := float64(splitmix(l.cfg.Seed^0x6a09e667f3bcc908, l.ctr.Add(1))) / float64(^uint64(0))
	return time.Duration(float64(d) * (0.5 + u))
}

// sampleCrossCheck decides deterministically (seed + counter) whether
// this call is re-executed on the reference backend.
func (l *Ladder) sampleCrossCheck() bool {
	f := l.cfg.CrossCheckFraction
	if f <= 0 {
		return false
	}
	if f >= 1 {
		return true
	}
	u := float64(splitmix(l.cfg.Seed^0xbb67ae8584caa73b, l.ctr.Add(1))) / float64(^uint64(0))
	return u < f
}

// Health snapshots every rung plus the ladder counters.
func (l *Ladder) Health() Health {
	h := Health{
		Calls:       l.calls.Load(),
		Fallbacks:   l.fallbacks.Load(),
		CrossChecks: l.crossChecks.Load(),
		Mismatches:  l.mismatches.Load(),
	}
	for i, b := range l.backends {
		bh := l.breakers[i].snapshot()
		bh.Name = b.Name()
		h.Backends = append(h.Backends, bh)
	}
	return h
}

// Sizer is optionally implemented by backends whose compiled state stays
// resident for the engine's lifetime (the fallback rungs' automata). The
// primary bitstream rung deliberately does not implement it: its state is
// the engine itself, which the caller accounts separately.
type Sizer interface {
	ResidentBytes() int64
}

// ResidentBytes sums the durable compiled state of every rung that
// reports one.
func (l *Ladder) ResidentBytes() int64 {
	var n int64
	for _, b := range l.backends {
		if s, ok := b.(Sizer); ok {
			n += s.ResidentBytes()
		}
	}
	return n
}

// Reset closes the named backend's breaker and clears its quarantine,
// reporting whether the name matched a rung.
func (l *Ladder) Reset(name string) bool {
	for i, b := range l.backends {
		if b.Name() == name {
			l.breakers[i].reset()
			return true
		}
	}
	return false
}

// Equal reports whether two match sets are identical. Both sides must
// omit empty position lists (the Backend contract).
func Equal(a, b map[string][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for name, ap := range a {
		bp, ok := b[name]
		if !ok || len(ap) != len(bp) {
			return false
		}
		for i := range ap {
			if ap[i] != bp[i] {
				return false
			}
		}
	}
	return true
}

// splitmix is splitmix64 over seed and a counter: the deterministic
// decision function behind jitter and sampling.
func splitmix(seed, n uint64) uint64 {
	z := seed + n*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
