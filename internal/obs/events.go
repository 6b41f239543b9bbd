package obs

import (
	"sync"
	"time"
)

// Decisions are the routing choices of one request that the metrics only
// count and spans only time: forward errors, standby and degraded serves,
// failed peer snapshot fetches. Each is recorded as an instant Span named
// after its kind, tagged with the request's trace, a "level" attr and its
// details as args, in a ring of its own (EventLog): a busy server wraps its
// request ring in under a second, and that must not push decisions out.
// /v1/trace/{id} reads them back by trace (ByTrace). A fact that belongs to
// no request (a breaker flip, a quarantine, an eviction) is a counter, not a
// decision. Debug/Info decisions are token-bucket limited; Warn and above
// are never shed.

// Level is a decision's severity.
type Level uint8

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the lowercase level name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	default:
		return "error"
	}
}

const (
	decisionCapacity = 4096             // decisions the ring keeps
	decisionRate     = 500              // Debug/Info decisions admitted per second, sustained
	decisionBurst    = 2 * decisionRate // token bucket depth
)

// EventLogConfig configures NewEventLog. The zero value is usable.
type EventLogConfig struct {
	// Now overrides the clock (tests).
	Now func() time.Time
}

// EventLog is the decision ring. Emit is safe on a nil receiver; all
// methods are safe for concurrent use.
type EventLog struct {
	cfg  EventLogConfig
	ring Ring[Span]

	mu     sync.Mutex // guards the token bucket
	tokens float64
	last   time.Time
}

// NewEventLog builds a decision ring; see EventLogConfig.
func NewEventLog(cfg EventLogConfig) *EventLog {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &EventLog{cfg: cfg, ring: Ring[Span]{max: decisionCapacity}, tokens: decisionBurst, last: cfg.Now()}
}

// Emit records one decision as an instant span. Debug/Info decisions beyond
// the rate limit are dropped.
func (l *EventLog) Emit(level Level, name string, trace TraceID, args ...Arg) {
	if l == nil {
		return
	}
	now := l.cfg.Now()
	if level < LevelWarn && !l.admit(now) {
		return
	}
	sp := Span{Trace: trace, Name: name, Start: SpanTime(now), Instant: true,
		Args: append(Args{A("level", level.String())}, args...)}
	if !trace.IsZero() {
		sp.ID = NewSpanID()
	}
	l.ring.Add(sp)
}

// admit takes a token from the bucket, refilled at decisionRate.
func (l *EventLog) admit(now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if dt := now.Sub(l.last).Seconds(); dt > 0 {
		l.tokens = min(l.tokens+dt*decisionRate, decisionBurst)
		l.last = now
	}
	if l.tokens < 1 {
		return false
	}
	l.tokens--
	return true
}

// Events returns the buffered decisions, oldest first.
func (l *EventLog) Events() []Span { return l.ring.Snapshot(nil) }

// ByTrace returns the buffered decisions of one trace, oldest first.
func (l *EventLog) ByTrace(t TraceID) []Span {
	return l.ring.Snapshot(func(s *Span) bool { return s.Trace == t })
}
