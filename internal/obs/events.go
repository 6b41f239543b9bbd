package obs

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"time"
)

// The structured event log records the decision points the metrics only
// count and spans only time: breaker state transitions, hedge
// winners and losers, degraded/standby serves, snapshot quarantines and
// scrub verdicts, cache evictions. Events are leveled, ring-buffered
// (newest overwrite oldest), rate-limited below Warn, tagged with the
// distributed trace ID, and rendered as JSON only at export time. Like
// every obs hook, a nil *EventLog is inert: Emit on nil is a no-op with
// zero allocations, so disabled observability stays free.

// Level is the event severity.
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

type fieldKind uint8

const (
	fieldString fieldKind = iota
	fieldInt
	fieldFloat
	fieldBool
)

// Field is one typed key/value attribute on an event. Values are held
// unboxed (no interface) so copying a Field into the ring never
// allocates and the disabled path keeps the caller's variadic slice on
// the stack.
type Field struct {
	Key  string
	str  string
	num  int64
	f    float64
	b    bool
	kind fieldKind
}

// FStr builds a string field.
func FStr(key, val string) Field { return Field{Key: key, str: val, kind: fieldString} }

// FInt builds an integer field.
func FInt(key string, val int64) Field { return Field{Key: key, num: val, kind: fieldInt} }

// FFloat builds a float field.
func FFloat(key string, val float64) Field { return Field{Key: key, f: val, kind: fieldFloat} }

// FBool builds a boolean field.
func FBool(key string, val bool) Field { return Field{Key: key, b: val, kind: fieldBool} }

// Value returns the field's value boxed (export-time only).
func (f Field) Value() any {
	switch f.kind {
	case fieldInt:
		return f.num
	case fieldFloat:
		return f.f
	case fieldBool:
		return f.b
	default:
		return f.str
	}
}

// StringValue renders the field's value as a string (anomaly matching
// and tests).
func (f Field) StringValue() string {
	switch f.kind {
	case fieldInt:
		return strconv.FormatInt(f.num, 10)
	case fieldFloat:
		return strconv.FormatFloat(f.f, 'g', -1, 64)
	case fieldBool:
		return strconv.FormatBool(f.b)
	default:
		return f.str
	}
}

// MaxEventFields caps the attributes stored per event; extra fields are
// dropped (the count is preserved in the event itself, not metrics —
// callers control their own arity).
const MaxEventFields = 8

// LogEvent is one recorded event. Fields is a fixed array so ring slots
// are flat and writes copy values instead of retaining caller slices.
type LogEvent struct {
	TimeUnixMicro int64
	Level         Level
	Type          string
	Trace         TraceID
	NFields       uint8
	Fields        [MaxEventFields]Field
}

// Field returns the string rendering of the named attribute.
func (e LogEvent) Field(key string) (string, bool) {
	for i := 0; i < int(e.NFields); i++ {
		if e.Fields[i].Key == key {
			return e.Fields[i].StringValue(), true
		}
	}
	return "", false
}

// MarshalJSON renders the event as a flat JSON object:
// {"t_us":..., "level":"warn", "type":"breaker", "trace":"<32hex>",
// "fields":{...}}. encoding/json sorts map keys, so the rendering is
// deterministic.
func (e LogEvent) MarshalJSON() ([]byte, error) {
	fields := make(map[string]any, e.NFields)
	for i := 0; i < int(e.NFields); i++ {
		fields[e.Fields[i].Key] = e.Fields[i].Value()
	}
	v := struct {
		TimeUnixMicro int64          `json:"t_us"`
		Level         string         `json:"level"`
		Type          string         `json:"type"`
		Trace         string         `json:"trace,omitempty"`
		Fields        map[string]any `json:"fields,omitempty"`
	}{e.TimeUnixMicro, e.Level.String(), e.Type, e.Trace.String(), fields}
	return json.Marshal(v)
}

// UnmarshalJSON parses the MarshalJSON rendering back into a LogEvent —
// the stitcher decodes other nodes' trace fragments with it. JSON
// numbers decode as float64; integral values are restored to int fields
// so round-tripped events render identically.
func (e *LogEvent) UnmarshalJSON(data []byte) error {
	var v struct {
		TimeUnixMicro int64   `json:"t_us"`
		Level         string  `json:"level"`
		Type          string  `json:"type"`
		Trace         TraceID `json:"trace"`
		Fields        Args    `json:"fields"` // sorted by key: a stable field order
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*e = LogEvent{TimeUnixMicro: v.TimeUnixMicro, Type: v.Type, Trace: v.Trace}
	for e.Level < LevelError && e.Level.String() != v.Level {
		e.Level++
	}
	for _, a := range v.Fields {
		if int(e.NFields) == MaxEventFields {
			break
		}
		k := a.Key
		var f Field
		switch val := a.Val.(type) {
		case bool:
			f = FBool(k, val)
		case float64:
			if val == math.Trunc(val) && math.Abs(val) < 1<<53 {
				f = FInt(k, int64(val))
			} else {
				f = FFloat(k, val)
			}
		case string:
			f = FStr(k, val)
		default:
			b, _ := json.Marshal(val)
			f = FStr(k, string(b))
		}
		e.Fields[e.NFields] = f
		e.NFields++
	}
	return nil
}

// DefaultEventCapacity is the event ring size when the config leaves it
// zero.
const DefaultEventCapacity = 4096

// DefaultEventRate is the sustained events/second admitted below Warn
// when the config leaves it zero.
const DefaultEventRate = 500

// EventLogConfig configures NewEventLog. The zero value is usable.
type EventLogConfig struct {
	// Capacity is the ring size (DefaultEventCapacity if zero).
	Capacity int
	// MinLevel drops events below it at the Emit call.
	MinLevel Level
	// RatePerSec token-bucket-limits Debug/Info events
	// (DefaultEventRate if zero, negative disables limiting). Warn and
	// Error always bypass the limiter: anomalies must not be shed.
	RatePerSec float64
	// Burst is the token bucket depth (2×rate if zero).
	Burst float64
	// Now overrides the clock (tests).
	Now func() time.Time
	// Metrics, when set, registers bitgen_obs_events_total{level} and
	// bitgen_obs_events_dropped_total.
	Metrics *Registry
	// OnEvent, when set, is invoked synchronously (outside the ring
	// lock) for every admitted event at Warn or above — the anomaly
	// flight-recorder trigger. It must not call back into the log.
	OnEvent func(LogEvent)
}

// EventLog is the ring-buffered structured event log. All methods are
// safe on a nil receiver and for concurrent use.
type EventLog struct {
	cfg      EventLogConfig // defaults filled in
	emitted  [4]*Counter
	droppedC *Counter

	ring Ring[LogEvent] // the admitted events

	mu      sync.Mutex // guards the rate limiter below
	dropped uint64     // rate-limited drops
	tokens  float64
	last    time.Time
}

// NewEventLog builds an event log; see EventLogConfig.
func NewEventLog(cfg EventLogConfig) *EventLog {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultEventCapacity
	}
	if cfg.RatePerSec == 0 {
		cfg.RatePerSec = DefaultEventRate
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 2 * cfg.RatePerSec
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	l := &EventLog{cfg: cfg, ring: Ring[LogEvent]{max: cfg.Capacity}, tokens: cfg.Burst, last: cfg.Now()}
	if cfg.Metrics != nil {
		for lv := LevelDebug; lv <= LevelError; lv++ {
			l.emitted[lv] = cfg.Metrics.Counter(MObsEvents, HObsEvents, L("level", lv.String()))
		}
		l.droppedC = cfg.Metrics.Counter(MObsEventsDropped, HObsEventsDropped)
	}
	return l
}

// Emit records one event. Nil receivers and sub-MinLevel events return
// immediately; Debug/Info events beyond the rate limit are counted as
// dropped. The variadic fields never escape on the disabled path.
func (l *EventLog) Emit(level Level, typ string, trace TraceID, fields ...Field) {
	if l == nil || level < l.cfg.MinLevel {
		return
	}
	var ev LogEvent
	ev.Level = level
	ev.Type = typ
	ev.Trace = trace
	n := copy(ev.Fields[:], fields)
	ev.NFields = uint8(n)

	now := l.cfg.Now()
	ev.TimeUnixMicro = now.UnixMicro()

	if l.cfg.RatePerSec > 0 && level < LevelWarn {
		l.mu.Lock()
		dt := now.Sub(l.last).Seconds()
		if dt > 0 {
			l.tokens = min(l.tokens+dt*l.cfg.RatePerSec, l.cfg.Burst)
			l.last = now
		}
		if l.tokens < 1 {
			l.dropped++
			l.mu.Unlock()
			l.droppedC.Inc()
			return
		}
		l.tokens--
		l.mu.Unlock()
	}
	l.ring.Add(ev)

	if c := l.emitted[level]; c != nil {
		c.Inc()
	}
	if l.cfg.OnEvent != nil && level >= LevelWarn {
		l.cfg.OnEvent(ev)
	}
}

// Events returns the buffered events, oldest first.
func (l *EventLog) Events() []LogEvent {
	if l == nil {
		return nil
	}
	return l.ring.Snapshot(nil)
}

// ByTrace returns the buffered events carrying the given trace ID,
// oldest first.
func (l *EventLog) ByTrace(t TraceID) []LogEvent {
	if l == nil || t.IsZero() {
		return nil
	}
	return l.ring.Snapshot(func(e *LogEvent) bool { return e.Trace == t })
}

// Dropped returns the number of rate-limited events.
func (l *EventLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Total returns the number of events ever admitted to the ring.
func (l *EventLog) Total() uint64 {
	if l == nil {
		return 0
	}
	return l.ring.Total()
}
