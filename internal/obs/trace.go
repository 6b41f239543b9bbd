package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// DefaultTraceCapacity is the ring-buffer size (in completed events) when
// TracerConfig.Capacity is zero: large enough for a full compile + scan
// over hundreds of CTA groups, small enough to stay a few MiB resident.
const DefaultTraceCapacity = 1 << 16

// Arg is one key/value annotation attached to a span or instant event.
type Arg struct {
	Key string
	Val any
}

// A is shorthand for constructing an Arg.
func A(key string, val any) Arg { return Arg{Key: key, Val: val} }

// Event is one completed trace record. Start is relative to the tracer's
// epoch; Dur is zero for instant events.
type Event struct {
	Name string
	Cat  string
	Lane int
	Ph   byte // 'X' complete span, 'i' instant
	Sta  time.Duration
	Dur  time.Duration
	Args []Arg
}

// TracerConfig parameterizes a Tracer.
type TracerConfig struct {
	// Capacity is the ring size in events; zero means
	// DefaultTraceCapacity. When the ring wraps, the oldest events are
	// overwritten and counted as dropped.
	Capacity int
	// Now is the clock; nil means time.Now. Tests inject a fake clock for
	// deterministic timestamps.
	Now func() time.Time
}

// Tracer records spans into a fixed-capacity ring. Recording one event
// takes one short critical section (a slot store and a counter bump), so
// tracing stays cheap even with concurrent kernel-launch goroutines; there
// is no per-span allocation beyond the span handle and its args.
type Tracer struct {
	now   func() time.Time
	epoch time.Time

	mu    sync.Mutex
	ring  []Event
	total uint64 // events ever recorded; ring holds the most recent len(ring)
	lanes map[int]string
}

// NewTracer builds a tracer; the epoch (trace time zero) is now.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultTraceCapacity
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Tracer{
		now:   cfg.Now,
		epoch: cfg.Now(),
		ring:  make([]Event, 0, cfg.Capacity),
		lanes: make(map[int]string),
	}
}

// Span is an in-flight span handle. A nil *Span (tracing disabled) ignores
// every method.
type Span struct {
	t    *Tracer
	cat  string
	name string
	lane int
	sta  time.Duration
	args []Arg
}

// Start opens a span on a lane (a Chrome-trace tid: lane 0 is the
// pipeline control flow, kernel launches use 1+group). The span is
// recorded when End is called.
func (t *Tracer) Start(cat, name string, lane int) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, cat: cat, name: name, lane: lane, sta: t.now().Sub(t.epoch)}
}

// Arg attaches an annotation; returns the span for chaining. Nil-safe.
func (s *Span) Arg(key string, val any) *Span {
	if s == nil {
		return nil
	}
	s.args = append(s.args, Arg{Key: key, Val: val})
	return s
}

// End completes and records the span. Nil-safe; End on an already-ended
// span records a duplicate, so call it exactly once (defer works).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.record(Event{
		Name: s.name, Cat: s.cat, Lane: s.lane, Ph: 'X',
		Sta: s.sta, Dur: s.t.now().Sub(s.t.epoch) - s.sta, Args: s.args,
	})
}

// Instant records a zero-duration event (breaker flips, failovers).
func (t *Tracer) Instant(cat, name string, lane int, args ...Arg) {
	if t == nil {
		return
	}
	t.record(Event{Name: name, Cat: cat, Lane: lane, Ph: 'i', Sta: t.now().Sub(t.epoch), Args: args})
}

// NameLane labels a lane for the trace viewer's thread list.
func (t *Tracer) NameLane(lane int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.lanes[lane] = name
	t.mu.Unlock()
}

func (t *Tracer) record(ev Event) {
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev)
	} else {
		t.ring[t.total%uint64(cap(t.ring))] = ev
	}
	t.total++
	t.mu.Unlock()
}

// Len returns the number of buffered events; Dropped the number
// overwritten after the ring wrapped.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total > uint64(cap(t.ring)) {
		return t.total - uint64(cap(t.ring))
	}
	return 0
}

// Events returns the buffered events in recording order (oldest first).
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.ring))
	if t.total > uint64(cap(t.ring)) {
		head := int(t.total % uint64(cap(t.ring)))
		out = append(out, t.ring[head:]...)
		out = append(out, t.ring[:head]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// chromeEvent is one trace_event JSON record (the subset of the Chrome
// Trace Event Format that chrome://tracing and Perfetto consume).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

const tracePID = 1

// WriteChromeTrace serializes the buffered events as Chrome trace_event
// JSON ("JSON Object Format"): open the file directly in chrome://tracing
// or ui.perfetto.dev. Lanes become threads; metadata events carry the
// process and lane names.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: tracing is not enabled")
	}
	events := t.Events()
	t.mu.Lock()
	laneNames := make(map[int]string, len(t.lanes))
	for k, v := range t.lanes {
		laneNames[k] = v
	}
	dropped := uint64(0)
	if t.total > uint64(cap(t.ring)) {
		dropped = t.total - uint64(cap(t.ring))
	}
	t.mu.Unlock()

	out := chromeTrace{DisplayTimeUnit: "ns"}
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", Pid: tracePID, Tid: 0,
		Args: map[string]any{"name": "bitgen"},
	})
	// Name every lane that appears, registered or not, so the viewer's
	// thread list is complete and deterministic.
	seen := map[int]bool{}
	for _, ev := range events {
		seen[ev.Lane] = true
	}
	lanes := make([]int, 0, len(seen))
	for lane := range seen {
		lanes = append(lanes, lane)
	}
	sort.Ints(lanes)
	for _, lane := range lanes {
		name := laneNames[lane]
		if name == "" {
			if lane == 0 {
				name = "pipeline"
			} else {
				name = fmt.Sprintf("lane-%d", lane)
			}
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: tracePID, Tid: lane,
			Args: map[string]any{"name": name},
		})
	}
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Name, Cat: ev.Cat, Pid: tracePID, Tid: ev.Lane,
			Ts: float64(ev.Sta) / float64(time.Microsecond),
		}
		if len(ev.Args) > 0 {
			ce.Args = make(map[string]any, len(ev.Args))
			for _, a := range ev.Args {
				ce.Args[a.Key] = a.Val
			}
		}
		switch ev.Ph {
		case 'X':
			ce.Ph = "X"
			dur := float64(ev.Dur) / float64(time.Microsecond)
			ce.Dur = &dur
		default:
			ce.Ph = "i"
			ce.Scope = "t"
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	if dropped > 0 {
		out.OtherData = map[string]any{"droppedEvents": dropped}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
