package obs

import (
	"encoding/json"
	"io"
	"maps"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The one span model: one record (Span) in one ring (Ring) drawn by one
// Chrome trace_event writer (WriteChromeTrace). An engine's own trace and a
// server's request spans are the same record in the same kind of ring, and a
// request that arrives tagged has its engine spans recorded into the
// server's ring under its request span (Observer.For).

// DefaultSpanCapacity is the size of an engine's own span ring: enough for a
// full compile + scan over hundreds of CTA groups.
const DefaultSpanCapacity = 1 << 16

// Arg is one key/value annotation on a span.
type Arg struct {
	Key string
	Val any
}

// A is shorthand for constructing an Arg.
func A(key string, val any) Arg { return Arg{Key: key, Val: val} }

// Span is the span record, and — while its ring field is set — the handle of
// a span still open. Start is nanoseconds on the process's span clock
// (spanNow): anchored to the wall clock once, monotonic after, so spans of
// different nodes merge on one timeline and spans of one process never
// reorder. IDs are zero outside a distributed trace. The JSON form (trace
// fragments) keeps the request-span keys every release has written
// and adds cat / lane / instant when set; IDs are hexed and times cut to
// microseconds only there.
type Span struct {
	Trace   TraceID `json:"trace"`
	ID      SpanID  `json:"span"`
	Parent  SpanID  `json:"parent"`
	Cat     string  `json:"cat,omitempty"` // "compile", "scan", "kernel", …; "" for a request span
	Name    string  `json:"name"`
	Node    string  `json:"node"`           // recording node's advertised URL; "" in library mode
	Lane    int     `json:"lane,omitempty"` // Chrome tid: 0 the pipeline, 1+g CTA group g, <0 scan stages
	Start   int64   `json:"start_us"`
	Dur     int64   `json:"dur_us"` // zero for an instant
	Instant bool    `json:"instant,omitempty"`
	Status  int     `json:"status,omitempty"` // HTTP status of a request span
	Args    Args    `json:"attrs,omitempty"`

	ring *SpanRing // open spans only: where End records
}

var spanEpoch = time.Now()

// SpanTime places t on the span clock.
func SpanTime(t time.Time) int64 { return spanEpoch.UnixNano() + int64(t.Sub(spanEpoch)) }

func spanNow() int64 { return spanEpoch.UnixNano() + int64(time.Since(spanEpoch)) }

// Arg attaches an annotation; returns the span for chaining. Nil-safe, but
// the argument is boxed before the nil check: guard hot paths on Tracing.
func (s *Span) Arg(key string, val any) *Span {
	if s == nil {
		return nil
	}
	s.Args = append(s.Args, Arg{Key: key, Val: val})
	return s
}

// End completes and records the span. Nil-safe; call it exactly once.
func (s *Span) End() {
	if s == nil {
		return
	}
	if !s.Instant {
		s.Dur = spanNow() - s.Start
	}
	r := s.ring
	s.ring = nil
	r.Add(*s)
}

type wireSpan Span // Span without its methods: the default encoding of its tags

// MarshalJSON cuts the times to microseconds. The duration is the difference
// of the truncated end and start, so spans nested in nanoseconds stay nested.
func (s Span) MarshalJSON() ([]byte, error) {
	end := (s.Start + s.Dur) / 1e3
	s.Start /= 1e3
	s.Dur = end - s.Start
	return json.Marshal(wireSpan(s))
}

func (s *Span) UnmarshalJSON(data []byte) error {
	err := json.Unmarshal(data, (*wireSpan)(s))
	s.Start, s.Dur = s.Start*1e3, s.Dur*1e3
	return err
}

// Args is a span's annotations, in the order they were attached; a JSON
// object on the wire, read back sorted by key.
type Args []Arg

func (a Args) MarshalJSON() ([]byte, error) { return json.Marshal(a.asMap()) }

func (a *Args) UnmarshalJSON(data []byte) error {
	var m map[string]any
	err := json.Unmarshal(data, &m)
	for k, v := range m {
		*a = append(*a, Arg{Key: k, Val: v})
	}
	sort.Slice(*a, func(i, j int) bool { return (*a)[i].Key < (*a)[j].Key })
	return err
}

// Get returns the value of the named annotation, nil when absent.
func (a Args) Get(key string) any {
	for _, arg := range a {
		if arg.Key == key {
			return arg.Val
		}
	}
	return nil
}

func (a Args) asMap() map[string]any {
	m := make(map[string]any, len(a)+4)
	for _, arg := range a {
		m[arg.Key] = arg.Val
	}
	return m
}

// Ring is the one bounded history buffer, under request, engine and
// decision spans alike: it grows by append up to its capacity, then
// overwrites the oldest entry and counts it dropped. Safe for concurrent use.
type Ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	max   int    // capacity
	total uint64 // entries ever added
}

// Add records one entry.
func (r *Ring[T]) Add(v T) {
	r.mu.Lock()
	if len(r.buf) < r.max {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.total%uint64(r.max)] = v
	}
	r.total++
	r.mu.Unlock()
}

// Snapshot copies out the buffered entries that keep accepts (nil accepts
// all), oldest first.
func (r *Ring[T]) Snapshot(keep func(*T) bool) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, len(r.buf))
	head := 0
	if len(r.buf) == r.max {
		head = int(r.total % uint64(r.max))
	}
	for i := range r.buf {
		if v := &r.buf[(head+i)%len(r.buf)]; keep == nil || keep(v) {
			out = append(out, *v)
		}
	}
	return out
}

// Total returns the number of entries ever added; Dropped how many of them
// the ring has overwritten.
func (r *Ring[T]) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

func (r *Ring[T]) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - uint64(len(r.buf))
}

// SpanRing is a ring of spans plus the names of the lanes they sit on.
type SpanRing struct {
	Ring[Span]
	lanes map[int]string // under Ring.mu
}

// NewSpanRing builds a span ring that keeps the last capacity spans.
func NewSpanRing(capacity int) *SpanRing {
	return &SpanRing{Ring: Ring[Span]{max: capacity}, lanes: make(map[int]string)}
}

// NameLane labels a lane for the trace viewer's thread list.
func (r *SpanRing) NameLane(lane int, name string) {
	r.mu.Lock()
	r.lanes[lane] = name
	r.mu.Unlock()
}

// Fragment is one node's share of a trace — what GET /v1/trace/{id} serves
// and what the Chrome writer draws as one process.
type Fragment struct {
	Node    string         `json:"node"`
	TraceID string         `json:"trace_id,omitempty"`
	Spans   []Span         `json:"spans"`
	Lanes   map[int]string `json:"lanes,omitempty"`
	Dropped uint64         `json:"dropped,omitempty"`
}

// UnmarshalJSON also reads the "events" section a node from before
// decisions were spans still sends ({t_us, level, type, trace, fields}),
// appending each as an instant span after the fragment's spans.
func (f *Fragment) UnmarshalJSON(data []byte) error {
	type plain Fragment
	var v struct {
		plain
		Events []struct {
			T      int64   `json:"t_us"`
			Level  string  `json:"level"`
			Type   string  `json:"type"`
			Trace  TraceID `json:"trace"`
			Fields Args    `json:"fields"`
		} `json:"events"`
	}
	err := json.Unmarshal(data, &v)
	*f = Fragment(v.plain)
	for _, ev := range v.Events {
		f.Spans = append(f.Spans, Span{Trace: ev.Trace, Name: ev.Type, Start: ev.T * 1e3, Instant: true,
			Args: append(Args{A("level", ev.Level)}, ev.Fields...)})
	}
	return err
}

// Fragment snapshots the ring as node's fragment: the spans of one trace,
// or with a zero trace every buffered span. Spans is never nil, so the JSON
// form always carries the array.
func (r *SpanRing) Fragment(node string, trace TraceID) Fragment {
	f := Fragment{Node: node, TraceID: trace.String()}
	var keep func(*Span) bool
	if !trace.IsZero() {
		keep = func(s *Span) bool { return s.Trace == trace }
	}
	f.Spans, f.Dropped = r.Snapshot(keep), r.Dropped()
	r.mu.Lock()
	f.Lanes = maps.Clone(r.lanes)
	r.mu.Unlock()
	return f
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

// WriteChromeTrace draws fragments as Chrome trace_event JSON ("JSON Object
// Format"; open it in chrome://tracing or ui.perfetto.dev): one process per
// fragment (pid = index + 1, named by its node), one thread per lane, spans
// as complete ("X") events or thread-scoped instants. Timestamps are microseconds from the earliest
// record, so the viewer opens at t=0.
func WriteChromeTrace(w io.Writer, frags []Fragment) error {
	t0, dropped := int64(math.MaxInt64), uint64(0)
	for _, f := range frags {
		dropped += f.Dropped
		for i := range f.Spans {
			t0 = min(t0, f.Spans[i].Start)
		}
	}
	events := []chromeEvent{}
	add := func(name, cat, ph string, ns int64, pid, tid int, args map[string]any) *chromeEvent {
		events = append(events, chromeEvent{Name: name, Cat: cat, Ph: ph, Ts: float64(ns) / 1e3, Pid: pid, Tid: tid, Args: args})
		return &events[len(events)-1]
	}
	for i, f := range frags {
		pid := i + 1
		add("process_name", "", "M", 0, pid, 0, map[string]any{"name": f.Node})
		named := map[int]bool{}
		for i := range f.Spans {
			s, args := &f.Spans[i], f.Spans[i].Args.asMap()
			if !named[s.Lane] {
				// Every lane that appears gets a thread_name, labelled or not.
				name := f.Lanes[s.Lane]
				if name == "" && s.Lane == 0 {
					name = "pipeline"
				} else if name == "" {
					name = "lane-" + strconv.Itoa(s.Lane)
				}
				named[s.Lane] = true
				add("thread_name", "", "M", 0, pid, s.Lane, map[string]any{"name": name})
			}
			if !s.Trace.IsZero() {
				args["trace"], args["span"] = s.Trace.String(), s.ID.String()
			}
			if !s.Parent.IsZero() {
				args["parent"] = s.Parent.String()
			}
			if s.Status != 0 {
				args["status"] = s.Status
			}
			if ce := add(s.Name, s.Cat, "X", s.Start-t0, pid, s.Lane, args); s.Instant {
				ce.Ph, ce.Scope = "i", "t"
			} else {
				dur := float64(s.Dur) / 1e3
				ce.Dur = &dur
			}
		}
	}
	doc := struct {
		TraceEvents     []chromeEvent  `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData,omitempty"`
	}{TraceEvents: events, DisplayTimeUnit: "ns"}
	if dropped > 0 {
		doc.OtherData = map[string]any{"droppedEvents": dropped}
	}
	return json.NewEncoder(w).Encode(doc)
}
