package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one benchmark-side interval around a call into a layer.
type span struct {
	name       string
	start, end time.Duration // since the recorder was created
	parent     int           // index of the enclosing span, -1 for a root
	lane       int           // client goroutine; one trace track each
}

// recorder keeps spans in memory until the pass ends. A nil recorder is the
// untraced pass: begin and end do nothing, so the timed phase pays a nil
// check per op and no clock read.
type recorder struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

func (r *recorder) begin(name string, parent, lane int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: time.Since(r.t0), end: -1, parent: parent, lane: lane})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].end = time.Since(r.t0)
}

// timed runs f inside a span and returns how long it took. The ledger's
// numbers are these durations, so a layer metric and its span always agree.
func (r *recorder) timed(name string, parent int, f func()) time.Duration {
	id := r.begin(name, parent, 0)
	start := time.Now()
	f()
	d := time.Since(start)
	r.end(id)
	return d
}

// selfTimes is each span's duration minus the part its children cover.
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// traceEvent is a Chrome trace_event "complete" event, the schema
// cmd/obscheck -trace validates.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// write stores the spans as a Chrome trace (load it in chrome://tracing or
// Perfetto); args carry the parent span, the workload and the self time.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := r.selfTimes()
	events := make([]traceEvent, 0, len(r.spans))
	for i, s := range r.spans {
		if s.end < 0 {
			continue
		}
		events = append(events, traceEvent{
			Name: s.name, Ph: "X", Ts: micros(s.start), Dur: micros(s.end - s.start), Pid: 1, Tid: s.lane,
			Args: map[string]any{"id": i, "parent": s.parent, "workload": r.workload, "self_us": micros(self[i])},
		})
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
