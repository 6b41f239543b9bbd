// Package obs is the zero-dependency observability core: one span model
// (one record in one lock-cheap ring, exportable as Chrome trace_event JSON
// for chrome://tracing / Perfetto), a metrics registry (counters, gauges,
// histograms with a Prometheus text-exposition writer), a ring of decisions
// recorded as instant spans, and the Observer that carries them through the
// pipeline.
//
// Every hook is nil-safe: instrumented packages call methods on a possibly
// nil *Observer / *Span / *Counter, and a nil receiver compiles down to a
// single pointer check — when observability is disabled (the default) the
// instrumented paths do no allocation, take no lock and record nothing.
// obs imports only the standard library.
package obs

import "context"

// Observer groups the observability sinks threaded through the
// pipeline: the metrics registry, the decision ring and the span ring. Any
// field may be nil to enable a subset; a nil *Observer disables everything.
type Observer struct {
	Metrics *Registry
	Events  *EventLog
	Spans   *SpanRing

	// Set on the per-call observer For returns for a deep trace: the
	// trace, the parent span and the node its spans are stamped with.
	tc   TraceContext
	node string
}

// For returns the observer one public call records through, chosen from the
// call's input: when ctx carries a deep trace with a span sink
// (WithTraceContext) a per-call copy writing to that ring under that trace's
// span, else o itself — its own ring in library mode, metrics alone, or
// nil. Callers resolve it once per call and hand it down; nothing per-call
// is stored on an engine.
func (o *Observer) For(ctx context.Context) *Observer {
	if ctx == nil {
		return o
	}
	ct, _ := ctx.Value(traceCtxKey{}).(ctxTrace)
	if !ct.Deep || ct.ring == nil {
		return o
	}
	per := &Observer{Spans: ct.ring, tc: ct.TraceContext, node: ct.node}
	if o != nil {
		per.Metrics, per.Events = o.Metrics, o.Events
	}
	return per
}

// Tracing reports whether a span sink is attached. Guard span construction
// on it where the arguments cost something: Span.Arg boxes its value even
// for a nil span.
func (o *Observer) Tracing() bool { return o != nil && o.Spans != nil }

// Event records a decision on the observer's decision ring; nil-safe.
func (o *Observer) Event(level Level, name string, trace TraceID, args ...Arg) {
	if o != nil {
		o.Events.Emit(level, name, trace, args...)
	}
}

// RecordSpan adds a completed span to the ring; nil-safe.
func (o *Observer) RecordSpan(sp Span) {
	if o.Tracing() {
		o.Spans.Add(sp)
	}
}

// Span opens a span on a lane (see Span.Lane); it is recorded when End is
// called. Nil-safe: without a span sink it returns a nil span that ignores
// Arg and End.
func (o *Observer) Span(cat, name string, lane int) *Span {
	if !o.Tracing() {
		return nil
	}
	s := &Span{Trace: o.tc.Trace, Parent: o.tc.Span, Cat: cat, Name: name, Node: o.node, Lane: lane, Start: spanNow(), ring: o.Spans}
	if !s.Trace.IsZero() {
		s.ID = NewSpanID()
	}
	return s
}

// Instant records a zero-duration span (breaker flips, failovers); nil-safe.
func (o *Observer) Instant(cat, name string, lane int, args ...Arg) {
	if s := o.Span(cat, name, lane); s != nil {
		s.Instant, s.Args = true, args
		s.End()
	}
}

// Reg returns the metrics registry, or nil when metrics are off. Registry
// accessors and instrument mutators are themselves nil-safe, so call
// sites chain freely: o.Reg().Counter(...).Add(1).
func (o *Observer) Reg() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// NameLane labels a trace lane; nil-safe.
func (o *Observer) NameLane(lane int, name string) {
	if o.Tracing() {
		o.Spans.NameLane(lane, name)
	}
}
