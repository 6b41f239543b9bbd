package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
)

// TraceHeader is the cross-node trace-propagation header. Its value is
// "<32-hex trace id>-<16-hex span id>[-<0|1>]": the 128-bit trace ID names
// the whole distributed request, the 64-bit span ID is the sender's span so
// the receiver can parent its own span under it, and the optional third
// field is the deep bit (TraceContext.Deep; absent means 0, which is what a
// peer from before the field existed sends). It travels alongside
// X-Bitgen-Forwarded and X-Bitgen-Deadline-Ms on every cluster forward
// (the failover attempt included) and snapshot fetch.
const TraceHeader = "X-Bitgen-Trace"

// TraceID is a 128-bit distributed request identifier. The zero value
// means "no trace".
type TraceID [16]byte

// SpanID is a 64-bit span identifier within a trace.
type SpanID [8]byte

// IsZero reports whether the trace ID is absent.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the trace ID as 32 lowercase hex digits ("" if zero).
func (t TraceID) String() string {
	if t.IsZero() {
		return ""
	}
	return hex.EncodeToString(t[:])
}

// IsZero reports whether the span ID is absent.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the span ID as 16 lowercase hex digits ("" if zero).
func (s SpanID) String() string {
	if s.IsZero() {
		return ""
	}
	return hex.EncodeToString(s[:])
}

// MarshalText / UnmarshalText put the IDs into JSON as their hex strings; an
// absent or malformed one reads back as zero.
func (t TraceID) MarshalText() ([]byte, error) { return []byte(t.String()), nil }
func (s SpanID) MarshalText() ([]byte, error)  { return []byte(s.String()), nil }
func (t *TraceID) UnmarshalText(b []byte) error {
	*t, _ = ParseTraceID(string(b))
	return nil
}
func (s *SpanID) UnmarshalText(b []byte) error {
	*s, _ = parseSpanID(string(b))
	return nil
}

// ParseTraceID parses a 32-hex-digit trace ID.
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if len(s) != 32 {
		return TraceID{}, false
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil || t.IsZero() {
		return TraceID{}, false
	}
	return t, true
}

// NewTraceID returns a fresh non-zero 128-bit trace ID. IDs are drawn from
// math/rand/v2's randomly seeded per-thread generator: collision-resistant
// across nodes, no syscall and no shared counter per request.
func NewTraceID() TraceID {
	var t TraceID
	binary.LittleEndian.PutUint64(t[0:8], rand.Uint64())
	binary.LittleEndian.PutUint64(t[8:16], rand.Uint64()|1) // never zero
	return t
}

// NewSpanID returns a fresh non-zero 64-bit span ID.
func NewSpanID() SpanID {
	var s SpanID
	binary.LittleEndian.PutUint64(s[:], rand.Uint64()|1)
	return s
}

// TraceContext is what propagates: the request's trace ID, the current
// node's span within it, and whether the trace is deep — its caller tagged
// the request with a trace ID of its own choosing, so whoever serves it
// records the engine's spans under the request span (Observer.For), not the
// request span alone. The bit is read from the request, never configured.
type TraceContext struct {
	Trace TraceID
	Span  SpanID
	Deep  bool
}

// NewTraceContext mints a fresh trace with a root span.
func NewTraceContext() TraceContext {
	return TraceContext{Trace: NewTraceID(), Span: NewSpanID()}
}

// Child returns a new span in the same trace.
func (tc TraceContext) Child() TraceContext {
	return TraceContext{Trace: tc.Trace, Span: NewSpanID(), Deep: tc.Deep}
}

// Header renders the X-Bitgen-Trace wire value ("" for a zero context).
func (tc TraceContext) Header() string {
	if tc.Trace.IsZero() {
		return ""
	}
	h := tc.Trace.String() + "-" + tc.Span.String()
	if tc.Deep {
		h += "-1"
	}
	return h
}

// ParseTraceHeader parses an X-Bitgen-Trace value. A missing or
// malformed value returns ok=false: the receiver starts a fresh trace
// rather than failing the request.
func ParseTraceHeader(v string) (TraceContext, bool) {
	deep := false
	if len(v) == 51 && v[49] == '-' && (v[50] == '0' || v[50] == '1') {
		deep, v = v[50] == '1', v[:49]
	}
	if len(v) != 49 || v[32] != '-' {
		return TraceContext{}, false
	}
	t, ok := ParseTraceID(v[:32])
	s, sok := parseSpanID(v[33:])
	if !ok || !sok {
		return TraceContext{}, false
	}
	return TraceContext{Trace: t, Span: s, Deep: deep}, true
}

// parseSpanID parses a 16-hex-digit non-zero span ID.
func parseSpanID(v string) (SpanID, bool) {
	var s SpanID
	if _, err := hex.Decode(s[:], []byte(v)); len(v) != 16 || err != nil || s.IsZero() {
		return SpanID{}, false
	}
	return s, true
}

type traceCtxKey struct{}

// ctxTrace is what a context carries: the propagated triple and, for a deep
// trace, the ring and node name its callee's spans are recorded with.
type ctxTrace struct {
	TraceContext
	ring *SpanRing
	node string
}

// WithTraceContext attaches the trace context to ctx; the cluster
// transport reads it back to stamp TraceHeader on outbound forwards and
// snapshot fetches. ring and node are the span ring, and the node
// name to stamp, that Observer.For hands to calls made under ctx when tc is
// deep; nil and "" elsewhere.
func WithTraceContext(ctx context.Context, tc TraceContext, ring *SpanRing, node string) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, ctxTrace{tc, ring, node})
}

// TraceContextFrom extracts the trace context placed by WithTraceContext.
func TraceContextFrom(ctx context.Context) (TraceContext, bool) {
	ct, ok := ctx.Value(traceCtxKey{}).(ctxTrace)
	return ct.TraceContext, ok && !ct.Trace.IsZero()
}
