package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
)

// TraceHeader is the cross-node trace-propagation header. Its value is
// "<32-hex trace id>-<16-hex span id>": the 128-bit trace ID names the
// whole distributed request, the 64-bit span ID is the sender's span so
// the receiver can parent its own span under it. It travels alongside
// X-Bitgen-Forwarded and X-Bitgen-Deadline-Ms on every cluster forward,
// hedge and snapshot fetch.
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

// idState seeds the process-local ID generator: a random base drawn once
// from crypto/rand, mixed with an atomic counter through a splitmix64
// finalizer. IDs are unique per process and collision-resistant across
// nodes without a syscall per request.
var idState struct {
	hi, lo uint64
	ctr    atomic.Uint64
}

func init() {
	var b [16]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Degrade to a fixed base: counter mixing still yields unique
		// per-process IDs.
		copy(b[:], "bitgen-obs-seed!")
	}
	idState.hi = binary.LittleEndian.Uint64(b[0:8])
	idState.lo = binary.LittleEndian.Uint64(b[8:16])
}

// mix64 is the splitmix64 finalizer (same avalanche core the cluster
// ring uses for key hashing).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func nextID() (uint64, uint64) {
	c := idState.ctr.Add(1)
	return mix64(idState.hi + c), mix64(idState.lo ^ (c * 0x9e3779b97f4a7c15))
}

// NewTraceID returns a fresh non-zero 128-bit trace ID.
func NewTraceID() TraceID {
	var t TraceID
	a, b := nextID()
	binary.LittleEndian.PutUint64(t[0:8], a)
	binary.LittleEndian.PutUint64(t[8:16], b|1) // never zero
	return t
}

// NewSpanID returns a fresh non-zero 64-bit span ID.
func NewSpanID() SpanID {
	var s SpanID
	a, _ := nextID()
	binary.LittleEndian.PutUint64(s[:], a|1)
	return s
}

// TraceContext is the propagated pair: the request's trace ID and the
// current node's span within it.
type TraceContext struct {
	Trace TraceID
	Span  SpanID
}

// NewTraceContext mints a fresh trace with a root span.
func NewTraceContext() TraceContext {
	return TraceContext{Trace: NewTraceID(), Span: NewSpanID()}
}

// Child returns a new span in the same trace.
func (tc TraceContext) Child() TraceContext {
	return TraceContext{Trace: tc.Trace, Span: NewSpanID()}
}

// Header renders the X-Bitgen-Trace wire value ("" for a zero context).
func (tc TraceContext) Header() string {
	if tc.Trace.IsZero() {
		return ""
	}
	return tc.Trace.String() + "-" + tc.Span.String()
}

// ParseTraceHeader parses an X-Bitgen-Trace value. A missing or
// malformed value returns ok=false: the receiver starts a fresh trace
// rather than failing the request.
func ParseTraceHeader(v string) (TraceContext, bool) {
	if len(v) != 49 || v[32] != '-' {
		return TraceContext{}, false
	}
	t, ok := ParseTraceID(v[:32])
	if !ok {
		return TraceContext{}, false
	}
	var s SpanID
	if _, err := hex.Decode(s[:], []byte(v[33:])); err != nil || s.IsZero() {
		return TraceContext{}, false
	}
	return TraceContext{Trace: t, Span: s}, true
}

type traceCtxKey struct{}

// WithTraceContext attaches the trace context to ctx; the cluster
// transport reads it back to stamp TraceHeader on outbound forwards,
// hedges and snapshot fetches.
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceContextFrom extracts the trace context placed by WithTraceContext.
func TraceContextFrom(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok && !tc.Trace.IsZero()
}
