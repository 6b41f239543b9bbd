package serve

import (
	"net/http"
	"strings"
	"time"

	"bitgen/internal/cluster"
	"bitgen/internal/obs"
)

// This file is the serve layer's half of the distributed observability
// plane: the per-request middleware that parses or mints the trace
// context and records completed requests into the span ring and the
// request-latency histograms, and the /v1/trace/{id} endpoint the
// cross-node stitcher reads.

// nodeName is this replica's identity on spans and fragments: the cluster
// advertised URL, or "local" standalone.
func (s *Server) nodeName() string {
	if s.cluster != nil {
		return s.cluster.Self()
	}
	return "local"
}

// spanNameOf maps a request path to its request span's name (""
// for paths not recorded — metrics scrapes and health probes would
// drown the ring).
func spanNameOf(path string) string {
	switch path {
	case "/v1/match":
		return "match"
	case "/v1/scan":
		return "scan"
	case "/v1/snapshot":
		return "snapshot"
	}
	return ""
}

// statusWriter captures the response status for span recording.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// flushWriter adds Flush passthrough when the underlying writer supports
// it — /v1/scan streams NDJSON and must keep flushing through the
// middleware.
type flushWriter struct {
	*statusWriter
	f http.Flusher
}

func (w *flushWriter) Flush() { w.f.Flush() }

// withObs wraps the mux: every request gets a trace context (continued
// from X-Bitgen-Trace when a peer or client supplied one, minted
// otherwise) injected into the request context, the response echoes the
// trace ID, and completed match/scan/snapshot requests land in the span
// ring — match and scan also in their latency histogram. A trace is deep
// when the caller chose its ID (the header arrived on a request no peer
// forwarded) or the forwarding peer says so: then the context also carries
// the ring, and the engine records its spans there under the request's
// (obs.For). Untagged traffic pays one span (and one histogram sample) per
// request and nothing else.
func (s *Server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		forwarded := r.Header.Get(cluster.HeaderForwarded) == "1"
		parent, hadParent := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
		var tc obs.TraceContext
		if hadParent {
			tc = parent.Child()
			tc.Deep = parent.Deep || !forwarded
		} else {
			tc = obs.NewTraceContext()
		}
		r = r.WithContext(obs.WithTraceContext(r.Context(), tc, s.spans, s.nodeName()))
		w.Header().Set(obs.TraceHeader, tc.Header())

		sw := &statusWriter{ResponseWriter: w}
		var out http.ResponseWriter = sw
		if f, ok := w.(http.Flusher); ok {
			out = &flushWriter{statusWriter: sw, f: f}
		}

		start := time.Now()
		next.ServeHTTP(out, r)
		dur := time.Since(start)

		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		if name := spanNameOf(r.URL.Path); name != "" {
			// nil for snapshot, which has no histogram (Observe ignores nil).
			s.requestSecs[name].Observe(dur.Seconds())
			sp := obs.Span{
				Trace: tc.Trace, ID: tc.Span, Parent: parent.Span, Name: name, Node: s.nodeName(),
				Start: obs.SpanTime(start), Dur: int64(dur), Status: status,
				Args: []obs.Arg{{Key: "path", Val: r.URL.Path}},
			}
			if forwarded {
				sp.Args = append(sp.Args, obs.A("forwarded", "1"))
			}
			s.spans.Add(sp)
		}
	})
}

// handleTraceFragment serves GET /v1/trace/{traceID}: this node's
// fragment of one distributed trace — the spans in its ring and the
// decisions for that trace ID. The stitcher (bitgend -stitch,
// StitchTrace) merges fragments from every ring peer into one timeline.
func (s *Server) handleTraceFragment(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	tid, ok := obs.ParseTraceID(id)
	if !ok {
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: "trace ID must be 32 hex digits", Class: "bad_request",
		})
		return
	}
	frag := s.spans.Fragment(s.nodeName(), tid)
	frag.Spans = append(frag.Spans, s.events.ByTrace(tid)...)
	writeJSON(w, http.StatusOK, frag)
}
