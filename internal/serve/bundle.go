package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"bitgen/internal/obs"
)

// The anomaly flight recorder's dump side: when something notable
// happens — a peer breaker opens, a snapshot is quarantined, a request
// is served degraded — the server writes a diagnostic bundle capturing
// the moments before the anomaly: the recent request spans, the decision
// ring, a metrics snapshot and a full goroutine dump. The bundle is one JSON
// file wrapped with a sha256 of its body so tooling (cmd/obscheck) can
// prove it wasn't truncated or edited.

// Bundle triggers (the MObsBundleWrites label values).
const (
	triggerManual      = "manual"
	triggerBreakerOpen = "breaker-open"
	triggerQuarantine  = "snapshot-quarantine"
	triggerDegraded    = "degraded-serve"
)

// bundleBody is the diagnostic payload. Metrics are embedded as the
// Prometheus exposition text rather than structured JSON: the exposition
// is already deterministic, and histogram +Inf bounds have no JSON
// rendering.
type bundleBody struct {
	Reason             string     `json:"reason"`
	Trace              string     `json:"trace,omitempty"`
	Node               string     `json:"node"`
	GeneratedUnixMicro int64      `json:"generated_us"`
	Spans              []obs.Span `json:"spans"`
	Decisions          []obs.Span `json:"decisions"`
	Metrics            string     `json:"metrics"`
	Goroutines         string     `json:"goroutines"`
}

// bundleEnvelope wraps the body with its integrity checksum. Body is a
// RawMessage so the checked bytes are exactly the written bytes.
type bundleEnvelope struct {
	SHA256 string          `json:"sha256"`
	Body   json.RawMessage `json:"body"`
}

// buildBundle assembles and seals a bundle. trace, when non-zero, names
// the distributed request that tripped the anomaly.
func (s *Server) buildBundle(reason string, trace obs.TraceID) ([]byte, error) {
	var metrics bytes.Buffer
	_ = s.reg.WritePrometheus(&metrics)
	stack := make([]byte, 1<<20)
	stack = stack[:runtime.Stack(stack, true)]
	body := bundleBody{
		Reason:             reason,
		Trace:              trace.String(),
		Node:               s.nodeName(),
		GeneratedUnixMicro: time.Now().UnixMicro(),
		Spans:              s.spans.Snapshot(nil),
		Decisions:          s.events.Events(),
		Metrics:            metrics.String(),
		Goroutines:         string(stack),
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	return json.Marshal(bundleEnvelope{SHA256: hex.EncodeToString(sum[:]), Body: raw})
}

// dumpBundle seals one bundle and, when BundleDir is set, writes exactly
// those bytes there. Filenames embed the trigger, a wall-clock stamp and a
// process-unique ID so replicas sharing one directory never collide. A
// failed write is counted and returned alongside the bundle, which is still
// good to serve.
func (s *Server) dumpBundle(reason string, trace obs.TraceID) ([]byte, error) {
	data, err := s.buildBundle(reason, trace)
	if err == nil && s.cfg.BundleDir != "" {
		name := fmt.Sprintf("bitgen-bundle-%s-%d-%s.json",
			reason, time.Now().UnixNano(), obs.NewSpanID().String())
		path := filepath.Join(s.cfg.BundleDir, name)
		if err = writeAtomic(path, data); err == nil {
			s.reg.Counter(obs.MObsBundleWrites, obs.HObsBundleWrites, obs.L("trigger", reason)).Inc()
			s.reg.Gauge(obs.MObsBundleBytes, obs.HObsBundleBytes).Set(float64(len(data)))
			s.events.Emit(obs.LevelInfo, "bundle-written", trace,
				obs.A("trigger", reason), obs.A("path", path), obs.A("bytes", len(data)))
		}
	}
	if err != nil {
		s.reg.Counter(obs.MObsBundleErrors, obs.HObsBundleErrors).Inc()
	}
	return data, err
}

// writeAtomic writes data to a temporary file beside path and renames it
// into place, so a reader globbing for sealed bundles never sees a partial
// one: the temporary name is dot-prefixed and lacks the .json suffix.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".bitgen-bundle-tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp.Name(), 0o644)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// onAnomalyEvent is the decision ring's Warn+ hook: decisions that indicate
// an anomaly trip an asynchronous, rate-limited bundle dump. It runs
// synchronously inside Emit, so it must only classify and hand off.
func (s *Server) onAnomalyEvent(ev obs.Span) {
	var trigger string
	switch ev.Name {
	case "breaker":
		if ev.Args.Get("to") == "open" {
			trigger = triggerBreakerOpen
		}
	case "snapshot-quarantine":
		trigger = triggerQuarantine
	case "degraded-serve":
		trigger = triggerDegraded
	}
	if trigger == "" {
		return
	}
	s.noteAnomaly(trigger, ev.Trace)
}

// noteAnomaly schedules one bundle dump for an anomaly, dropping
// triggers that arrive inside bundleMinInterval of the last dump or
// while a dump is already writing.
func (s *Server) noteAnomaly(trigger string, trace obs.TraceID) {
	if s.cfg.BundleDir == "" {
		return
	}
	now := time.Now().UnixNano()
	last := atomic.LoadInt64(&s.lastBundleUnixNano)
	if last != 0 && now-last < int64(s.cfg.bundleMinInterval) {
		return
	}
	if !atomic.CompareAndSwapInt64(&s.lastBundleUnixNano, last, now) {
		return // another trigger won the slot
	}
	if !atomic.CompareAndSwapInt32(&s.bundleBusy, 0, 1) {
		return // a dump is already in flight
	}
	go func() {
		defer atomic.StoreInt32(&s.bundleBusy, 0)
		_, _ = s.dumpBundle(trigger, trace)
	}()
}

// handleBundle serves GET /debug/bundle: a freshly sealed diagnostic
// bundle, returned inline and — when BundleDir is configured — the same
// bytes written to disk (trigger "manual", exempt from the anomaly rate
// limit). Disk trouble does not hide the inline bundle.
func (s *Server) handleBundle(w http.ResponseWriter, r *http.Request) {
	tc, _ := obs.TraceContextFrom(r.Context())
	data, err := s.dumpBundle(triggerManual, tc.Trace)
	if data == nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error(), Class: "internal"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}
