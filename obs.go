package bitgen

import (
	"io"
	"time"

	"bitgen/internal/gpusim"
	"bitgen/internal/obs"
)

// ObservabilityOptions enable the engine's observability layer: a span
// tracer over the full pipeline (compile phases, per-kernel launches, the
// streaming stages, a pinned fallback's scans) exportable as Chrome trace_event
// JSON (chrome://tracing, Perfetto), and a metrics registry (counters,
// gauges, histograms) with a Prometheus text-exposition writer and an
// expvar bridge. With Options.Observability nil (the default) every
// instrumentation hook reduces to a nil pointer check: no allocation, no
// lock, no measurable overhead.
type ObservabilityOptions struct {
	// Metrics enables the metrics registry (Engine.MetricsSnapshot,
	// Engine.WritePrometheus, Engine.PublishExpvar) and the per-scan
	// Profile artifact on Result.
	Metrics bool
	// Trace gives the engine a span ring of its own (Engine.WriteTrace):
	// obs.DefaultSpanCapacity (65536) spans; when full, the oldest are
	// overwritten and counted as dropped.
	Trace bool
}

// observer builds the internal Observer, or nil when nothing is enabled.
func (o *ObservabilityOptions) observer() *obs.Observer {
	if o == nil || (!o.Metrics && !o.Trace) {
		return nil
	}
	ob := &obs.Observer{}
	if o.Trace {
		ob.Spans = obs.NewSpanRing(obs.DefaultSpanCapacity)
	}
	if o.Metrics {
		ob.Metrics = obs.NewRegistry()
		obs.RegisterBase(ob.Metrics)
	}
	return ob
}

// MetricsSnapshot is a point-in-time copy of every registered metric,
// keyed "name" or "name{label=\"value\",...}".
type MetricsSnapshot = obs.Snapshot

// Profile is the per-scan profile artifact: the analytic cost-model
// breakdown joined with the observed per-kernel counters — the repo's
// Nsight-Compute-equivalent report (see DESIGN.md §9).
type Profile = gpusim.Profile

// MetricsSnapshot returns a copy of the engine's metrics registry. With
// metrics disabled it returns the zero Snapshot.
func (e *Engine) MetricsSnapshot() MetricsSnapshot {
	if e.obs.Reg() == nil {
		return MetricsSnapshot{}
	}
	return e.obs.Reg().Snapshot()
}

// WritePrometheus renders the engine's metrics in Prometheus text
// exposition format 0.0.4. With metrics disabled it writes nothing.
func (e *Engine) WritePrometheus(w io.Writer) error {
	if e.obs.Reg() == nil {
		return nil
	}
	return e.obs.Reg().WritePrometheus(w)
}

// WriteTrace exports the recorded spans as Chrome trace_event JSON,
// loadable in chrome://tracing or https://ui.perfetto.dev. With tracing
// disabled it writes an empty trace document.
func (e *Engine) WriteTrace(w io.Writer) error {
	if !e.obs.Tracing() {
		return obs.WriteChromeTrace(w, nil)
	}
	return obs.WriteChromeTrace(w, []obs.Fragment{e.obs.Spans.Fragment("bitgen", obs.TraceID{})})
}

// PublishExpvar exposes the metrics registry as one expvar variable
// (visible on /debug/vars when net/http/pprof or expvar handlers are
// mounted). It reports false when metrics are disabled or the name is
// already published.
func (e *Engine) PublishExpvar(name string) bool {
	if e.obs.Reg() == nil {
		return false
	}
	return e.obs.Reg().PublishExpvar(name)
}

// observeScan records the scan-level metrics for one public entry-point
// call. matches is the number of reported match end positions (counted
// once per scan, whichever rung served it).
func (e *Engine) observeScan(start time.Time, inputBytes int, matches int, err error) {
	reg := e.obs.Reg()
	if reg == nil {
		return
	}
	reg.Counter(obs.MScans, obs.HScans).Inc()
	reg.Counter(obs.MScanInputBytes, obs.HScanInputBytes).AddInt(int64(inputBytes))
	if err != nil {
		reg.Counter(obs.MScanErrors, obs.HScanErrors).Inc()
		return
	}
	reg.Counter(obs.MMatches, obs.HMatches).AddInt(int64(matches))
	reg.Histogram(obs.MScanHostSecs, obs.HScanHostSecs, obs.ScanSecondsBuckets).
		Observe(time.Since(start).Seconds())
}
