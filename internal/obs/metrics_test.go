package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("x", "h").Add(1)
	r.Counter("x", "h").Inc()
	r.Gauge("y", "h").Set(2)
	r.Histogram("z", "h", []float64{1}).Observe(0.5)
	if v := r.Counter("x", "h").Value(); v != 0 {
		t.Fatalf("nil counter value = %v", v)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	if err := r.WritePrometheus(&strings.Builder{}); err == nil {
		t.Fatal("nil registry WritePrometheus did not error")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bitgen_test_total", "test counter")
	c.Add(2.5)
	c.AddInt(3)
	c.Add(-1) // ignored: counters are monotone
	if got := c.Value(); got != 5.5 {
		t.Fatalf("counter = %v, want 5.5", got)
	}
	if again := r.Counter("bitgen_test_total", "test counter"); again != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("bitgen_test_ratio", "test gauge")
	g.Set(0.25)
	g.Add(0.25)
	if got := g.Value(); got != 0.5 {
		t.Fatalf("gauge = %v, want 0.5", got)
	}
	h := r.Histogram("bitgen_test_seconds", "test histogram", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	snap := h.snapshot()
	if snap.Count != 5 || snap.Sum != 56.05 {
		t.Fatalf("histogram count=%d sum=%v", snap.Count, snap.Sum)
	}
	wantCum := []uint64{1, 3, 4, 5}
	for i, b := range snap.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket %d cumulative = %d, want %d", i, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(snap.Buckets[len(snap.Buckets)-1].UpperBound, 1) {
		t.Fatal("last bucket bound is not +Inf")
	}
}

func TestLabeledSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("bitgen_served_total", "served", L("backend", "bitstream"))
	b := r.Counter("bitgen_served_total", "served", L("backend", "nfa"))
	if a == b {
		t.Fatal("distinct label sets share a counter")
	}
	a.Inc()
	snap := r.Snapshot()
	if snap.Counter(`bitgen_served_total{backend="bitstream"}`) != 1 {
		t.Fatalf("snapshot keys: %+v", snap.Counters)
	}
	if snap.Counter(`bitgen_served_total{backend="nfa"}`) != 0 {
		t.Fatalf("unlabeled rung missing: %+v", snap.Counters)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("bitgen_scans_total", "Scans served.").AddInt(3)
	r.Gauge("bitgen_ratio", "A ratio.").Set(0.75)
	r.Counter("bitgen_served_total", "Served.", L("backend", "bitstream")).Inc()
	r.Histogram("bitgen_scan_seconds", "Latency.", []float64{0.01, 0.1}).Observe(0.05)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP bitgen_scans_total Scans served.\n# TYPE bitgen_scans_total counter\nbitgen_scans_total 3\n",
		"# TYPE bitgen_ratio gauge\nbitgen_ratio 0.75\n",
		"bitgen_served_total{backend=\"bitstream\"} 1\n",
		"# TYPE bitgen_scan_seconds histogram\n",
		"bitgen_scan_seconds_bucket{le=\"0.01\"} 0\n",
		"bitgen_scan_seconds_bucket{le=\"0.1\"} 1\n",
		"bitgen_scan_seconds_bucket{le=\"+Inf\"} 1\n",
		"bitgen_scan_seconds_sum 0.05\n",
		"bitgen_scan_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families render in sorted order.
	if strings.Index(out, "bitgen_ratio") > strings.Index(out, "bitgen_scan_seconds") {
		t.Fatalf("families unsorted:\n%s", out)
	}
}

func TestConcurrentMetricUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter(MScans, HScans).Inc()
				r.Histogram(MScanHostSecs, HScanHostSecs, ScanSecondsBuckets).Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter(MScans, HScans).Value(); got != 8000 {
		t.Fatalf("concurrent counter = %v, want 8000", got)
	}
	if got := r.Snapshot().Histograms[MScanHostSecs].Count; got != 8000 {
		t.Fatalf("concurrent histogram count = %d, want 8000", got)
	}
}
