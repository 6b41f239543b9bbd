package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant metric label (baked in at registration; there is
// no dynamic label cardinality — every series is declared up front, which
// keeps the exposition stable for golden tests).
type Label struct {
	Key, Val string
}

// L is shorthand for constructing a Label.
func L(key, val string) Label { return Label{Key: key, Val: val} }

// metricKind discriminates instrument families.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// atomicFloat is a float64 with atomic add/load (bits + CAS).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value. A nil *Counter ignores
// every method (metrics disabled).
type Counter struct{ v atomicFloat }

// Add increments the counter; negative deltas are ignored (counters are
// monotone by contract).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	c.v.Add(v)
}

// AddInt is Add for integer event counts.
func (c *Counter) AddInt(v int64) {
	if c == nil || v < 0 {
		return
	}
	c.v.Add(float64(v))
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. A nil *Gauge ignores every
// method.
type Gauge struct{ v atomicFloat }

func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	g.v.Add(v)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into cumulative buckets (Prometheus
// classic histogram semantics). A nil *Histogram ignores every method.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds; +Inf implicit
	counts []atomic.Uint64
	sum    atomicFloat
	count  atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.sum.Add(v)
	h.count.Add(1)
}

// HistogramSnapshot is a point-in-time histogram reading.
type HistogramSnapshot struct {
	// Buckets holds cumulative counts per upper bound, ending with +Inf.
	Buckets []BucketCount
	Sum     float64
	Count   uint64
}

// BucketCount is one cumulative histogram bucket.
type BucketCount struct {
	UpperBound float64 // math.Inf(1) for the last bucket
	Count      uint64
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Sum: h.sum.Load(), Count: h.count.Load()}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		s.Buckets = append(s.Buckets, BucketCount{UpperBound: b, Count: cum})
	}
	s.Buckets = append(s.Buckets, BucketCount{UpperBound: math.Inf(1), Count: s.Count})
	return s
}

// series is one (family, labelset) instrument.
type series struct {
	labels string // rendered `{k="v",...}` or ""
	// labelList is the sorted label set the rendering came from, kept so
	// histogram exposition can re-render with the `le` label merged in
	// canonical sorted position instead of appended last.
	labelList []Label
	ctr       *Counter
	gauge     *Gauge
	hist      *Histogram
}

// family groups series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series // keyed by rendered labels
}

// Registry holds the full metric set. Registration is idempotent (same
// name + labels returns the same instrument); reads and writes after
// registration are lock-free atomics. A nil *Registry disables metrics:
// every accessor returns a nil instrument whose mutators are no-ops.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// sortLabels returns a sorted copy of the label set.
func sortLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := sortLabels(labels)
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Val)
	}
	b.WriteByte('}')
	return b.String()
}

func (r *Registry) get(name, help string, kind metricKind, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	key := renderLabels(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key, labelList: sortLabels(labels)}
		switch kind {
		case kindCounter:
			s.ctr = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		}
		f.series[key] = s
	}
	return s
}

// Counter registers (or fetches) a counter. Nil-safe.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, help, kindCounter, labels).ctr
}

// Gauge registers (or fetches) a gauge. Nil-safe.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, help, kindGauge, labels).gauge
}

// Histogram registers (or fetches) a histogram with the given bucket
// upper bounds (must be sorted ascending; +Inf is implicit). Nil-safe.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	s := r.get(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.hist == nil {
		// Sort and dedupe the bounds defensively: Observe and the
		// cumulative exposition both assume strictly increasing upper
		// bounds, and an unsorted caller would otherwise produce
		// nondeterministic-looking (and wrong) bucket counts. A finite
		// +Inf sentinel is dropped — the exposition adds it implicitly.
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		h := &Histogram{}
		for _, b := range bs {
			if math.IsInf(b, 1) || math.IsNaN(b) {
				continue
			}
			if n := len(h.bounds); n > 0 && h.bounds[n-1] == b {
				continue
			}
			h.bounds = append(h.bounds, b)
		}
		h.counts = make([]atomic.Uint64, len(h.bounds))
		s.hist = h
	}
	return s.hist
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4), families and series in sorted order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("obs: metrics are not enabled")
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
			return err
		}
		r.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		srs := make([]*series, len(keys))
		for i, k := range keys {
			srs[i] = f.series[k]
		}
		r.mu.Unlock()
		for _, s := range srs {
			var err error
			switch f.kind {
			case kindCounter:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(s.ctr.Value()))
			case kindGauge:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(s.gauge.Value()))
			case kindHistogram:
				err = writeHistogram(w, f.name, s)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, s *series) error {
	snap := s.hist.snapshot()
	for _, b := range snap.Buckets {
		labels := renderLabels(append(append([]Label(nil), s.labelList...),
			L("le", formatFloat(b.UpperBound))))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, labels, b.Count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, formatFloat(snap.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, snap.Count)
	return err
}

// Snapshot is a point-in-time copy of every series, keyed by
// "name{labels}" (labels sorted; bare name when unlabeled).
type Snapshot struct {
	Counters   map[string]float64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// Counter returns a counter series value by key (0 when absent) — the
// acceptance-test convenience accessor.
func (s Snapshot) Counter(key string) float64 { return s.Counters[key] }

// Snapshot copies the registry. On a nil registry it returns empty maps,
// so callers can index without guarding.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]float64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, f := range r.families {
		for lk, s := range f.series {
			key := name + lk
			switch f.kind {
			case kindCounter:
				snap.Counters[key] = s.ctr.Value()
			case kindGauge:
				snap.Gauges[key] = s.gauge.Value()
			case kindHistogram:
				if s.hist != nil {
					snap.Histograms[key] = s.hist.snapshot()
				}
			}
		}
	}
	return snap
}
