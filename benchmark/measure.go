package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// metric is one reported number. Timing metrics are medians over ops or
// slices and carry their quartiles and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
	// Noisy marks a timing whose slices disagreed (coefficient of
	// variation) by more than the metric's bound: read it with suspicion.
	Noisy bool `json:"noisy,omitempty"`
}

// result is everything one workload reported.
type result struct {
	Digest    string `json:"input_sha256"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// HostSpeed is the yardstick's verdict on the end-to-end pass: the
	// timings and rates in Metrics are stated at speed 1, and a timing
	// divided by HostSpeed is what the clock showed.
	HostSpeed float64           `json:"host_speed,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) count(failed bool) {
	r.Attempted++
	if failed {
		r.Failed++
	}
}

// sample is one completed op of a timed phase.
type sample struct {
	done   time.Duration // since the phase began
	lat    time.Duration
	bytes  int64
	failed bool
	traced bool
}

// drive runs the closed loop for d: every client runs op after op, each
// waiting for its own result, until the time is up. Samples come back in
// completion order. Between its ops the first client keeps the yardstick
// running, and speed is what it says of the host during the phase. With a
// recorder, every second op of a client runs inside a span and the others
// run bare, so the cost of recording shows as the difference between
// neighbours.
func drive(s *session, clients int, d time.Duration, seed int64, rec *recorder, parent int) (samples []sample, speed float64) {
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	yard := newYardstick()
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed<<8 + int64(c)))
			for i := 0; time.Since(t0) < d; i++ {
				if c == 0 {
					yard.catchUp()
				}
				traced, id := rec != nil && i%2 == 1, -1
				if traced {
					id = rec.begin("op", parent, c)
				}
				start := time.Now()
				n, failed := s.op(c, rng)
				lat := time.Since(start)
				if traced {
					rec.end(id)
				}
				per[c] = append(per[c], sample{done: time.Since(t0), lat: lat, bytes: n, failed: failed, traced: traced})
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].done < all[b].done })
	return all, yard.speed()
}

// maxSlices caps how many equal-work slices a timed phase is cut into.
// Throughput is the median over the slices: a noisy neighbour slows the
// host in bursts of a second or two, and with about one slice a second the
// bursts land in a minority of slices and leave the median alone.
const maxSlices = 20

// rates cuts a phase into slices of equal op count (at least three ops
// each) and returns each slice's ops/s and MB/s (1e6 bytes).
func rates(samples []sample) (ops, mbps []float64) {
	k := max(1, min(maxSlices, len(samples)/3))
	var from time.Duration
	for seg := 0; seg < k; seg++ {
		lo, hi := seg*len(samples)/k, (seg+1)*len(samples)/k
		var bytes int64
		for _, s := range samples[lo:hi] {
			bytes += s.bytes
		}
		wall := (samples[hi-1].done - from).Seconds()
		from = samples[hi-1].done
		ops = append(ops, float64(hi-lo)/wall)
		mbps = append(mbps, float64(bytes)/1e6/wall)
	}
	return ops, mbps
}

// endToEndPass measures what a user of the system sees, with every kind of
// tracing off: set-up time over fresh repeats, then one timed phase.
func endToEndPass(j *job, sz sizes, seconds float64, seed int64, sp *spec, res *result) error {
	// Cheap set-ups repeat until they fill setupBudget, so that their median
	// is as steady as that of the set-ups that take a second each.
	var s *session
	var setupS []float64
	setupYard := newYardstick()
	for spent := 0.0; len(setupS) < sz.setupRepeats || (spent < sz.setupBudget && len(setupS) < maxSetupRepeats); {
		if s != nil {
			s.close()
		}
		runtime.GC()
		setupYard.burst()
		t0 := time.Now()
		var failed bool
		var err error
		if s, failed, err = j.start(); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		setupYard.burst()
		spent += setupS[len(setupS)-1]
		res.count(failed)
	}
	defer s.close()
	if j.straddle != nil {
		res.count(j.straddle(s))
	}

	phase := time.Duration(seconds * float64(time.Second))
	warm, _ := drive(s, j.clients, min(phase/10, 500*time.Millisecond), seed, nil, -1) // caches fill, pools size
	for _, w := range warm {
		res.count(w.failed)
	}
	runtime.GC()
	samples, speed := drive(s, j.clients, phase, seed, nil, -1)
	res.HostSpeed = speed
	lat := make([]float64, len(samples))
	for i, w := range samples {
		res.count(w.failed)
		lat[i] = w.lat.Seconds() * 1e3
	}
	ops, mbps := rates(samples)
	sliceCV := cv(ops)
	values := map[string]metric{
		"setup_s":     distMetric(summarize(setupS)),
		"op_p50_ms":   distMetric(summarize(lat)),
		"ops_per_s":   distMetric(summarize(ops)),
		"scan_mbps":   distMetric(summarize(mbps)),
		"resident_mb": {Value: float64(s.resident()) / (1 << 20)},
	}
	for _, d := range sp.EndToEnd {
		m, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json names end-to-end metric %q, which the benchmark does not measure", d.Name)
		}
		m.Unit = d.Unit
		m.Noisy = m.N > 0 && d.Name != "setup_s" && sliceCV > d.Bound
		if d.Name == "setup_s" {
			m = atNominalSpeed(m, setupYard.speed())
		} else {
			m = atNominalSpeed(m, speed)
		}
		res.Metrics[d.Name] = m
	}
	return nil
}

func distMetric(d dist) metric { return metric{Value: d.Median, Q1: d.Q1, Q3: d.Q3, N: d.N} }

// tracedPass is the separate run that yields the layer ledger. It records
// a benchmark-side span around every ledger call and every second op,
// measures what recording costs against the ops in between, and writes the
// spans as trace-<workload>.json. No end-to-end number comes from here.
func tracedPass(j *job, sz sizes, seconds float64, seed int64, sp *spec, outDir string, res *result) error {
	rec := newRecorder(j.name)
	root := rec.begin(j.name, -1, 0)
	var s *session
	var failed bool
	var err error
	rec.timed("start", root, func() { s, failed, err = j.start() })
	if err != nil {
		return err
	}
	defer s.close()
	res.count(failed)

	phase := rec.begin("ops", root, 0)
	samples, speed := drive(s, j.clients, time.Duration(seconds/3*float64(time.Second)), seed, rec, phase)
	rec.end(phase)
	var bare, spanned, all []float64
	for _, w := range samples {
		res.count(w.failed)
		ms := w.lat.Seconds() * 1e3
		all = append(all, ms)
		if w.traced {
			spanned = append(spanned, ms)
		} else {
			bare = append(bare, ms)
		}
	}
	sort.Float64s(all)
	ops, _ := rates(samples)

	lid := rec.begin("ledger", root, 0)
	values, err := ledger(j, s, sz.ledgerReps, rec, lid)
	rec.end(lid)
	if err != nil {
		return err
	}
	rec.end(root)
	if len(spanned) > 0 {
		values["bench.trace_overhead_share"] = summarize(spanned).Median/summarize(bare).Median - 1
	}
	values["bench.verify_s"] = j.verifyS
	values["bench.slice_cv"] = cv(ops)
	values["bench.host_speed"] = speed
	values["bench.op_tail_ms"] = quantile(all, j.tailPct)
	for _, d := range sp.PerLayer {
		res.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
		delete(values, d.Name)
	}
	for name := range values {
		return fmt.Errorf("the ledger measures %q, which BENCHMARK.json does not name", name)
	}
	return rec.write(filepath.Join(outDir, "trace-"+j.name+".json"))
}
