package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// testSeconds keeps the timed phases of the quick profile short: the tests
// check names, units, exact counts and failure accounting, never a timing.
const testSeconds = 0.2

// quickRun runs every workload of BENCHMARK.json through both passes on the
// quick profile.
func quickRun(t *testing.T, sp *spec, seed int64, outDir string) map[string]*result {
	t.Helper()
	out := map[string]*result{}
	for _, w := range sp.Workloads {
		j, err := generators[w.Name](seed, quickSizes)
		if err != nil {
			t.Fatalf("%s: generate: %v", w.Name, err)
		}
		res := &result{Digest: j.digest, Metrics: map[string]metric{}}
		if err := endToEndPass(j, quickSizes, testSeconds, seed, sp, res); err != nil {
			t.Fatalf("%s: end-to-end pass: %v", w.Name, err)
		}
		if err := tracedPass(j, quickSizes, testSeconds, seed, sp, outDir, res); err != nil {
			t.Fatalf("%s: traced pass: %v", w.Name, err)
		}
		out[w.Name] = res
	}
	return out
}

// twoRuns is shared by the tests below: two runs of the same seed.
var twoRuns struct {
	once sync.Once
	sp   *spec
	dir  string
	a, b map[string]*result
}

func runTwice(t *testing.T) (*spec, map[string]*result, map[string]*result) {
	t.Helper()
	twoRuns.once.Do(func() {
		sp, err := loadSpec()
		if err != nil {
			t.Fatal(err)
		}
		twoRuns.sp = sp
		twoRuns.dir, err = os.MkdirTemp("", "benchmark-test")
		if err != nil {
			t.Fatal(err)
		}
		twoRuns.a = quickRun(t, sp, 1, twoRuns.dir)
		twoRuns.b = quickRun(t, sp, 1, twoRuns.dir)
	})
	if twoRuns.b == nil {
		t.Fatal("the shared quick runs failed")
	}
	return twoRuns.sp, twoRuns.a, twoRuns.b
}

func TestMain(m *testing.M) {
	code := m.Run()
	if twoRuns.dir != "" {
		os.RemoveAll(twoRuns.dir)
	}
	os.Exit(code)
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecWithinContract checks BENCHMARK.json against the limits its
// consumers enforce before a single run.
func TestSpecWithinContract(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", sp.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not made of [A-Za-z0-9_.-]", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range sp.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range append(append([]metricDef(nil), sp.EndToEnd...), sp.PerLayer...) {
		name("metric", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower better")
	}
}

// TestEveryNamedMetricIsEmitted: each workload reports every end-to-end
// and per-layer metric of BENCHMARK.json with its declared unit, no
// end-to-end metric reads 0, no op fails, and the traced pass leaves a
// Chrome trace with complete spans.
func TestEveryNamedMetricIsEmitted(t *testing.T) {
	sp, a, _ := runTwice(t)
	for _, w := range sp.Workloads {
		res := a[w.Name]
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed", w.Name, res.Failed, res.Attempted)
		}
		for _, d := range sp.EndToEnd {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v), want a positive value in %s", w.Name, d.Name, m, ok, d.Unit)
			}
		}
		for _, d := range sp.PerLayer {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: per-layer metric %s = %+v (present %v), want unit %s", w.Name, d.Name, m, ok, d.Unit)
			}
		}
		if n := len(sp.EndToEnd) + len(sp.PerLayer); len(res.Metrics) != n {
			t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", w.Name, len(res.Metrics), n)
		}

		buf, err := os.ReadFile(filepath.Join(twoRuns.dir, "trace-"+w.Name+".json"))
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		var doc struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Ph   string         `json:"ph"`
				Ts   *float64       `json:"ts"`
				Dur  *float64       `json:"dur"`
				Pid  *int           `json:"pid"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf, &doc); err != nil {
			t.Errorf("%s: trace: %v", w.Name, err)
			continue
		}
		if len(doc.TraceEvents) == 0 {
			t.Errorf("%s: trace holds no spans", w.Name)
		}
		for _, ev := range doc.TraceEvents {
			if ev.Name == "" || ev.Ph != "X" || ev.Ts == nil || ev.Pid == nil || ev.Dur == nil || *ev.Dur < 0 || ev.Args["workload"] != w.Name {
				t.Errorf("%s: malformed trace event %+v", w.Name, ev)
				break
			}
		}
	}
	// Layers a workload does not reach read 0; the ones it is built for must not.
	for workload, names := range map[string][]string{
		"serve_mixed":     {"serve.handler_us", "serve.cache_hits", "serve.compiles", "serve.batch_mean"},
		"stream_light":    {"bitgen.scanreader_s", "bitgen.pipeline_efficiency", "transpose.mbps"},
		"oneshot_control": {"bitgen.run_ms", "gpusim.barriers", "kernel.ns_per_byte"},
		"compile_megaset": {"passes.rebalance_rewrites", "snapshot.bytes", "ir.packed_bytes"},
	} {
		for _, n := range names {
			if !(a[workload].Metrics[n].Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", workload, n, a[workload].Metrics[n].Value)
			}
		}
	}
}

// TestSameSeedRepeats: the same seed gives byte-identical patterns and
// inputs, and everything that is a count or a modeled number (modeled GPU
// throughput, resident bytes, pass counts) repeats exactly: host-side
// timing noise must never reach them.
func TestSameSeedRepeats(t *testing.T) {
	sp, a, b := runTwice(t)
	for _, w := range sp.Workloads {
		ra, rb := a[w.Name], b[w.Name]
		if ra.Digest == "" || ra.Digest != rb.Digest {
			t.Errorf("%s: input digests %q and %q differ for one seed", w.Name, ra.Digest, rb.Digest)
		}
		for name, m := range ra.Metrics {
			if exactRepeat(name) && m.Value != rb.Metrics[name].Value {
				t.Errorf("%s: %s = %v then %v, want an exact repeat", w.Name, name, m.Value, rb.Metrics[name].Value)
			}
		}
	}
	other, err := generators["stream_sigs"](2, quickSizes)
	if err != nil {
		t.Fatal(err)
	}
	if other.digest == a["stream_sigs"].Digest {
		t.Error("stream_sigs: seeds 1 and 2 generate the same inputs")
	}
}

// TestCorruptedOracleCountsAsFailed: when the expected matches are wrong,
// every workload's check notices and the ops count as failed.
func TestCorruptedOracleCountsAsFailed(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		j, err := generators[w.Name](1, quickSizes)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		corrupted := 0
		for _, list := range j.expected {
			if len(list) > 0 {
				list[len(list)/2].End++
				corrupted++
			}
		}
		if corrupted == 0 {
			t.Fatalf("%s: the oracle expects no match at all; the workload verifies nothing", w.Name)
		}
		res := &result{Metrics: map[string]metric{}}
		if err := endToEndPass(j, quickSizes, testSeconds/2, 1, sp, res); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed == 0 {
			t.Errorf("%s: %d ops ran against a corrupted oracle and none failed", w.Name, res.Attempted)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name string
		a, b []float64
		d    metricDef
		want string
	}{
		{"same", []float64{100, 101, 102}, []float64{100, 101, 103}, lower, "ok"},
		{"slower beyond the bound", []float64{100, 101, 102}, []float64{120, 121, 122}, lower, "worse"},
		{"faster", []float64{100, 101, 102}, []float64{80, 81, 82}, lower, "ok"},
		{"throughput lost", []float64{100, 101, 102}, []float64{80, 81, 82}, higher, "worse"},
		{"throughput gained", []float64{100, 101, 102}, []float64{120, 121, 122}, higher, "ok"},
		{"spread hides the answer", []float64{80, 100, 130}, []float64{85, 104, 125}, lower, "unresolved"},
		{"wide but every run of B is slower", []float64{80, 100, 130}, []float64{140, 170, 200}, lower, "worse"},
		{"wide but every run of B is faster", []float64{80, 100, 130}, []float64{40, 50, 70}, lower, "ok"},
	} {
		if _, got := verdict(tc.a, tc.b, tc.d); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestYardstick: the yardstick keeps pace with the phase, and restating a
// metric at the nominal host's speed stretches durations, shrinks rates and
// leaves sizes alone.
func TestYardstick(t *testing.T) {
	y := newYardstick()
	y.begun = y.begun.Add(-10 * yardEvery)
	y.catchUp()
	if len(y.runs) < 10 || len(y.runs) > 12 {
		t.Errorf("%d yardstick runs after 10 periods, want one per period", len(y.runs))
	}
	if s := y.speed(); !(s > 0) {
		t.Errorf("host speed %v, want a positive ratio", s)
	}
	for _, tc := range []struct {
		unit string
		want float64
	}{{"ms", 125}, {"s", 125}, {"1/s", 80}, {"MB/s", 80}, {"MiB", 100}} {
		if got := atNominalSpeed(metric{Value: 100, Unit: tc.unit}, 1.25).Value; got != tc.want {
			t.Errorf("100 %s on a host of speed 1.25 is %v at nominal speed, want %v", tc.unit, got, tc.want)
		}
	}
}
