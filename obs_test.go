package bitgen

import (
	"bytes"
	"encoding/json"
	"flag"
	"maps"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"bitgen/internal/obs"
	"bitgen/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestMetricsEqualKernelStats is the ISSUE's acceptance invariant: after
// one scan, the registry's modeled-kernel totals exactly equal the summed
// per-kernel gpusim.KernelStats of that scan (surfaced on Result.Stats
// and Result.Profile).
func TestMetricsEqualKernelStats(t *testing.T) {
	eng, err := Compile(pinPatterns, &Options{
		Observability: &ObservabilityOptions{Metrics: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run([]byte(pinInput))
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil {
		t.Fatal("metrics enabled but Result.Profile is nil")
	}
	snap := eng.MetricsSnapshot()
	tot := res.Profile.Totals
	checks := []struct {
		metric string
		want   float64
	}{
		{obs.MDRAMReadBytes, float64(tot.DRAMReadBytes)},
		{obs.MDRAMWriteBytes, float64(tot.DRAMWriteBytes)},
		{obs.MSMemReadBytes, float64(tot.SMemReadBytes)},
		{obs.MSMemWriteBytes, float64(tot.SMemWriteBytes)},
		{obs.MBarriers, float64(tot.Barriers)},
		{obs.MShiftBarriers, float64(tot.ShiftBarriers)},
		{obs.MUnitOps, float64(tot.UnitOps)},
		{obs.MGuardSkips, float64(tot.GuardSkips)},
		{obs.MKernelLaunches, float64(len(res.Profile.Kernels))},
		{obs.MTransposeBytes, float64(res.Profile.TransposeBytes)},
		{obs.MModeledSecs, res.Profile.Time.TotalSec},
		{obs.MScanInputBytes, float64(len(pinInput))},
		{obs.MMatches, float64(len(res.Matches))},
		{obs.MScans, 1},
	}
	for _, c := range checks {
		if got := snap.Counter(c.metric); got != c.want {
			t.Errorf("%s = %g, want %g", c.metric, got, c.want)
		}
	}
	// The profile's totals must also agree with the per-kernel sum and
	// with the public Stats — the exporter and the bench artifacts quote
	// the same numbers.
	var dram int64
	for _, k := range res.Profile.Kernels {
		dram += k.Stats.DRAMReadBytes
	}
	if dram != tot.DRAMReadBytes {
		t.Errorf("sum of per-kernel DRAM reads %d != totals %d", dram, tot.DRAMReadBytes)
	}
	if res.Stats.DRAMReadBytes != tot.DRAMReadBytes || res.Stats.Barriers != tot.Barriers {
		t.Errorf("Result.Stats (%d, %d) disagrees with Profile.Totals (%d, %d)",
			res.Stats.DRAMReadBytes, res.Stats.Barriers, tot.DRAMReadBytes, tot.Barriers)
	}
}

// TestScanReaderCountsEachInputByteOnce: a chunk begins with the maxLen-1
// bytes carried over from the previous one, which that chunk already counted;
// bitgen_scan_input_bytes_total is the stream's length whatever the chunk
// size — at maxLen+1 the carried bytes are most of every chunk.
func TestScanReaderCountsEachInputByteOnce(t *testing.T) {
	input := []byte(strings.Repeat("abc a5c 42 qiik abc q12k ", 4001)) // not a multiple of any chunk size
	for _, chunk := range []int{6, 64, 256 << 10} {                    // maxLen is 5 (q[^u]{1,3}k)
		eng, err := Compile([]string{"abc", "q[^u]{1,3}k"}, &Options{
			Observability: &ObservabilityOptions{Metrics: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		matches := 0
		if err := eng.ScanReader(bytes.NewReader(input), chunk, func(Match) { matches++ }); err != nil {
			t.Fatal(err)
		}
		snap := eng.MetricsSnapshot()
		if got := snap.Counter(obs.MScanInputBytes); got != float64(len(input)) {
			t.Errorf("chunk %d: %s = %g over a %d-byte stream", chunk, obs.MScanInputBytes, got, len(input))
		}
		if got := snap.Counter(obs.MMatches); got != float64(matches) || matches == 0 {
			t.Errorf("chunk %d: %s = %g, %d emitted", chunk, obs.MMatches, got, matches)
		}
	}
}

// TestTraceContainsPipelineSpans drives a full compile + scan with tracing
// on and asserts the exported Chrome trace carries spans for the compile
// phases and the kernel launch — and, on an engine pinned to the hybrid or
// NFA backend, for that automaton's scan.
func TestTraceContainsPipelineSpans(t *testing.T) {
	for _, tc := range []struct {
		backend string
		want    []string
	}{
		{"", []string{
			"compile", "parse", "compile-group", "lower-group", "passes", // compile phases
			"run", "transpose", "kernel-launch", "kernel-attempt", "estimate", // scan + kernel launches
		}},
		{BackendHybrid, []string{"compile", "run", "hybrid-scan"}},
		{BackendNFA, []string{"compile", "run", "nfa-simulate"}},
	} {
		opts := &Options{Observability: &ObservabilityOptions{Trace: true}}
		if tc.backend != "" {
			opts.Resilience = &ResilienceOptions{ForceBackend: tc.backend}
		}
		eng, err := Compile(pinPatterns, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run([]byte(pinInput)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := eng.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("%q: trace is not valid JSON: %v", tc.backend, err)
		}
		seen := map[string]bool{}
		for _, ev := range doc.TraceEvents {
			seen[ev.Name] = true
		}
		for _, want := range tc.want {
			if !seen[want] {
				t.Errorf("%q: trace is missing span/event %q (have %v)", tc.backend, want, keys(seen))
			}
		}
	}
}

// TestSharedClassSpanPerChunk: every chunk a shared-class engine executes
// computes its class streams once, beside its transpose and on the same lane,
// and says how much it computed; an engine sharing no class records no such
// span.
func TestSharedClassSpanPerChunk(t *testing.T) {
	sigs, err := workload.Load("Yara", workload.Options{RegexScale: 0.05, InputBytes: 128 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		patterns []string
		input    []byte
		shared   bool
	}{
		{"sigs-168", sigs.Patterns, sigs.Input, true},
		{"light-4", scanBenchPatterns, lightLogBlock(1, 128<<10), false},
	} {
		eng, err := Compile(tc.patterns, &Options{Observability: &ObservabilityOptions{Trace: true}})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.ScanReader(bytes.NewReader(tc.input), 32<<10, func(Match) {}); err != nil {
			t.Fatal(err)
		}
		transposes := map[int]int{}
		classes := map[int]int{}
		for _, sp := range eng.obs.Spans.Fragment("", obs.TraceID{}).Spans {
			switch sp.Name {
			case "transpose":
				transposes[sp.Lane]++
			case "shared-classes":
				classes[sp.Lane]++
				if len(sp.Args) != 2 || sp.Args[0].Key != "classes" || sp.Args[0].Val.(int) == 0 ||
					sp.Args[1].Key != "ops" || sp.Args[1].Val.(int) == 0 {
					t.Errorf("%s: shared-classes span args %v", tc.name, sp.Args)
				}
			}
		}
		if len(transposes) == 0 {
			t.Fatalf("%s: no transpose spans", tc.name)
		}
		want := transposes
		if !tc.shared {
			want = map[int]int{}
		}
		if !maps.Equal(classes, want) {
			t.Errorf("%s: shared-classes spans per lane %v, transposes %v", tc.name, classes, transposes)
		}
	}
}

// TestCompileSpansKeepToTheirGroupLanes: CTA groups compile concurrently, so
// a group's compile-group / lower-group / passes spans sit on its own lane —
// 1+g, the track its kernel launches use — never on the pipeline lane, where
// the spans of two groups would partially overlap and the complete-event model
// cannot draw that. parse and the outer compile span stay on lane 0, and on
// every lane any two spans are nested or disjoint. The second input has more
// groups than the streaming pipeline's stage lanes once had room for (emit was
// lane 100, so group 99 compiled and launched on the emit track): after one
// ScanReader and one Run every lane still holds only the spans its thread_name
// promises.
func TestCompileSpansKeepToTheirGroupLanes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	mega, err := workload.Megaset(64, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	sigs, err := workload.Load("Yara", workload.Options{RegexScale: 0.05, InputBytes: 128 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	laneHolds := map[string][]string{ // thread_name prefix → span names allowed on it
		"pipeline":      {"compile", "parse", "run", "transpose", "shared-classes", "estimate"},
		"kernel/group-": {"compile-group", "lower-group", "passes", "kernel-launch", "kernel-attempt", "superblock"},
		"scan/reader":   {"read-chunk"},
		"scan/worker":   {"scan-chunk", "transpose", "shared-classes", "kernel-attempt", "superblock"},
		"scan/emit":     {"emit-chunk"},
	}
	for _, tc := range []struct {
		name     string
		patterns []string
		input    []byte // scanned once by ScanReader and once by Run when set
		groups   int
	}{
		{"megaset-64", mega.Patterns, nil, 64},
		{"sigs-168", sigs.Patterns, sigs.Input, 168},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := Compile(tc.patterns, &Options{Observability: &ObservabilityOptions{Trace: true}})
			if err != nil {
				t.Fatal(err)
			}
			if tc.input != nil {
				if err := eng.ScanReader(bytes.NewReader(tc.input), 32<<10, func(Match) {}); err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Run(tc.input); err != nil {
					t.Fatal(err)
				}
			}
			frag := eng.obs.Spans.Fragment("", obs.TraceID{})
			byLane := map[int][]obs.Span{}
			perGroup := 0
			for _, ev := range frag.Spans {
				name := frag.Lanes[ev.Lane]
				if name == "" && ev.Lane == 0 {
					name = "pipeline"
				}
				ok := false
				for prefix, holds := range laneHolds {
					ok = ok || (strings.HasPrefix(name, prefix) && slices.Contains(holds, ev.Name))
				}
				if !ok {
					t.Errorf("lane %d (thread_name %q) holds a %s/%s span", ev.Lane, name, ev.Cat, ev.Name)
				}
				if ev.Instant {
					continue
				}
				switch ev.Name {
				case "compile", "parse":
					if ev.Lane != 0 {
						t.Errorf("%s span on lane %d, want the pipeline lane", ev.Name, ev.Lane)
					}
				case "compile-group", "passes", "kernel-launch":
					if ev.Name != "kernel-launch" {
						perGroup++
					}
					if g := ev.Args[0]; g.Key != "group" || ev.Lane != 1+g.Val.(int) {
						t.Errorf("%s span of %s %v on lane %d", ev.Name, g.Key, g.Val, ev.Lane)
					}
				case "lower-group":
					perGroup++
					if ev.Lane == 0 {
						t.Error("lower-group span on the pipeline lane")
					}
				}
				byLane[ev.Lane] = append(byLane[ev.Lane], ev)
			}
			if perGroup != 3*tc.groups {
				t.Fatalf("%d per-group compile spans, want three for each of %d groups", perGroup, tc.groups)
			}
			for lane, evs := range byLane {
				// Sorted by start (the longer first on a tie), a partial overlap
				// always shows against the innermost span still open.
				sort.Slice(evs, func(i, j int) bool {
					return evs[i].Start < evs[j].Start || (evs[i].Start == evs[j].Start && evs[i].Dur > evs[j].Dur)
				})
				var open []obs.Span
				for _, b := range evs {
					for len(open) > 0 && open[len(open)-1].Start+open[len(open)-1].Dur <= b.Start {
						open = open[:len(open)-1]
					}
					if len(open) > 0 {
						if a := open[len(open)-1]; b.Start+b.Dur > a.Start+a.Dur {
							t.Errorf("lane %d: %s [%v, +%v] and %s [%v, +%v] partially overlap",
								lane, a.Name, a.Start, a.Dur, b.Name, b.Start, b.Dur)
						}
					}
					open = append(open, b)
				}
			}
		})
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestPinnedBackendsUnderConcurrentRuns hammers an engine pinned to each
// backend from many goroutines (run it with -race): the hybrid and NFA
// automata are re-entrant like the bitstream engine, every Run returns the
// unpinned engine's matches, and the scan counter sees every one.
func TestPinnedBackendsUnderConcurrentRuns(t *testing.T) {
	_, want := compilePinned(t, nil)
	for _, name := range []string{BackendBitstream, BackendHybrid, BackendNFA} {
		eng := MustCompile(pinPatterns, &Options{
			Observability: &ObservabilityOptions{Metrics: true},
			Resilience:    &ResilienceOptions{ForceBackend: name},
		})
		const scanners, scansPer = 8, 25
		var wg sync.WaitGroup
		for g := 0; g < scanners; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < scansPer; i++ {
					res, err := eng.Run([]byte(pinInput))
					if err != nil {
						t.Errorf("%s: concurrent run: %v", name, err)
						return
					}
					if res.Backend != name || !slices.Equal(res.Matches, want) {
						t.Errorf("%s: served by %q, %d matches, want %d", name, res.Backend, len(res.Matches), len(want))
						return
					}
				}
			}()
		}
		wg.Wait()
		if got := eng.MetricsSnapshot().Counter(obs.MScans); got != scanners*scansPer {
			t.Errorf("%s: %s = %g, want %d", name, obs.MScans, got, scanners*scansPer)
		}
	}
}

// prometheusSchema reduces an exposition to its stable shape: every
// `# HELP` and `# TYPE` line verbatim plus every sample line's series key
// (metric name and sorted label set, value stripped). The order is part
// of the shape — WritePrometheus guarantees families, label sets, and
// histogram `le` buckets render sorted, so two runs of the same workload
// reduce to identical schemas.
func prometheusSchema(exposition string) string {
	var schema []string
	for _, line := range strings.Split(exposition, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# "):
			schema = append(schema, line)
		default:
			if i := strings.LastIndexByte(line, ' '); i >= 0 {
				schema = append(schema, line[:i])
			}
		}
	}
	return strings.Join(schema, "\n") + "\n"
}

// TestPrometheusGoldenMetricNames renders the full exposition of an
// engine with metrics enabled and compares its schema —
// help text, type lines, and every series key including histogram bucket
// bounds and label order — against the checked-in golden. Adding or
// renaming a metric, changing help text, or reordering labels must update
// testdata/metrics.golden deliberately (run with -update-golden).
func TestPrometheusGoldenMetricNames(t *testing.T) {
	eng, err := Compile(pinPatterns, &Options{
		Observability: &ObservabilityOptions{Metrics: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run([]byte(pinInput)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := prometheusSchema(buf.String())
	const golden = "testdata/metrics.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run `go test -run Golden -update-golden` to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("metric schema drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestPrometheusDeterministicRender locks the exposition's ordering
// guarantees: rendering the same engine twice is byte-identical, and the
// output is independent of registration order — two registries built with
// the same instruments registered in opposite orders (and labels given in
// opposite orders) render the same bytes, with the histogram `le` label
// merged into its sorted position rather than appended last.
func TestPrometheusDeterministicRender(t *testing.T) {
	eng, err := Compile(pinPatterns, &Options{
		Observability: &ObservabilityOptions{Metrics: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run([]byte(pinInput)); err != nil {
		t.Fatal(err)
	}
	var first, second bytes.Buffer
	if err := eng.WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	if err := eng.WritePrometheus(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("two renders of an idle engine differ byte-for-byte")
	}

	build := func(reverse bool) string {
		reg := obs.NewRegistry()
		register := []func(){
			func() { reg.Counter("zz_total", "last family", obs.L("q", "1")).Add(3) },
			func() {
				h := reg.Histogram("mm_seconds", "middle family", []float64{0.5, 2},
					obs.L("a", "1"), obs.L("z", "2"))
				h.Observe(0.1)
				h.Observe(1)
			},
			func() { reg.Gauge("aa_depth", "first family").Set(7) },
		}
		if reverse {
			for i := len(register) - 1; i >= 0; i-- {
				register[i]()
			}
		} else {
			for _, f := range register {
				f()
			}
		}
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	fwd, rev := build(false), build(true)
	if fwd != rev {
		t.Fatalf("registration order leaked into the exposition:\n--- forward ---\n%s--- reverse ---\n%s", fwd, rev)
	}
	if !strings.Contains(fwd, `mm_seconds_bucket{a="1",le="0.5",z="2"}`) {
		t.Fatalf("histogram le label not merged in sorted label position:\n%s", fwd)
	}
	if idx := strings.Index(fwd, "aa_depth"); idx < 0 || strings.Index(fwd, "mm_seconds") < idx {
		t.Fatalf("families not sorted by name:\n%s", fwd)
	}
}

// TestDisabledObservabilityIsInert: with Options.Observability nil, the
// accessors are safe no-ops and results carry no profile.
func TestDisabledObservabilityIsInert(t *testing.T) {
	eng, err := Compile(pinPatterns, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run([]byte(pinInput))
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile != nil {
		t.Fatal("observability disabled but Result.Profile is set")
	}
	snap := eng.MetricsSnapshot()
	if len(snap.Counters) != 0 {
		t.Fatalf("disabled engine has counters: %v", snap.Counters)
	}
	var buf bytes.Buffer
	if err := eng.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("disabled WritePrometheus wrote %q, err %v", buf.String(), err)
	}
	buf.Reset()
	if err := eng.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("disabled WriteTrace is not valid JSON: %v", err)
	}
	if eng.PublishExpvar("bitgen-disabled-test") {
		t.Fatal("disabled engine published expvar")
	}
}
