package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

func TestNilTracerAndSpanAreSafe(t *testing.T) {
	var o *Observer
	if o.Tracing() {
		t.Fatal("nil observer reports a span sink")
	}
	if sp := o.Span("c", "n", 0); sp != nil {
		t.Fatalf("nil observer Span = %v, want nil", sp)
	}
	o.Span("c", "n", 0).Arg("k", 1).End()
	o.Instant("c", "n", 0)
	o.NameLane(1, "x")
	o.RecordSpan(Span{Name: "n"})
	if o.Reg() != nil {
		t.Fatal("nil observer Reg() != nil")
	}
	if o.For(context.Background()) != nil || o.For(nil) != nil {
		t.Fatal("nil observer under an untraced context resolved to a sink")
	}
	if f := NewSpanRing(4).Fragment("n", NewTraceID()); f.Spans == nil || len(f.Spans) != 0 {
		t.Fatalf("empty ring fragment = %+v, want an empty non-nil spans section", f)
	}
	metricsOnly := &Observer{Metrics: NewRegistry()}
	if metricsOnly.Tracing() || metricsOnly.Span("c", "n", 0) != nil {
		t.Fatal("an observer with metrics alone opened a span")
	}
}

func TestSpanRecording(t *testing.T) {
	o := &Observer{Spans: NewSpanRing(16)}
	sp := o.Span("compile", "lower-group", 0).Arg("group", 3)
	o.Instant("resilience", "failover", 0, A("from", "bitstream"))
	sp.End()
	evs := o.Spans.Snapshot(nil)
	if len(evs) != 2 {
		t.Fatalf("got %d spans, want 2", len(evs))
	}
	// The instant was recorded first (spans record at End).
	if !evs[0].Instant || evs[0].Name != "failover" || evs[0].Dur != 0 {
		t.Fatalf("span 0 = %+v", evs[0])
	}
	if evs[1].Instant || evs[1].Name != "lower-group" || evs[1].Dur <= 0 || evs[1].Start < evs[0].Start-evs[1].Dur {
		t.Fatalf("span 1 = %+v", evs[1])
	}
	if len(evs[1].Args) != 1 || evs[1].Args[0].Key != "group" {
		t.Fatalf("span args = %+v", evs[1].Args)
	}
	if !evs[1].Trace.IsZero() || !evs[1].ID.IsZero() {
		t.Fatalf("library-mode span carries IDs: %+v", evs[1])
	}
}

// TestObserverForPicksTheCallsSink is the sink rule: a deep trace context
// carrying a ring wins, stamped with its trace, span and node; a shallow one,
// or none, leaves the observer's own ring (or nothing).
func TestObserverForPicksTheCallsSink(t *testing.T) {
	own, server := NewSpanRing(8), NewSpanRing(8)
	o := &Observer{Metrics: NewRegistry(), Spans: own}
	tc := NewTraceContext()
	shallow := WithTraceContext(context.Background(), tc, server, "node-a")
	if got := o.For(shallow); got != o {
		t.Fatal("a shallow trace moved the call off the observer's own ring")
	}
	tc.Deep = true
	deep := WithTraceContext(context.Background(), tc, server, "node-a")
	per := o.For(deep)
	per.Span("scan", "run", 0).End()
	per.Instant("scan", "emit-chunk", -1)
	(*Observer)(nil).For(deep).Span("scan", "transpose", 0).End()
	if n := len(own.Snapshot(nil)); n != 0 {
		t.Fatalf("%d spans of a deep call landed in the engine's own ring", n)
	}
	got := server.Snapshot(nil)
	if len(got) != 3 {
		t.Fatalf("server ring holds %d spans, want 3", len(got))
	}
	seen := map[SpanID]bool{}
	for _, sp := range got {
		if sp.Trace != tc.Trace || sp.Parent != tc.Span || sp.Node != "node-a" || sp.ID.IsZero() || seen[sp.ID] {
			t.Fatalf("deep span not stamped with its trace, parent, node and a fresh ID: %+v", sp)
		}
		seen[sp.ID] = true
	}
	if per.Reg() != o.Metrics {
		t.Fatal("the per-call observer lost the metrics registry")
	}
	if back, ok := TraceContextFrom(deep); !ok || back != tc {
		t.Fatalf("TraceContextFrom(deep) = %+v %v", back, ok)
	}
}

// TestRingWrapKeepsNewestAndCountsDropped is the one table over the one
// ring, instantiated as the span ring and as the decision ring (through
// Emit and ByTrace).
func TestRingWrapKeepsNewestAndCountsDropped(t *testing.T) {
	mine := NewTraceID()
	type ring interface {
		add(i int, tagged bool)
		snapshot(byTrace bool) []int // the i of each buffered entry, oldest first
		total() uint64
		dropped() uint64
	}
	decisions := NewEventLog(EventLogConfig{})
	decisions.ring.max = 4
	spans, events := spanRingT{&Ring[Span]{max: 4}, mine}, eventRingT{decisions, mine}
	for name, r := range map[string]ring{"spans": spans, "events": events} {
		t.Run(name, func(t *testing.T) {
			if got := r.snapshot(false); len(got) != 0 || r.dropped() != 0 {
				t.Fatalf("fresh ring holds %v, dropped %d", got, r.dropped())
			}
			for i := 0; i < 3; i++ {
				r.add(i, i == 1)
			}
			if got := r.snapshot(false); !equalInts(got, []int{0, 1, 2}) || r.dropped() != 0 {
				t.Fatalf("below capacity: %v, dropped %d", got, r.dropped())
			}
			for i := 3; i < 10; i++ {
				r.add(i, i%2 == 1)
			}
			if got := r.snapshot(false); !equalInts(got, []int{6, 7, 8, 9}) {
				t.Fatalf("after wrap: %v, want the newest four oldest-first", got)
			}
			if r.total() != 10 || r.dropped() != 6 {
				t.Fatalf("total %d dropped %d, want 10 and 6", r.total(), r.dropped())
			}
			if got := r.snapshot(true); !equalInts(got, []int{7, 9}) {
				t.Fatalf("by trace: %v, want [7 9] in recording order", got)
			}
		})
	}
	var grown Ring[int]
	grown.max = 1 << 16
	grown.Add(1)
	if cap(grown.buf) > 8 {
		t.Fatalf("a 65536-entry ring holding one entry reserved %d slots: it must grow by append", cap(grown.buf))
	}
}

type spanRingT struct {
	*Ring[Span]
	mine TraceID
}

func (r spanRingT) add(i int, tagged bool) {
	sp := Span{Lane: i}
	if tagged {
		sp.Trace = r.mine
	}
	r.Add(sp)
}
func (r spanRingT) snapshot(byTrace bool) (out []int) {
	var keep func(*Span) bool
	if byTrace {
		keep = func(s *Span) bool { return s.Trace == r.mine }
	}
	for _, s := range r.Snapshot(keep) {
		out = append(out, s.Lane)
	}
	return out
}
func (r spanRingT) total() uint64   { return r.Total() }
func (r spanRingT) dropped() uint64 { return r.Dropped() }

type eventRingT struct {
	*EventLog
	mine TraceID
}

func (r eventRingT) add(i int, tagged bool) {
	var tr TraceID
	if tagged {
		tr = r.mine
	}
	r.Emit(LevelWarn, "ev", tr, A("i", i))
}
func (r eventRingT) snapshot(byTrace bool) (out []int) {
	evs := r.Events()
	if byTrace {
		evs = r.ByTrace(r.mine)
	}
	for _, e := range evs {
		out = append(out, e.Args.Get("i").(int))
	}
	return out
}
func (r eventRingT) total() uint64   { return r.ring.Total() }
func (r eventRingT) dropped() uint64 { return r.ring.Dropped() }

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConcurrentRecording: writers from many goroutines while readers
// snapshot, filter, name lanes and draw the ring (-race); nothing is lost
// but what the ring overwrote.
func TestConcurrentRecording(t *testing.T) {
	o := &Observer{Spans: NewSpanRing(1 << 10)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				o.NameLane(g, "worker")
				sp := o.Span("t", "work", g)
				o.Instant("t", "tick", g)
				sp.End()
			}
		}(g)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := WriteChromeTrace(&bytes.Buffer{}, []Fragment{o.Spans.Fragment("n", TraceID{})}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if got := o.Spans.Total(); got != 1600 {
		t.Fatalf("recorded %d spans, want 1600", got)
	}
	if got := uint64(len(o.Spans.Snapshot(nil))) + o.Spans.Dropped(); got != 1600 {
		t.Fatalf("buffered + dropped = %d, want 1600", got)
	}
}

func id16(b byte) (t TraceID) {
	for i := range t {
		t[i] = b
	}
	return t
}

func id8(b byte) (s SpanID) {
	for i := range s {
		s[i] = b
	}
	return s
}

// TestChromeTraceExport pins the one Chrome writer against a golden, over
// both shapes it draws: an engine's own trace (one fragment: lanes named or
// defaulted, a span, a nested span, an instant, dropped spans) and a stitched
// cluster trace (three fragments: a process per node, request spans with their
// IDs, engine spans under them, a decision, a node with nothing to show).
func TestChromeTraceExport(t *testing.T) {
	const t0 = 1_700_000_000_000_000_000
	engine := []Fragment{{
		Node: "bitgen", Dropped: 3, Lanes: map[int]string{1: "kernel/group-0", -2: "scan/reader"},
		Spans: []Span{
			{Cat: "scan", Name: "run", Start: t0, Dur: 9500, Args: []Arg{A("input_bytes", 4096)}},
			{Cat: "scan", Name: "kernel-launch", Lane: 1, Start: t0 + 1250, Dur: 5000, Args: []Arg{A("group", 0)}},
			{Cat: "scan", Name: "read-chunk", Lane: -2, Start: t0 + 100, Dur: 400},
			{Cat: "kernel", Name: "superblock", Lane: 7, Start: t0 + 2000, Dur: 10},
			{Cat: "resilience", Name: "failover", Start: t0 + 9000, Instant: true, Args: []Arg{A("from", "bitstream")}},
		},
	}}
	trace := id16(0xab)
	stitched := []Fragment{
		{Node: "http://a:1", TraceID: trace.String(), Spans: []Span{
			{Trace: trace, ID: id8(1), Parent: id8(9), Name: "match", Node: "http://a:1", Start: t0, Dur: 90000, Status: 200, Args: []Arg{A("path", "/v1/match")}},
			{Trace: trace, ID: id8(2), Parent: id8(1), Name: "forward", Node: "http://a:1", Start: t0 + 5000, Dur: 80000, Status: 200, Args: []Arg{A("served_by", "http://b:1")}},
			{Trace: trace, ID: id8(6), Name: "breaker", Start: t0 + 40000, Instant: true, Args: []Arg{A("level", "warn"), A("peer", "b:1"), A("streak", 3)}},
		}},
		{Node: "http://b:1", TraceID: trace.String(), Lanes: map[int]string{1: "kernel/group-0"}, Spans: []Span{
			{Trace: trace, ID: id8(3), Parent: id8(2), Name: "match", Node: "http://b:1", Start: t0 + 20000, Dur: 50000, Status: 200},
			{Trace: trace, ID: id8(4), Parent: id8(3), Cat: "scan", Name: "transpose", Node: "http://b:1", Start: t0 + 21000, Dur: 2000},
			{Trace: trace, ID: id8(5), Parent: id8(3), Cat: "scan", Name: "kernel-launch", Node: "http://b:1", Lane: 1, Start: t0 + 23000, Dur: 30000, Args: []Arg{A("group", 0)}},
		}},
		{Node: "http://c:1", TraceID: trace.String()},
	}
	var got bytes.Buffer
	for _, doc := range [][]Fragment{engine, stitched} {
		var raw bytes.Buffer
		if err := WriteChromeTrace(&raw, doc); err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&got, raw.Bytes(), "", " "); err != nil {
			t.Fatalf("export is not valid JSON: %v\n%s", err, raw.String())
		}
		// What a node serves is what the writer is handed on the far side.
		wire, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		var back []Fragment
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := WriteChromeTrace(&again, back); err != nil {
			t.Fatal(err)
		}
		if doc[0].Node != "bitgen" && !bytes.Equal(raw.Bytes(), again.Bytes()) {
			t.Errorf("a fragment drawn after its JSON round trip differs:\n%s\n%s", raw.String(), again.String())
		}
	}
	const golden = "testdata/chrome.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run `go test ./internal/obs -run ChromeTraceExport -update-golden`): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("Chrome export drifted from %s:\n%s", golden, got.String())
	}
}

// TestSpanJSONKeepsTheFragmentKeys: a fragment recorded by a node of the
// commit before the span models merged (testdata/fragment_c11addc.json,
// captured from the /v1/trace/{id} of a c11addc bitgend whose peer was down)
// decodes into today's record — its legacy "events" as instant decision
// spans after its spans — and a request span re-encodes to exactly the keys
// it had, so stitchers of either age read both.
func TestSpanJSONKeepsTheFragmentKeys(t *testing.T) {
	raw, err := os.ReadFile("testdata/fragment_c11addc.json")
	if err != nil {
		t.Fatal(err)
	}
	var f Fragment
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("a parent-commit fragment does not decode: %v", err)
	}
	if len(f.Spans) != 6 || f.Node != "http://127.0.0.1:41875" {
		t.Fatalf("decoded fragment = %+v", f)
	}
	for i, name := range []string{"forward-error", "standby-serve", "snapshot-fetch-error"} {
		if d := f.Spans[3+i]; d.Name != name || !d.Instant || d.Trace.String() != f.TraceID || d.Dur != 0 {
			t.Fatalf("legacy event %d decoded as %+v, want the instant decision %q", i, d, name)
		}
	}
	if sb := f.Spans[4]; sb.Start != 1791004510481027*1e3 || len(sb.Args) != 2 ||
		sb.Args.Get("key") != "cc204dd1ed72" || sb.Args.Get("level") != "info" {
		t.Fatalf("standby-serve decoded as %+v", sb)
	}
	fwd := f.Spans[0]
	if fwd.Name != "forward" || fwd.Trace.String() != f.TraceID || fwd.ID.String() != "875babbd431627ad" ||
		fwd.Parent != f.Spans[2].ID || fwd.Start != 1791004510480740*1e3 || fwd.Dur != 288*1e3 || fwd.Cat != "" || fwd.Lane != 0 {
		t.Fatalf("forward span decoded as %+v", fwd)
	}
	if len(fwd.Args) != 4 || fwd.Args[1].Key != "outcome" || fwd.Args[1].Val != "standby-local" || f.Spans[2].Status != 200 {
		t.Fatalf("forward attrs decoded as %+v, match status %d", fwd.Args, f.Spans[2].Status)
	}
	var want, got struct{ Spans []map[string]any }
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(again, &got); err != nil {
		t.Fatal(err)
	}
	for i := range want.Spans {
		w, _ := json.Marshal(want.Spans[i])
		g, _ := json.Marshal(got.Spans[i])
		if !bytes.Equal(w, g) {
			t.Errorf("span %d re-encodes as\n%s\nwant\n%s", i, g, w)
		}
	}
	// An engine span adds cat and lane; sub-microsecond nesting survives the
	// cut to microseconds.
	outer := Span{Cat: "kernel", Name: "kernel-attempt", Lane: 3, Start: 1_000_900, Dur: 2_300}
	inner := Span{Cat: "kernel", Name: "superblock", Lane: 3, Start: 1_001_100, Dur: 1_950}
	var o, in struct {
		Cat   string `json:"cat"`
		Lane  int    `json:"lane"`
		Start int64  `json:"start_us"`
		Dur   int64  `json:"dur_us"`
	}
	ob, _ := json.Marshal(outer)
	ib, _ := json.Marshal(inner)
	if json.Unmarshal(ob, &o) != nil || json.Unmarshal(ib, &in) != nil || o.Cat != "kernel" || o.Lane != 3 {
		t.Fatalf("engine span wire form: %s", ob)
	}
	if in.Start < o.Start || in.Start+in.Dur > o.Start+o.Dur {
		t.Fatalf("nested spans %s ⊃ %s no longer nest in microseconds", ob, ib)
	}
}
