package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"bitgen"
	"bitgen/internal/obs"
	"bitgen/internal/snapshot"
	"bitgen/internal/workload"
)

// TestTraceHeaderMintedAndEchoed: a request without X-Bitgen-Trace gets a
// fresh trace minted and echoed; a request carrying one keeps its trace
// ID with a child span; a malformed value is replaced, not failed.
func TestTraceHeaderMintedAndEchoed(t *testing.T) {
	s := mustNew(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(traceHeader string) (*http.Response, string) {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/match",
			strings.NewReader(`{"patterns":["foo"],"input":"xfoox"}`))
		if traceHeader != "" {
			req.Header.Set(obs.TraceHeader, traceHeader)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp, resp.Header.Get(obs.TraceHeader)
	}

	_, minted := post("")
	if _, ok := obs.ParseTraceHeader(minted); !ok {
		t.Fatalf("minted trace header %q is malformed", minted)
	}

	tc := obs.NewTraceContext()
	_, echoed := post(tc.Header())
	back, ok := obs.ParseTraceHeader(echoed)
	if !ok || back.Trace != tc.Trace {
		t.Fatalf("echoed header %q does not continue trace %s", echoed, tc.Trace)
	}
	if back.Span == tc.Span {
		t.Fatal("server must answer with its own span, not parrot the client's")
	}

	_, replaced := post("not-a-trace")
	if rc, ok := obs.ParseTraceHeader(replaced); !ok || rc.Trace == tc.Trace {
		t.Fatalf("malformed inbound header should mint a fresh trace, got %q", replaced)
	}

	// The span ring kept the request's span, retrievable by trace (the
	// request was tagged, so the engine's spans sit beside it).
	spans := requestSpans(s, tc.Trace)
	if len(spans) != 1 || spans[0].Name != "match" {
		t.Fatalf("flight spans for trace = %+v, want one match span", spans)
	}
	if spans[0].Parent != tc.Span {
		t.Fatalf("span parent = %q, want the client's span %s", spans[0].Parent, tc.Span)
	}
}

// TestTracePropagation3Nodes is the -race satellite for the tentpole: one
// client-supplied trace ID must cross a cluster forward — the entry
// node's match + forward spans and the owner's serve span all carry it,
// and StitchTrace merges them into one multi-node view.
func TestTracePropagation3Nodes(t *testing.T) {
	servers, urls, _ := bootCluster(t, 3, nil)
	pats := findPatterns(t, servers[0], urls[1], urls[2])
	tc := obs.NewTraceContext()
	req, _ := http.NewRequest(http.MethodPost, urls[0]+"/v1/match",
		strings.NewReader(matchBody(pats, "a"+pats[0]+"b")))
	req.Header.Set(obs.TraceHeader, tc.Header())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); !strings.HasPrefix(got, tc.Trace.String()+"-") {
		t.Fatalf("response header %q does not continue the trace", got)
	}

	// Spans are recorded as each node's handler returns; the owner's span
	// lands before the entry's response, but poll to be safe.
	trace := tc.Trace
	deadline := time.Now().Add(5 * time.Second)
	var st *StitchedTrace
	for {
		st, err = StitchTrace(context.Background(), http.DefaultClient, urls, trace.String())
		if err == nil && len(st.NodesWithSpans()) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stitched trace never covered entry+owner: %v (err %v)", st, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	byNode := map[string][]string{}
	for _, f := range st.Fragments {
		for _, sp := range f.Spans {
			if sp.Trace != trace {
				t.Fatalf("span %s/%s carries trace %q, want %q", sp.Node, sp.Name, sp.Trace, trace)
			}
			byNode[sp.Node] = append(byNode[sp.Node], sp.Name)
		}
	}
	hasSpan := func(node, name string) bool {
		for _, n := range byNode[node] {
			if n == name {
				return true
			}
		}
		return false
	}
	if !hasSpan(urls[0], "match") || !hasSpan(urls[0], "forward") {
		t.Fatalf("entry node spans = %v, want match+forward", byNode[urls[0]])
	}
	if !hasSpan(urls[1], "match") {
		t.Fatalf("owner spans = %v, want a match span", byNode[urls[1]])
	}
	chrome, err := st.Chrome()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &doc); err != nil {
		t.Fatalf("stitched Chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 3 {
		t.Fatalf("Chrome trace has %d events, want >= 3", len(doc.TraceEvents))
	}
}

// TestForwardRecordedOnce: a forwarded match leaves exactly one forward
// span on the entry node and one match span on each node that handled it
// — the span ring is the one place a forward is recorded — and the request
// descends across the forward: the client's trace ID makes it deep, the
// transport carries the bit, and the serving node records the engine's spans
// under its match span while the idle third node records nothing. /trace, the
// per-engine trace endpoint of the second span model, is gone.
func TestForwardRecordedOnce(t *testing.T) {
	nodes, err := BootCluster(3, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Kill()
		}
	})
	pats := findPatterns(t, nodes[0].Server, nodes[1].URL, nodes[2].URL, "fwd[0-9]x", "descen(d|t)") // three CTA groups
	tc := obs.NewTraceContext()
	trace := tc.Trace
	code, msg, _, err := send(http.DefaultClient, http.MethodPost, nodes[0].URL+"/v1/match", "application/json",
		matchBody(pats, "a"+pats[0]+"b"), map[string]string{obs.TraceHeader: tc.Header()})
	if err != nil || code != http.StatusOK {
		t.Fatalf("forwarded match: status %d err %v: %s", code, err, msg)
	}

	// The entry node records its match span as its handler returns, just
	// after the client has the response.
	count := func(nd *ClusterNode, name string) int {
		n := 0
		for _, sp := range nd.Server.Spans().Fragment("", trace).Spans {
			if sp.Name == name {
				n++
			}
		}
		return n
	}
	deadline := time.Now().Add(5 * time.Second)
	for count(nodes[0], "match") == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	for i, want := range []struct{ forward, match int }{{1, 1}, {0, 1}, {0, 0}} {
		if f, m := count(nodes[i], "forward"), count(nodes[i], "match"); f != want.forward || m != want.match {
			t.Errorf("node %d: %d forward and %d match spans, want %d and %d", i, f, m, want.forward, want.match)
		}
	}

	// Descent: under the serving node's match span, by parent chain, the
	// transpose and one kernel-launch per CTA group; all three nodes' spans
	// in one stitched fetch, every one with the client's trace ID.
	st, err := StitchTrace(context.Background(), http.DefaultClient, []string{nodes[0].URL, nodes[1].URL, nodes[2].URL}, trace.String())
	if err != nil {
		t.Fatal(err)
	}
	var match obs.SpanID
	under := map[string]int{} // engine span name → how many descend from the serving node's match
	parentOf := map[obs.SpanID]obs.SpanID{}
	for _, f := range st.Fragments {
		for _, sp := range f.Spans {
			if sp.Trace != trace {
				t.Errorf("span %s/%s carries trace %s, want %s", sp.Node, sp.Name, sp.Trace, trace)
			}
			if sp.Node == nodes[1].URL && sp.Name == "match" {
				match = sp.ID
			}
			if sp.Cat != "" && sp.Node != nodes[1].URL {
				t.Errorf("engine span %s/%s on %s, which did not serve the request", sp.Cat, sp.Name, sp.Node)
			}
			parentOf[sp.ID] = sp.Parent
		}
	}
	for _, f := range st.Fragments {
		for _, sp := range f.Spans {
			for id := sp.Parent; sp.Cat != "" && !id.IsZero(); id = parentOf[id] {
				if id == match {
					under[sp.Name]++
					break
				}
			}
		}
	}
	if under["transpose"] != 1 || under["kernel-launch"] != len(pats) || under["run"] != 1 {
		t.Errorf("under the serving node's match span: %v; want one run, one transpose and a kernel-launch for each of the %d CTA groups", under, len(pats))
	}

	code, _, _, err = send(http.DefaultClient, http.MethodGet, nodes[0].URL+"/trace?set=x", "", "", nil)
	if err != nil || code != http.StatusNotFound {
		t.Errorf("/trace?set=x: status %d err %v, want 404: the route is gone", code, err)
	}
}

// requestSpans returns the request spans (no category: match, scan, forward …)
// the server's ring holds for one trace, leaving out the engine spans a
// tagged request records beside them.
func requestSpans(s *Server, trace obs.TraceID) []obs.Span {
	var out []obs.Span
	for _, sp := range s.Spans().Fragment("", trace).Spans {
		if sp.Cat == "" {
			out = append(out, sp)
		}
	}
	return out
}

// argOf returns the named annotation of a span (nil when absent).
func argOf(sp *obs.Span, key string) any {
	for _, a := range sp.Args {
		if a.Key == key {
			return a.Val
		}
	}
	return nil
}

// TestSnapshotQuarantineIsCounted: a corrupt snapshot met on a cache-miss
// reload is renamed to its .bad sidecar and counted — one quarantine, one
// verify failure under its reason, and the two evictions of a one-engine
// cache — and leaves no decision: a fact that belongs to no request is a
// counter.
func TestSnapshotQuarantineIsCounted(t *testing.T) {
	s := mustNew(t, Config{MaxCachedEngines: 1, SnapshotDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(pattern string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/match", "application/json",
			strings.NewReader(`{"patterns":["`+pattern+`"],"input":"x`+pattern+`x"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("match %q: status %d", pattern, resp.StatusCode)
		}
	}
	post("foo") // compiles and persists write-behind
	opts := s.engineOptions(false)
	key := bitgen.PatternSetKey([]string{"foo"}, &opts)
	path := s.snap.Path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no persisted snapshot to corrupt: %v", err)
	}
	data[len(data)/2] ^= 0xff // silent at-rest corruption
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := obs.MSnapVerifyFailures + `{reason="` + snapshot.ReasonCorrupt + `"}`
	before := s.Metrics().Snapshot()
	post("bar") // capacity 1: evicts foo's engine
	post("foo") // evicts bar; the reload hits the corrupt snapshot → quarantine → compile
	after := s.Metrics().Snapshot()

	if _, err := os.Stat(path + snapshot.BadExt); err != nil {
		t.Fatalf(".bad sidecar missing: %v", err)
	}
	for name, want := range map[string]float64{obs.MSnapQuarantines: 1, corrupt: 1, obs.MServeCacheEvictions: 2} {
		if d := after.Counter(name) - before.Counter(name); d != want {
			t.Errorf("%s went up by %v, want %v", name, d, want)
		}
	}
	if evs := s.Events().Events(); len(evs) != 0 {
		t.Fatalf("quarantine and eviction left %d decisions (first %q), want none", len(evs), evs[0].Name)
	}
}

// TestRequestLatencyHistogram: bitgen_serve_request_seconds exposes a
// match and a scan series before any traffic, and each counts exactly
// the requests served on its endpoint.
func TestRequestLatencyHistogram(t *testing.T) {
	s := mustNew(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	counts := func() (match, scan uint64) {
		t.Helper()
		hs := s.Metrics().Snapshot().Histograms
		m, okM := hs[obs.MServeRequestSecs+`{endpoint="match"}`]
		sc, okS := hs[obs.MServeRequestSecs+`{endpoint="scan"}`]
		if !okM || !okS {
			t.Fatalf("request-latency series missing: match %v, scan %v", okM, okS)
		}
		return m.Count, sc.Count
	}
	if m, sc := counts(); m != 0 || sc != 0 {
		t.Fatalf("before traffic: match %d, scan %d samples, want 0 and 0", m, sc)
	}
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/match", "application/json",
			strings.NewReader(`{"patterns":["foo"],"input":"xfoox"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Post(ts.URL+"/v1/scan?pattern=foo&chunk=8", "application/octet-stream",
		strings.NewReader("xxfooxxfoo"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// withObs observes after the handler returns, which can be after the
	// client has read the whole response: wait for the last sample.
	deadline := time.Now().Add(2 * time.Second)
	for {
		m, sc := counts()
		if m == 3 && sc == 1 {
			break
		}
		if m > 3 || sc > 1 || time.Now().After(deadline) {
			t.Fatalf("after 3 match and 1 scan requests: match %d, scan %d samples", m, sc)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestScanStreamingSurvivesObsMiddleware: the middleware's status
// recorder must preserve http.Flusher, or NDJSON scan streaming would
// silently buffer.
func TestScanStreamingSurvivesObsMiddleware(t *testing.T) {
	s := mustNew(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/scan?pattern=foo&chunk=8", "application/octet-stream",
		strings.NewReader("xxfooyyfoozz"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"match"`) && !strings.Contains(buf.String(), "foo") {
		t.Fatalf("scan stream looks wrong: %q", buf.String())
	}
	spans := s.Spans().Snapshot(nil)
	sawScan := false
	for _, sp := range spans {
		if sp.Name == "scan" {
			sawScan = true
		}
	}
	if !sawScan {
		t.Fatal("no scan span recorded")
	}
}

// bro9 is the serve_mixed match op of the repo benchmark: nine Bro217-style
// patterns and one 4 KiB window of their input.
func bro9(t testing.TB) ([]string, []byte) {
	t.Helper()
	app, err := workload.Load("Bro217", workload.Options{RegexScale: 9.0 / 227, InputBytes: 4096, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return app.Patterns, app.Input
}

// TestUntaggedTrafficPaysNothing: a request nobody tagged records its one
// request span and nothing else — no engine span reaches the ring. A served
// engine compiles with no observability of its own, whatever Config.Engine
// asks for, so it builds no Result.Profile, and the engine call under an
// untagged request's context allocates what that engine allocates on its
// own: 28 objects for this op, plus at most 2.
func TestUntaggedTrafficPaysNothing(t *testing.T) {
	s := mustNew(t, Config{Engine: bitgen.Options{
		Observability: &bitgen.ObservabilityOptions{Metrics: true, Trace: true},
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	pats, input := bro9(t)
	body := matchBody(pats, string(input))
	for i := 0; i < 100; i++ {
		if code, msg, _, err := send(http.DefaultClient, http.MethodPost, ts.URL+"/v1/match", "application/json", body, nil); err != nil || code != http.StatusOK {
			t.Fatalf("match %d: status %d err %v: %s", i, code, err, msg)
		}
	}
	spans := s.Spans().Snapshot(nil)
	for _, sp := range spans {
		if sp.Name != "match" || sp.Cat != "" {
			t.Fatalf("untagged traffic recorded a %s/%s span", sp.Cat, sp.Name)
		}
	}
	if len(spans) != 100 || s.Spans().Total() != 100 {
		t.Fatalf("ring holds %d spans of %d recorded, want exactly the 100 request spans", len(spans), s.Spans().Total())
	}

	opts := s.engineOptions(false)
	if opts.Observability != nil {
		t.Fatalf("served engines compile with Observability %+v, want nil", *opts.Observability)
	}
	e := s.cache.lookup(bitgen.PatternSetKey(pats, &opts))
	if e == nil {
		t.Fatal("served engine not in the cache")
	}
	res, err := e.eng.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile != nil {
		t.Fatal("a served engine built a Result.Profile")
	}
	plain, err := bitgen.Compile(pats, &opts)
	if err != nil {
		t.Fatal(err)
	}
	// What withObs hands an untagged request: a minted, shallow trace.
	ctx := obs.WithTraceContext(context.Background(), obs.NewTraceContext(), s.Spans(), s.nodeName())
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC cycle empties the session pool
	// The pool may still lose the session (under the race detector it drops
	// one Put in four on purpose): best of a few tries, each after a run that
	// leaves a session behind.
	allocs := func(eng *bitgen.Engine, ctx context.Context) uint64 {
		best := uint64(math.MaxUint64)
		for try := 0; try < 8; try++ {
			var before, after runtime.MemStats
			for i := 0; i < 2; i++ {
				runtime.ReadMemStats(&before)
				if _, err := eng.RunContext(ctx, input); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
			}
			best = min(best, after.Mallocs-before.Mallocs)
		}
		return best
	}
	served, base := allocs(e.eng, ctx), allocs(plain, context.Background())
	if served > base+2 || served > 28+2 {
		t.Errorf("RunContext under an untagged request allocates %d objects; the engine on its own %d, the ceiling 28+2", served, base)
	}
	if got := s.Spans().Total(); got != 100 {
		t.Errorf("%d engine spans reached the ring under an untagged context", got-100)
	}
}

// TestPooledSessionNeverCarriesAPreviousSink: scan sessions are pooled per
// engine and handed the borrowing call's observer; a session a tagged request
// warmed must record nothing for the untagged request that borrows it next.
// First in sequence on one warm engine, then 16 goroutines mixing the two
// kinds on both endpoints (-race): every engine span in the ring carries a
// tagged request's trace ID, none an untagged request's.
func TestPooledSessionNeverCarriesAPreviousSink(t *testing.T) {
	s := mustNew(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	pats, input := bro9(t)
	body := matchBody(pats, string(input))
	scanURL := ts.URL + "/v1/scan?" + url.Values{"pattern": {"foo[0-9]x", "barbaz"}}.Encode()
	// do sends one request, tagged with a fresh trace or not, and returns
	// the trace ID the server filed it under.
	do := func(scan, tagged bool) obs.TraceID {
		var hdr map[string]string
		if tagged {
			hdr = map[string]string{obs.TraceHeader: obs.NewTraceContext().Header()}
		}
		target, ctype, payload := ts.URL+"/v1/match", "application/json", body
		if scan {
			target, ctype, payload = scanURL, "application/octet-stream", "xxfoo7xyybarbazzz"
		}
		code, msg, h, err := send(http.DefaultClient, http.MethodPost, target, ctype, payload, hdr)
		if err != nil || code != http.StatusOK {
			t.Errorf("request: status %d err %v: %s", code, err, msg)
		}
		tc, _ := obs.ParseTraceHeader(h.Get(obs.TraceHeader))
		return tc.Trace
	}
	engineSpans := func(trace obs.TraceID) int {
		n := 0
		for _, sp := range s.Spans().Fragment("", trace).Spans {
			if sp.Cat != "" {
				n++
			}
		}
		return n
	}
	// One P makes the pool hand the next call the session the last one
	// returned (but for the Put in four the race detector drops).
	restore := runtime.GOMAXPROCS(1)
	do(false, false) // warm: compile, build and pool a session
	first, firstScan := do(false, true), do(true, true)
	perKind := map[bool]int{false: engineSpans(first), true: engineSpans(firstScan)} // scan? → engine spans of one tagged request
	if perKind[false] == 0 || perKind[true] == 0 {
		t.Fatalf("a tagged request recorded no engine spans: %v", perKind)
	}
	for _, scan := range []bool{false, true} {
		before := s.Spans().Total()
		untagged := do(scan, false)
		if got := s.Spans().Total() - before; got != 1 || engineSpans(untagged) != 0 {
			t.Fatalf("the untagged request after a tagged one recorded %d spans, %d of them engine spans; want its request span alone", got, engineSpans(untagged))
		}
	}
	runtime.GOMAXPROCS(restore)

	var mu sync.Mutex
	tagged := map[obs.TraceID]bool{first: false, firstScan: true} // tagged trace → scan?
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				scan := i%3 == 2
				if id := do(scan, (g+i)%2 == 0); (g+i)%2 == 0 {
					mu.Lock()
					tagged[id] = scan
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	if d := s.Spans().Dropped(); d != 0 {
		t.Fatalf("the ring dropped %d spans: the check below would miss them", d)
	}
	for _, sp := range s.Spans().Snapshot(nil) {
		if _, ok := tagged[sp.Trace]; sp.Cat != "" && !ok {
			t.Fatalf("engine span %s/%s carries trace %s, which no tagged request has", sp.Cat, sp.Name, sp.Trace)
		}
	}
	// A session that kept a tagged call's sink would file a later call's
	// spans under that call's trace.
	for id, scan := range tagged {
		if got := engineSpans(id); got != perKind[scan] {
			t.Errorf("tagged trace %s (scan=%v) holds %d engine spans, want %d", id, scan, got, perKind[scan])
		}
	}
}
