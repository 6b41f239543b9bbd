package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bitgen"
)

func mustNew(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := mustNew(t, cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

func postMatch(t *testing.T, url string, body string) (int, matchResponse, errorResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/match", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/match: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	var mr matchResponse
	var er errorResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &mr); err != nil {
			t.Fatalf("decode match response %q: %v", raw, err)
		}
	} else if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatalf("decode error response %q: %v", raw, err)
	}
	return resp.StatusCode, mr, er
}

// TestMatchEndpoint drives both semantics fixes through the HTTP layer:
// duplicate patterns fan out per index and a nullable pattern reports its
// end-of-input match.
func TestMatchEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{})

	code, mr, _ := postMatch(t, hs.URL, `{"patterns":["abc","abc"],"input":"zabcz"}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if mr.Cache != "miss" {
		t.Errorf("first request cache = %q, want miss", mr.Cache)
	}
	want := []jsonMatch{{"abc", 0, 3}, {"abc", 1, 3}}
	if len(mr.Matches) != 2 || mr.Matches[0] != want[0] || mr.Matches[1] != want[1] {
		t.Errorf("Matches = %v, want %v", mr.Matches, want)
	}
	if mr.Counts["abc"] != 2 {
		t.Errorf("Counts[abc] = %d, want 2", mr.Counts["abc"])
	}
	if len(mr.IndexCounts) != 2 || mr.IndexCounts[0] != 1 || mr.IndexCounts[1] != 1 {
		t.Errorf("IndexCounts = %v, want [1 1]", mr.IndexCounts)
	}

	code, mr, _ = postMatch(t, hs.URL, `{"patterns":["a{0}"],"input":"aaa"}`)
	if code != http.StatusOK {
		t.Fatalf("nullable status = %d", code)
	}
	var ends []int
	for _, m := range mr.Matches {
		ends = append(ends, m.End)
	}
	if len(ends) != 4 || ends[3] != 3 {
		t.Errorf("nullable ends = %v, want [0 1 2 3] including end-of-input", ends)
	}
}

// serveErrors reads bitgen_serve_errors_total for one endpoint.
func serveErrors(s *Server, endpoint string) float64 {
	return s.Metrics().Snapshot().Counter(`bitgen_serve_errors_total{endpoint="` + endpoint + `"}`)
}

func TestMatchErrors(t *testing.T) {
	s, hs := newTestServer(t, Config{})

	code, _, er := postMatch(t, hs.URL, `{"patterns":["a["],"input":"x"}`)
	if code != http.StatusBadRequest || er.Class != "parse" {
		t.Errorf("bad pattern: status %d class %q, want 400 parse", code, er.Class)
	}
	code, _, er = postMatch(t, hs.URL, `{"patterns":[],"input":"x"}`)
	if code != http.StatusBadRequest {
		t.Errorf("empty patterns: status %d, want 400", code)
	}
	before := serveErrors(s, "match")
	code, _, er = postMatch(t, hs.URL, `not json`)
	if code != http.StatusBadRequest {
		t.Errorf("bad json: status %d, want 400", code)
	}
	if d := serveErrors(s, "match") - before; d != 1 {
		t.Errorf("bad json: serve_errors{endpoint=match} rose by %v, want 1", d)
	}
	resp, err := http.Get(hs.URL + "/v1/match")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}
}

// TestCacheSingleflight launches N concurrent first requests for the same
// pattern set and requires exactly one compilation.
func TestCacheSingleflight(t *testing.T) {
	s, hs := newTestServer(t, Config{})

	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, _ = postMatch(t, hs.URL, `{"patterns":["foo|bar","baz"],"input":"foobazbar"}`)
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: status %d", i, c)
		}
	}
	snap := s.Metrics().Snapshot()
	if got := snap.Counter("bitgen_serve_engine_compiles_total"); got != 1 {
		t.Errorf("compiles = %v, want 1 (singleflight)", got)
	}
	hits := snap.Counter("bitgen_serve_engine_cache_hits_total")
	misses := snap.Counter("bitgen_serve_engine_cache_misses_total")
	if hits+misses != n || misses != 1 {
		t.Errorf("hits=%v misses=%v, want %d lookups with 1 miss", hits, misses, n)
	}
}

// TestCacheEviction fills the LRU past capacity and checks eviction.
func TestCacheEviction(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxCachedEngines: 2})
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"patterns":["p%dq"],"input":"x"}`, i)
		if code, _, _ := postMatch(t, hs.URL, body); code != http.StatusOK {
			t.Fatalf("request %d failed", i)
		}
	}
	snap := s.Metrics().Snapshot()
	if got := snap.Counter("bitgen_serve_engine_cache_evictions_total"); got != 2 {
		t.Errorf("evictions = %v, want 2", got)
	}
	if keys := s.cache.keys(); len(keys) != 2 {
		t.Errorf("cached sets = %d, want 2", len(keys))
	}
}

// TestScanEndpoint streams a body through /v1/scan and checks NDJSON
// output, duplicate-pattern fan-out, and the done trailer.
func TestScanEndpoint(t *testing.T) {
	s, hs := newTestServer(t, Config{})

	resp, err := http.Post(hs.URL+"/v1/scan?pattern=ab&pattern=ab&chunk=3",
		"application/octet-stream", strings.NewReader("xxabxxabxx"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d (%q), want 4 matches + trailer", len(lines), raw)
	}
	var ms []jsonMatch
	for _, l := range lines[:4] {
		var m jsonMatch
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
		ms = append(ms, m)
	}
	want := []jsonMatch{{"ab", 0, 3}, {"ab", 1, 3}, {"ab", 0, 7}, {"ab", 1, 7}}
	for i := range want {
		if ms[i] != want[i] {
			t.Errorf("match %d = %v, want %v", i, ms[i], want[i])
		}
	}
	var tr scanTrailer
	if err := json.Unmarshal([]byte(lines[4]), &tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Done || tr.Matches != 4 {
		t.Errorf("trailer = %+v, want done with 4 matches", tr)
	}

	// Nullable patterns, and a chunk no longer than the longest match, are
	// refused for streaming: 400 unsupported.
	for _, query := range []string{"pattern=a%3F", "pattern=abcdefghij&chunk=5"} {
		resp, err := http.Post(hs.URL+"/v1/scan?"+query, "application/octet-stream", strings.NewReader("aaa"))
		if err != nil {
			t.Fatal(err)
		}
		var er errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || er.Class != "unsupported" {
			t.Errorf("scan?%s: status %d class %q, want 400 unsupported", query, resp.StatusCode, er.Class)
		}
	}

	// A scan without a pattern is a 400 counted once as a scan error.
	before := serveErrors(s, "scan")
	resp, err = http.Post(hs.URL+"/v1/scan", "application/octet-stream", strings.NewReader("aaa"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("pattern-less scan: status %d, want 400", resp.StatusCode)
	}
	if d := serveErrors(s, "scan") - before; d != 1 {
		t.Errorf("pattern-less scan: serve_errors{endpoint=scan} rose by %v, want 1", d)
	}
}

// TestCacheSharesEnginesOnlyBetweenIdenticalLists posts one pattern set as
// three lists — as first compiled, reordered, with a duplicate entry — and
// each answer numbers the matches by its own list.
func TestCacheSharesEnginesOnlyBetweenIdenticalLists(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	for _, c := range []struct {
		patterns    string
		matches     []jsonMatch
		indexCounts []int
	}{
		{`["cat","dog"]`, []jsonMatch{{"cat", 0, 2}}, []int{1, 0}},
		{`["dog","cat"]`, []jsonMatch{{"cat", 1, 2}}, []int{0, 1}},
		{`["cat","cat","dog"]`, []jsonMatch{{"cat", 0, 2}, {"cat", 1, 2}}, []int{1, 1, 0}},
	} {
		code, mr, er := postMatch(t, hs.URL, `{"patterns":`+c.patterns+`,"input":"cat"}`)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d (%+v)", c.patterns, code, er)
		}
		if !slices.Equal(mr.Matches, c.matches) || !slices.Equal(mr.IndexCounts, c.indexCounts) {
			t.Errorf("%s: matches %v, index_counts %v; want %v, %v", c.patterns, mr.Matches, mr.IndexCounts, c.matches, c.indexCounts)
		}
	}
}

// TestAdmissionQueueFull rejects with 429 once MaxQueue requests wait.
func TestAdmissionQueueFull(t *testing.T) {
	s := mustNew(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	defer s.Close()

	// Occupy the only slot and fill the queue directly.
	relA, _, err := s.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		relB, _, err := s.admit(context.Background())
		if err == nil {
			relB()
		}
		close(done)
	}()
	deadline := time.After(5 * time.Second)
	for s.Metrics().Snapshot().Gauges["bitgen_serve_queue_depth"] < 1 {
		select {
		case <-deadline:
			t.Fatal("waiter never queued")
		case <-time.After(time.Millisecond):
		}
	}
	_, status, err := s.admit(context.Background())
	if err == nil || status != http.StatusTooManyRequests {
		t.Errorf("overflow admit: status %d err %v, want 429", status, err)
	}
	if got := s.Metrics().Snapshot().Counter("bitgen_serve_rejected_total"); got != 1 {
		t.Errorf("rejected = %v, want 1", got)
	}
	relA()
	<-done
}

// TestDrain verifies the drain contract: in-flight requests finish with
// their full match sets, new requests get 503, healthz flips.
func TestDrain(t *testing.T) {
	s := mustNew(t, Config{})
	gate := make(chan struct{})
	s.matchRun = func(ctx context.Context, eng *bitgen.Engine, input []byte) (*bitgen.Result, error) {
		<-gate
		return eng.RunContext(ctx, input)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	defer s.Close()

	var code int
	var mr matchResponse
	reqDone := make(chan struct{})
	go func() {
		defer close(reqDone)
		code, mr, _ = postMatch(t, hs.URL, `{"patterns":["ab"],"input":"abxab"}`)
	}()
	deadline := time.After(5 * time.Second)
	for s.Metrics().Snapshot().Gauges["bitgen_serve_in_flight"] < 1 {
		select {
		case <-deadline:
			t.Fatal("request never became in-flight")
		case <-time.After(time.Millisecond):
		}
	}

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- s.Drain(ctx)
	}()
	// Drain must flip health and rejections immediately, while the gated
	// request is still in flight.
	for !s.Draining() {
		select {
		case <-deadline:
			t.Fatal("drain flag never flipped")
		case <-time.After(time.Millisecond):
		}
	}
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: %d, want 503", resp.StatusCode)
	}
	if c, _, er := postMatch(t, hs.URL, `{"patterns":["ab"],"input":"ab"}`); c != http.StatusServiceUnavailable {
		t.Errorf("new request during drain: %d (%+v), want 503", c, er)
	}
	select {
	case err := <-drainDone:
		t.Fatalf("drain finished while a request was in flight: %v", err)
	default:
	}

	// Release the in-flight request: it must complete with its matches,
	// and only then may drain finish.
	close(gate)
	<-reqDone
	if code != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d", code)
	}
	if len(mr.Matches) != 2 {
		t.Errorf("drained request dropped matches: %v", mr.Matches)
	}
	select {
	case err := <-drainDone:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain never finished after requests completed")
	}
	if got := s.Metrics().Snapshot().Counter("bitgen_serve_drains_total"); got != 1 {
		t.Errorf("drains = %v, want 1", got)
	}
}

// TestSameSetMatchesRunConcurrently: requests for one pattern set execute
// side by side up to MaxConcurrent — a cached engine owns no loop that
// would run them one behind another — and each still answers with the
// reference (NFA rung) match sequence. Run under -race in CI.
func TestSameSetMatchesRunConcurrently(t *testing.T) {
	s := mustNew(t, Config{MaxConcurrent: 4})
	defer s.Close()
	// Every run waits until two runs have been inside the executor at
	// once: the first for the second, the rest not at all.
	var inRun atomic.Int32
	var once sync.Once
	overlap := make(chan struct{})
	s.matchRun = func(ctx context.Context, eng *bitgen.Engine, input []byte) (*bitgen.Result, error) {
		if inRun.Add(1) >= 2 {
			once.Do(func() { close(overlap) })
		}
		defer inRun.Add(-1)
		select {
		case <-overlap:
		case <-time.After(5 * time.Second):
		}
		return eng.RunContext(ctx, input)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	pats := []string{"ab+", "b", "ab+", "y.a"}
	input := strings.Repeat("xabbbyza", 64)
	ref, err := bitgen.Compile(pats, &bitgen.Options{Resilience: &bitgen.ResilienceOptions{ForceBackend: "nfa"}})
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run([]byte(input))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]jsonMatch, len(refRes.Matches))
	for i, m := range refRes.Matches {
		want[i] = jsonMatch{Pattern: m.Pattern, Index: m.Index, End: m.End}
	}

	const n = 16
	var wg sync.WaitGroup
	codes := make([]int, n)
	results := make([]matchResponse, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], results[i], _ = postMatch(t, hs.URL, matchBody(pats, input))
		}(i)
	}
	wg.Wait()
	for i := range codes {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if err := sameMatches(results[i].Matches, want); err != nil {
			t.Fatalf("request %d differs from the NFA rung: %v", i, err)
		}
	}
	select {
	case <-overlap:
	default:
		t.Error("no two same-set runs overlapped in time")
	}
}

// TestLoadSmoke is the ISSUE's load smoke: concurrent mixed traffic on a
// warm cache must compile each set exactly once and count every executed
// match. Run under -race in CI.
func TestLoadSmoke(t *testing.T) {
	s, hs := newTestServer(t, Config{})

	sets := []string{
		`{"patterns":["abc","a?","abc"],"input":"zabczabc"}`,
		`{"patterns":["foo|bar"],"input":"xfooybarz"}`,
	}
	// Warm both sets.
	for _, b := range sets {
		if code, _, _ := postMatch(t, hs.URL, b); code != http.StatusOK {
			t.Fatalf("warmup failed: %d", code)
		}
	}
	const workers = 16
	const perWorker = 10
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				body := sets[(w+i)%len(sets)]
				code, mr, er := postMatch(t, hs.URL, body)
				if code != http.StatusOK {
					errs <- fmt.Errorf("worker %d: status %d (%+v)", w, code, er)
					return
				}
				if mr.Cache != "hit" {
					errs <- fmt.Errorf("worker %d: cache %q on warm set", w, mr.Cache)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := s.Metrics().Snapshot()
	if got := snap.Counter("bitgen_serve_engine_compiles_total"); got != float64(len(sets)) {
		t.Errorf("compiles = %v, want %d (warm cache compiles nothing)", got, len(sets))
	}
	batches := snap.Counter("bitgen_serve_batches_total")
	ridden := snap.Counter("bitgen_serve_batched_requests_total")
	if ridden != batches {
		t.Errorf("batches = %v, batched requests = %v: every match is a launch of its own", batches, ridden)
	}
	if ridden != float64(len(sets)+workers*perWorker) {
		t.Errorf("batched requests = %v, want %d", ridden, len(sets)+workers*perWorker)
	}
}
