package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"bitgen"
	"bitgen/internal/arena"
	"bitgen/internal/cluster"
	"bitgen/internal/faultinject"
)

// TestRetryAfterHeaders: 429 (queue full) and 503 (draining) rejections
// carry Retry-After so clients back off instead of hammering.
func TestRetryAfterHeaders(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})

	// Occupy the only execution slot and fill the one queue position.
	release, _, err := s.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		if rel, _, err := s.admit(context.Background()); err == nil {
			rel()
		}
	}()
	deadline := time.After(5 * time.Second)
	for s.Metrics().Snapshot().Gauges["bitgen_serve_queue_depth"] < 1 {
		select {
		case <-deadline:
			t.Fatal("waiter never queued")
		case <-time.After(time.Millisecond):
		}
	}

	resp, err := http.Post(hs.URL+"/v1/match", "application/json",
		strings.NewReader(`{"patterns":["ab"],"input":"ab"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != retryAfterQueueFull {
		t.Errorf("429 Retry-After = %q, want %q", got, retryAfterQueueFull)
	}
	release()
	<-waiterDone

	// Drain: every new request is 503 with the drain back-off.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(hs.URL+"/v1/match", "application/json",
		strings.NewReader(`{"patterns":["ab"],"input":"ab"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != retryAfterDraining {
		t.Errorf("503 Retry-After = %q, want %q", got, retryAfterDraining)
	}
}

// TestMaxTimeoutClamp: the server-side MaxTimeout caps client-requested
// timeouts and peer-propagated deadlines alike.
func TestMaxTimeoutClamp(t *testing.T) {
	s := mustNew(t, Config{MaxTimeout: 80 * time.Millisecond})
	defer s.Close()

	check := func(name string, r *http.Request, timeoutMS int, want time.Duration) {
		t.Helper()
		start := time.Now()
		ctx, cancel := s.requestCtx(r, timeoutMS)
		defer cancel()
		dl, ok := ctx.Deadline()
		if !ok {
			t.Fatalf("%s: no deadline", name)
		}
		got := dl.Sub(start)
		if got > want+20*time.Millisecond || got < want/2 {
			t.Errorf("%s: deadline in %v, want ~%v", name, got, want)
		}
	}

	r := httptest.NewRequest(http.MethodPost, "/v1/match", nil)
	check("client asks 60s, clamped", r, 60_000, 80*time.Millisecond)
	check("client asks 10ms, honored", r, 10, 10*time.Millisecond)

	fwd := httptest.NewRequest(http.MethodPost, "/v1/match", nil)
	fwd.Header.Set(cluster.HeaderDeadlineMS, "15")
	check("peer deadline tightens", fwd, 60_000, 15*time.Millisecond)
	fwd.Header.Set(cluster.HeaderDeadlineMS, "600000")
	check("peer deadline clamped too", fwd, 0, 80*time.Millisecond)

	// ≈ 1e13 ms: in nanoseconds it overflows an int64 unless clamped first.
	const huge = "10000000000000"
	ms, err := strconv.Atoi(huge)
	if err != nil {
		t.Fatal(err)
	}
	check("client asks 1e13 ms, clamped", r, ms, 80*time.Millisecond)
	fwd.Header.Set(cluster.HeaderDeadlineMS, huge)
	check("peer asks 1e13 ms, clamped", fwd, 0, 80*time.Millisecond)
}

// TestMaxTimeoutClampEndToEnd: a request asking for a 60s budget against
// a 50ms MaxTimeout server comes back 504 promptly.
func TestMaxTimeoutClampEndToEnd(t *testing.T) {
	s := mustNew(t, Config{MaxTimeout: 50 * time.Millisecond})
	s.matchRun = func(ctx context.Context, eng *bitgen.Engine, input []byte) (*bitgen.Result, error) {
		<-ctx.Done()
		return nil, bitgen.ErrCanceled
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	defer s.Close()

	start := time.Now()
	code, _, er := postMatch(t, hs.URL, `{"patterns":["ab"],"input":"ab","timeout_ms":60000}`)
	elapsed := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%+v), want 504", code, er)
	}
	if er.Class != "canceled" {
		t.Errorf("class = %q, want canceled", er.Class)
	}
	if elapsed > 5*time.Second {
		t.Errorf("request took %v: MaxTimeout did not clamp the 60s budget", elapsed)
	}
}

// TestScanClientDisconnect: a client that vanishes mid-NDJSON-stream must
// release its execution slot and return every pooled arena buffer — the
// leak assertion the streaming layer is built around. Run under -race.
func TestScanClientDisconnect(t *testing.T) {
	s, hs := newTestServer(t, Config{})

	pr, pw := io.Pipe()
	feederStop := make(chan struct{})
	feederDone := make(chan struct{})
	go func() {
		defer close(feederDone)
		chunk := []byte(strings.Repeat("ab", 512))
		for {
			select {
			case <-feederStop:
				pw.Close()
				return
			default:
			}
			if _, err := pw.Write(chunk); err != nil {
				return
			}
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		hs.URL+"/v1/scan?pattern=ab&chunk=256", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one record so the scan is demonstrably mid-stream, then vanish.
	buf := make([]byte, 64)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("first read: %v", err)
	}
	cancel()
	resp.Body.Close()
	close(feederStop)
	<-feederDone

	// The slot must come back and the arena must balance once the
	// aborted scan unwinds.
	deadline := time.After(10 * time.Second)
	for {
		inFlight := s.Metrics().Snapshot().Gauges["bitgen_serve_in_flight"]
		balanced := arena.Default.CheckBalanced()
		if inFlight == 0 && balanced == nil {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("after disconnect: in_flight=%v, arena=%v", inFlight, balanced)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestAdmissionWaitHonoursDeadline: a request waiting for an execution
// slot gives up at its own deadline — 504, class canceled — without ever
// counting as in flight, and the request holding the slot is unaffected.
func TestAdmissionWaitHonoursDeadline(t *testing.T) {
	s := mustNew(t, Config{MaxConcurrent: 1})
	gate := make(chan struct{})
	s.matchRun = func(ctx context.Context, eng *bitgen.Engine, input []byte) (*bitgen.Result, error) {
		<-gate
		return eng.RunContext(ctx, input)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	defer s.Close()
	inFlight := func() float64 { return s.Metrics().Snapshot().Gauges["bitgen_serve_in_flight"] }

	var heldCode int
	var held matchResponse
	heldDone := make(chan struct{})
	go func() {
		defer close(heldDone)
		heldCode, held, _ = postMatch(t, hs.URL, `{"patterns":["ab"],"input":"abxab"}`)
	}()
	deadline := time.After(5 * time.Second)
	for inFlight() < 1 {
		select {
		case <-deadline:
			t.Fatal("held request never took the slot")
		case <-time.After(time.Millisecond):
		}
	}

	start := time.Now()
	code, _, er := postMatch(t, hs.URL, `{"patterns":["ab"],"input":"ab","timeout_ms":30}`)
	if code != http.StatusGatewayTimeout || er.Class != "canceled" {
		t.Errorf("waiting match: status %d class %q, want 504 canceled", code, er.Class)
	}
	resp, err := http.Post(hs.URL+"/v1/scan?pattern=ab&timeout_ms=30", "application/octet-stream", strings.NewReader("ab"))
	if err != nil {
		t.Fatal(err)
	}
	er = errorResponse{}
	_ = json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout || er.Class != "canceled" {
		t.Errorf("waiting scan: status %d class %q, want 504 canceled", resp.StatusCode, er.Class)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("two 30ms waits took %v: admission ignored the request deadline", elapsed)
	}
	if got := inFlight(); got != 1 {
		t.Errorf("in_flight = %v after two timed-out waits, want 1 (the held request only)", got)
	}

	close(gate)
	<-heldDone
	if heldCode != http.StatusOK || len(held.Matches) != 2 {
		t.Errorf("held request: status %d matches %v, want 200 with 2 matches", heldCode, held.Matches)
	}
}

// TestNoGoroutineOutlivesServer: a cached engine owns no goroutine, so
// once a server that compiled, matched and scanned three sets is drained
// or closed, the process is back at the goroutine count it had before
// New; a cluster node that forwarded them takes its router's peer
// connections with it while its peers stay up.
func TestNoGoroutineOutlivesServer(t *testing.T) {
	sets := [][]string{{"alpha"}, {"be{1,3}ta", "t"}, {"gam.a"}}
	input := "alpha beeta gamma gamxa"
	// baseline waits out goroutines earlier tests left winding down.
	baseline := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 100; i++ {
			time.Sleep(10 * time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n {
				break
			}
			n = m
		}
		return n
	}
	settled := func(t *testing.T, base int) {
		t.Helper()
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("%d goroutines, want at most %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// drive sends one match and one scan per set through do.
	drive := func(t *testing.T, do func(path, body string) int) {
		t.Helper()
		for _, pats := range sets {
			if code := do("/v1/match", matchBody(pats, input)); code != http.StatusOK {
				t.Fatalf("match %v: status %d", pats, code)
			}
			if code := do("/v1/scan?"+url.Values{"pattern": pats}.Encode(), input); code != http.StatusOK {
				t.Fatalf("scan %v: status %d", pats, code)
			}
		}
	}
	single := func(stop func(*Server)) func(*testing.T) {
		return func(t *testing.T) {
			dir := t.TempDir()
			base := baseline()
			s := mustNew(t, Config{SnapshotDir: dir})
			h := s.Handler()
			drive(t, func(path, body string) int {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
				return w.Code
			})
			stop(s)
			settled(t, base)
		}
	}
	t.Run("drain", single(func(s *Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}))
	t.Run("close", single((*Server).Close))
	t.Run("cluster", func(t *testing.T) {
		base := baseline()
		// Nodes 1 and 2 are partitioned from their peers (their snapshot
		// fetches fail fast), so every peer connection is node 0's router's.
		nodes, err := BootCluster(3, Config{}, func(i int, cc *cluster.Config) {
			if i > 0 {
				cc.Inject = faultinject.New(uint64(i))
				cc.Inject.Arm(faultinject.PeerPartition, faultinject.Spec{Nth: 1, Repeat: true})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		booted := baseline() // the three accept loops
		// One set per owner, all through node 0: two of the three are
		// forwarded over connections node 0's router then keeps idle.
		sets = nil
		for _, nd := range nodes {
			sets = append(sets, findPatterns(t, nodes[0].Server, nd.URL, ""))
		}
		client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
		drive(t, func(path, body string) int {
			code, _, _, err := send(client, http.MethodPost, nodes[0].URL+path, "", body, nil)
			if err != nil {
				t.Fatal(err)
			}
			return code
		})
		// Node 0 goes while its peers stay up: its accept loop and every
		// goroutine the traffic started, on either end of a forward, ends.
		for i, want := range []int{booted - 1, booted - 2, base} {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := nodes[i].Shutdown(ctx); err != nil {
				t.Error(err)
			}
			cancel()
			settled(t, want)
		}
	})
}
