package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"bitgen"
	"bitgen/internal/cli"
	"bitgen/internal/cluster"
	"bitgen/internal/faultinject"
	"bitgen/internal/obs"
	"bitgen/internal/snapshot"
)

// Config tunes one Server. Zero fields take the documented defaults.
type Config struct {
	// MaxCachedEngines bounds the compiled-engine LRU cache (default 32).
	MaxCachedEngines int
	// MaxQueue bounds how many admitted requests may wait for an
	// execution slot before new ones are rejected with 429 (default 64).
	MaxQueue int
	// MaxConcurrent bounds requests executing at once (default
	// 2*GOMAXPROCS).
	MaxConcurrent int
	// DefaultTimeout applies when a request carries no timeout_ms
	// (default 10s); MaxTimeout caps client-requested timeouts (default
	// 30s) so no request — local or forwarded from a peer — can pin an
	// execution slot indefinitely.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBodyBytes caps a /v1/match request body (default 8 MiB).
	// /v1/scan bodies stream unbounded; the engine's per-chunk
	// Limits.MaxInputBytes still applies to every chunk.
	MaxBodyBytes int64
	// Engine is the base bitgen.Options every compiled engine starts
	// from; per-request knobs (fold_case) overlay it. Its Observability
	// is ignored: served engines keep no registry or span ring of their
	// own, and /metrics is the server's registry alone.
	Engine bitgen.Options
	// SnapshotDir, when set, enables engine persistence: compiled engines
	// are saved there write-behind, a cache miss loads the set's snapshot
	// from it before compiling, and /v1/snapshot serves its contents to
	// cluster peers. Empty disables persistence entirely.
	SnapshotDir string
	// Inject arms deterministic persistence faults on the snapshot store
	// (tests).
	Inject *faultinject.Injector
}

func (c Config) withDefaults() Config {
	if c.MaxCachedEngines <= 0 {
		c.MaxCachedEngines = 32
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// Server is the multi-tenant matching service: engine cache, bounded
// admission, graceful drain. Create with New, mount Handler on an
// http.Server, call Drain on shutdown.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	cache *registry
	mux   *http.ServeMux

	baseCtx context.Context
	cancel  context.CancelFunc

	slots chan struct{}

	mu         sync.Mutex
	waiting    int
	active     int
	draining   bool
	idleClosed bool
	idle       chan struct{}

	inFlight   *obs.Gauge
	queueDepth *obs.Gauge
	// requestSecs holds the match and scan request-latency histograms,
	// keyed by span name (withObs observes them; read-only after New).
	requestSecs map[string]*obs.Histogram

	// snap is the engine persistence store; nil when SnapshotDir is unset.
	snap *snapshot.Store

	// cluster, when non-nil, routes pattern-set keys across replicas.
	cluster *cluster.Router

	// Observability plane: the decision ring and the span ring (one span
	// per request, plus the engine's spans of a request that arrived
	// tagged). Both are always on — they are rings, not I/O — and feed
	// /v1/trace/{id}.
	events *obs.EventLog
	spans  *obs.SpanRing

	// matchRun, when non-nil (tests), replaces Engine.RunContext as
	// /v1/match's executor, to hold a request in flight.
	matchRun func(ctx context.Context, eng *bitgen.Engine, input []byte) (*bitgen.Result, error)
}

// New builds a Server. The returned server owns a background context for
// admission waits; Drain (or Close) releases it.
// New fails only when SnapshotDir is set but unusable — a server that
// cannot honor its persistence contract should not boot.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		reg:     obs.NewRegistry(),
		mux:     http.NewServeMux(),
		baseCtx: ctx,
		cancel:  cancel,
		slots:   make(chan struct{}, cfg.MaxConcurrent),
		idle:    make(chan struct{}),
	}
	s.spans = obs.NewSpanRing(spanRingCapacity)
	s.events = obs.NewEventLog(obs.EventLogConfig{})
	s.cache = newRegistry(cfg.MaxCachedEngines, s.reg, s.buildEngine)

	// Register every serve family eagerly so a scrape before the first
	// request still exposes the full schema.
	s.requestSecs = make(map[string]*obs.Histogram, 2)
	for _, ep := range []string{"match", "scan"} {
		s.requestSecs[ep] = s.reg.Histogram(obs.MServeRequestSecs, obs.HServeRequestSecs,
			obs.RequestSecondsBuckets, obs.L("endpoint", ep))
		s.reg.Counter(obs.MServeErrors, obs.HServeErrors, obs.L("endpoint", ep))
	}
	s.reg.Counter(obs.MServeRejected, obs.HServeRejected)
	s.inFlight = s.reg.Gauge(obs.MServeInFlight, obs.HServeInFlight)
	s.queueDepth = s.reg.Gauge(obs.MServeQueueDepth, obs.HServeQueueDepth)
	s.reg.Counter(obs.MServeCacheHits, obs.HServeCacheHits)
	s.reg.Counter(obs.MServeCacheMisses, obs.HServeCacheMisses)
	s.reg.Counter(obs.MServeCacheEvictions, obs.HServeCacheEvictions)
	s.reg.Counter(obs.MServeCompiles, obs.HServeCompiles)
	s.reg.Counter(obs.MServeBatches, obs.HServeBatches)
	s.reg.Counter(obs.MServeBatchedRequests, obs.HServeBatchedRequests)
	s.reg.Counter(obs.MSnapLoads, obs.HSnapLoads)
	s.reg.Counter(obs.MSnapPeerFetches, obs.HSnapPeerFetches)
	s.reg.Counter(obs.MSnapPeerFetchErrors, obs.HSnapPeerFetchErrors)
	for _, reason := range []string{
		snapshot.ReasonCorrupt, snapshot.ReasonTruncate, snapshot.ReasonVersion,
		snapshot.ReasonOptions, snapshot.ReasonKey, snapshot.ReasonStoreIO,
	} {
		s.reg.Counter(obs.MSnapVerifyFailures, obs.HSnapVerifyFailures, obs.L("reason", reason))
	}

	if cfg.SnapshotDir != "" {
		store, err := snapshot.NewStore(cfg.SnapshotDir, s.reg, cfg.Inject)
		if err != nil {
			cancel()
			return nil, err
		}
		s.snap = store
	}

	s.mux.HandleFunc("/v1/match", s.handleMatch)
	s.mux.HandleFunc("/v1/scan", s.handleScan)
	s.mux.HandleFunc("/v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/v1/cluster", s.handleCluster)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/trace/", s.handleTraceFragment)
	return s, nil
}

// EnableCluster wires consistent-hash routing across the configured
// replicas. Call once, before serving traffic. The router registers its
// cluster.* families into this server's registry and records each forward
// in the span ring and its decisions in the decision ring (/v1/trace/{id}).
func (s *Server) EnableCluster(cc cluster.Config) error {
	r, err := cluster.New(cc, &obs.Observer{Metrics: s.reg, Events: s.events, Spans: s.spans})
	if err != nil {
		return err
	}
	s.cluster = r
	return nil
}

// Cluster returns the router, or nil when cluster mode is off.
func (s *Server) Cluster() *cluster.Router { return s.cluster }

// Handler returns the service's HTTP handler, wrapped in the
// observability middleware: every request gets a trace context (parsed
// from X-Bitgen-Trace or minted), a request span, and — for the
// match/scan endpoints — a request-latency observation.
func (s *Server) Handler() http.Handler { return s.withObs(s.mux) }

// Events returns the decision ring (tests; /v1/trace/{id} reads it by trace).
func (s *Server) Events() *obs.EventLog { return s.events }

// Spans returns the span ring.
func (s *Server) Spans() *obs.SpanRing { return s.spans }

// Metrics returns the serve-layer registry, the one /metrics renders.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// engineOptions is Config.Engine with the request's fold_case overlaid and
// no observability of the engine's own.
func (s *Server) engineOptions(foldCase bool) bitgen.Options {
	o := s.cfg.Engine
	o.FoldCase = foldCase
	o.Observability = nil
	return o
}

// Draining reports whether a drain has started.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain starts a graceful drain: new requests are rejected with 503 (and
// /healthz flips to 503, so load balancers stop routing), in-flight
// requests run to completion, then the server context is canceled.
// Returns ctx.Err() if ctx expires first; the drain state persists either
// way.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.maybeIdleLocked()
	s.mu.Unlock()

	select {
	case <-s.idle:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.release()
	return nil
}

// Close releases the server immediately without waiting for in-flight
// requests (tests; production should Drain).
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.maybeIdleLocked()
	s.mu.Unlock()
	s.release()
}

// release ends what outlives requests: the server context (admission
// waits) and the router's idle peer connections.
func (s *Server) release() {
	s.cancel()
	if s.cluster != nil {
		s.cluster.Close()
	}
}

func (s *Server) maybeIdleLocked() {
	if s.draining && s.active == 0 && !s.idleClosed {
		s.idleClosed = true
		close(s.idle)
	}
}

// spanRingCapacity bounds the span ring: seconds of untagged traffic, or the
// engine spans of a few tagged scans. The ring grows towards it by append.
const spanRingCapacity = 8192

// maxScanForwardBytes bounds how much of a /v1/scan body is buffered for
// cluster forwarding: the buffer is there so failover to the successor can
// replay the body; larger streams are served locally.
const maxScanForwardBytes = 1 << 20

var (
	errDraining  = errors.New("server is draining")
	errQueueFull = errors.New("admission queue is full")
)

// admit applies the bounded admission queue: reject while draining,
// reject when MaxQueue requests already wait, otherwise wait for one of
// MaxConcurrent execution slots. On success the returned release func
// must be called exactly once.
func (s *Server) admit(ctx context.Context) (release func(), status int, err error) {
	rejected := func() { s.reg.Counter(obs.MServeRejected, obs.HServeRejected).Inc() }
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		rejected()
		return nil, http.StatusServiceUnavailable, errDraining
	}
	if s.waiting >= s.cfg.MaxQueue {
		s.mu.Unlock()
		rejected()
		return nil, http.StatusTooManyRequests, errQueueFull
	}
	s.waiting++
	s.queueDepth.Set(float64(s.waiting))
	s.mu.Unlock()

	var acquired bool
	select {
	case s.slots <- struct{}{}:
		acquired = true
	case <-ctx.Done():
	case <-s.baseCtx.Done():
	}

	s.mu.Lock()
	s.waiting--
	s.queueDepth.Set(float64(s.waiting))
	if acquired && s.draining {
		// Drained while waiting for a slot: give it back and reject.
		<-s.slots
		acquired = false
		s.mu.Unlock()
		rejected()
		return nil, http.StatusServiceUnavailable, errDraining
	}
	if !acquired {
		s.mu.Unlock()
		if s.baseCtx.Err() != nil {
			rejected()
			return nil, http.StatusServiceUnavailable, errDraining
		}
		return nil, http.StatusGatewayTimeout, fmt.Errorf("timed out waiting for an execution slot: %w", ctx.Err())
	}
	s.active++
	s.mu.Unlock()
	s.inFlight.Add(1)
	return func() {
		<-s.slots
		s.inFlight.Add(-1)
		s.mu.Lock()
		s.active--
		s.maybeIdleLocked()
		s.mu.Unlock()
	}, 0, nil
}

// route is the step both matching endpoints take before admission:
// forwarding proxies I/O, not engine work, so it must never hold an
// execution slot — a saturated cluster whose slots are all held by
// forwards waiting in each other's admission queues starves itself. A
// received forward (never re-forwarded) and an owned key run here; any
// other key is to be forwarded along the returned route, except on a
// draining replica, which rejects it with 503 and returns ok false.
func (s *Server) route(w http.ResponseWriter, r *http.Request, endpoint, key string) (route cluster.Route, forward, ok bool) {
	if s.cluster == nil {
		return route, false, true
	}
	if r.Header.Get(cluster.HeaderForwarded) == "1" {
		s.cluster.NoteReceivedForward()
		return route, false, true
	}
	route = s.cluster.Route(key)
	switch {
	case route.SelfOwner:
		return route, false, true
	case s.Draining():
		s.reg.Counter(obs.MServeRejected, obs.HServeRejected).Inc()
		s.reject(w, endpoint, http.StatusServiceUnavailable, errDraining)
		return route, false, false
	}
	return route, true, true
}

// acquire admits a request that runs here and fetches its engine from the
// cache, building it on a miss. On failure it has answered the request
// and returns a nil entry; otherwise the caller must call release once.
func (s *Server) acquire(ctx context.Context, w http.ResponseWriter, endpoint, key string, patterns []string, foldCase bool) (e *entry, hit bool, release func()) {
	release, status, err := s.admit(ctx)
	if err != nil {
		s.reject(w, endpoint, status, err)
		return nil, false, nil
	}
	e, hit, err = s.cache.get(ctx, key, patterns, foldCase)
	if err != nil {
		s.fail(w, endpoint, statusOf(err, true), err, true)
		release()
		return nil, false, nil
	}
	return e, hit, release
}

// requestCtx derives the per-request deadline: the client's timeout_ms
// (default DefaultTimeout), tightened by a peer-propagated deadline on
// forwarded requests, and always capped at MaxTimeout — a forwarded
// request can never pin a cluster slot longer than the server allows.
func (s *Server) requestCtx(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := min(s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
	if timeoutMS > 0 {
		d = s.clampMS(timeoutMS)
	}
	if h := r.Header.Get(cluster.HeaderDeadlineMS); h != "" {
		if ms, err := strconv.Atoi(h); err == nil && ms > 0 {
			if hd := s.clampMS(ms); hd < d || timeoutMS <= 0 {
				d = hd
			}
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// clampMS converts a positive millisecond count to a duration of at most
// MaxTimeout, clamping before it multiplies: from ≈ 9.2e12 ms the product
// would wrap negative and expire the request at once.
func (s *Server) clampMS(ms int) time.Duration {
	if int64(ms) > int64(s.cfg.MaxTimeout/time.Millisecond) {
		return s.cfg.MaxTimeout
	}
	return time.Duration(ms) * time.Millisecond
}

// ---- wire types ----

type matchRequest struct {
	// Patterns is the pattern set; duplicates are legal and report
	// per-index results, exactly like the library.
	Patterns []string `json:"patterns"`
	// Input is the text to scan; InputBase64 carries binary input and
	// wins when both are set.
	Input       string `json:"input"`
	InputBase64 string `json:"input_base64"`
	FoldCase    bool   `json:"fold_case"`
	TimeoutMS   int    `json:"timeout_ms"`
	CountOnly   bool   `json:"count_only"`
}

type jsonMatch struct {
	Pattern string `json:"pattern"`
	Index   int    `json:"index"`
	End     int    `json:"end"`
}

type matchResponse struct {
	Set         string         `json:"set"`
	Cache       string         `json:"cache"` // "hit" or "miss"
	Matches     []jsonMatch    `json:"matches"`
	Counts      map[string]int `json:"counts"`
	IndexCounts []int          `json:"index_counts"`
}

type scanTrailer struct {
	Done    bool   `json:"done"`
	Matches int    `json:"matches"`
	Error   string `json:"error,omitempty"`
}

type errorResponse struct {
	Error  string `json:"error"`
	Class  string `json:"class"`
	Detail string `json:"detail,omitempty"`
}

// classOf maps the bitgen error taxonomy to a stable wire token.
func classOf(err error, compileStage bool) string {
	switch {
	case errors.Is(err, bitgen.ErrLimit):
		return "limit"
	case errors.Is(err, bitgen.ErrUnsupported):
		return "unsupported"
	case errors.Is(err, bitgen.ErrCanceled):
		return "canceled"
	case errors.As(err, new(*bitgen.InternalError)):
		return "internal"
	case compileStage:
		return "parse"
	default:
		return "internal"
	}
}

// statusOf maps the taxonomy to HTTP statuses: limit→413,
// unsupported/parse→400, canceled/deadline→504, internal→500.
func statusOf(err error, compileStage bool) int {
	switch classOf(err, compileStage) {
	case "limit":
		return http.StatusRequestEntityTooLarge
	case "unsupported", "parse":
		return http.StatusBadRequest
	case "canceled":
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// fail reports a request error: counts it, then writes the JSON error
// body with the taxonomy class and the human description the CLI uses.
func (s *Server) fail(w http.ResponseWriter, endpoint string, status int, err error, compileStage bool) {
	s.reg.Counter(obs.MServeErrors, obs.HServeErrors, obs.L("endpoint", endpoint)).Inc()
	writeJSON(w, status, errorResponse{
		Error:  err.Error(),
		Class:  classOf(err, compileStage),
		Detail: cli.Describe(err),
	})
}

// Back-off hints for rejected requests: a full queue usually clears
// within a request or two (1s), a drain means this replica is going
// away and clients should re-resolve (5s). Clients and bitload honor
// Retry-After; the cluster router fails straight over to the successor
// instead of waiting.
const (
	retryAfterQueueFull = "1"
	retryAfterDraining  = "5"
)

// reject writes an admission rejection (queue full or draining); admit
// already counted it in MServeRejected. 429 and 503 carry a Retry-After
// header so well-behaved clients back off instead of hammering.
func (s *Server) reject(w http.ResponseWriter, endpoint string, status int, err error) {
	s.reg.Counter(obs.MServeErrors, obs.HServeErrors, obs.L("endpoint", endpoint)).Inc()
	class := "rejected"
	if errors.Is(err, bitgen.ErrCanceled) || status == http.StatusGatewayTimeout {
		class = "canceled"
	}
	switch status {
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After", retryAfterQueueFull)
	case http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", retryAfterDraining)
	}
	writeJSON(w, status, errorResponse{Error: err.Error(), Class: class})
}

// ---- handlers ----

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, "match", http.StatusMethodNotAllowed, errors.New("POST required"), false)
		return
	}
	body, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength)
	if err != nil {
		st := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			st = http.StatusRequestEntityTooLarge
		}
		s.fail(w, "match", st, err, false)
		return
	}
	req, input, err := decodeMatch(body)
	if err != nil {
		s.fail(w, "match", http.StatusBadRequest, err, false)
		return
	}

	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()

	opts := s.engineOptions(req.FoldCase)
	key := bitgen.PatternSetKey(req.Patterns, &opts)

	route, forward, ok := s.route(w, r, "match", key)
	if !ok {
		return
	}
	if forward {
		if res, ok := s.cluster.Forward(ctx, route, "/v1/match", "application/json", body, false); ok {
			if res.ContentType != "" {
				w.Header().Set("Content-Type", res.ContentType)
			}
			w.WriteHeader(res.Status)
			_, _ = w.Write(res.Body)
			return
		}
		// Forward exhausted every remote candidate (counted as a standby
		// or degraded serve): fall through and compile locally.
	}

	e, hit, release := s.acquire(ctx, w, "match", key, req.Patterns, req.FoldCase)
	if e == nil {
		return
	}
	defer release()

	// Both counters step once per executed match (batch_mean = 1): they
	// stay only because benchmark/serve.go reads them.
	s.reg.Counter(obs.MServeBatches, obs.HServeBatches).Inc()
	s.reg.Counter(obs.MServeBatchedRequests, obs.HServeBatchedRequests).Inc()
	var res *bitgen.Result
	if s.matchRun != nil {
		res, err = s.matchRun(ctx, e.eng, input)
	} else {
		res, err = e.eng.RunContext(ctx, input)
	}
	if err != nil {
		s.fail(w, "match", statusOf(err, false), err, false)
		return
	}

	resp := matchResponse{
		Set:         key,
		Cache:       "miss",
		Counts:      res.Counts,
		IndexCounts: res.IndexCounts,
	}
	if hit {
		resp.Cache = "hit"
	}
	if !req.CountOnly {
		resp.Matches = make([]jsonMatch, len(res.Matches))
		for i, m := range res.Matches {
			resp.Matches[i] = jsonMatch{Pattern: m.Pattern, Index: m.Index, End: m.End}
		}
	}
	writeMatchResponse(w, &resp)
}

func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, "scan", http.StatusMethodNotAllowed, errors.New("POST required"), false)
		return
	}
	q := r.URL.Query()
	patterns := q["pattern"]
	if len(patterns) == 0 {
		s.fail(w, "scan", http.StatusBadRequest, errors.New("at least one ?pattern= is required"), false)
		return
	}
	chunk := 64 << 10
	if v := q.Get("chunk"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			s.fail(w, "scan", http.StatusBadRequest, fmt.Errorf("invalid chunk %q", v), false)
			return
		}
		chunk = n
	}
	foldCase := q.Get("fold_case") == "1" || q.Get("fold_case") == "true"
	timeoutMS := 0
	if v := q.Get("timeout_ms"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.fail(w, "scan", http.StatusBadRequest, fmt.Errorf("invalid timeout_ms %q", v), false)
			return
		}
		timeoutMS = n
	}

	ctx, cancel := s.requestCtx(r, timeoutMS)
	defer cancel()

	opts := s.engineOptions(foldCase)
	key := bitgen.PatternSetKey(patterns, &opts)

	var input io.Reader = r.Body
	route, forward, ok := s.route(w, r, "scan", key)
	if !ok {
		return
	}
	if forward {
		// Buffer up to maxScanForwardBytes so failover to the successor
		// can replay the body; larger streams are served locally instead.
		buf, err := io.ReadAll(io.LimitReader(r.Body, maxScanForwardBytes+1))
		if err != nil {
			s.fail(w, "scan", http.StatusBadRequest, err, false)
			return
		}
		if len(buf) <= maxScanForwardBytes {
			if res, ok := s.cluster.Forward(ctx, route, r.URL.RequestURI(), "application/octet-stream", buf, true); ok {
				s.relayScan(w, res)
				return
			}
			input = bytes.NewReader(buf)
		} else {
			input = io.MultiReader(bytes.NewReader(buf), r.Body)
		}
	}

	e, _, release := s.acquire(ctx, w, "scan", key, patterns, foldCase)
	if e == nil {
		return
	}
	defer release()

	// Stream matches as NDJSON while the body is still being read. Once
	// the first line is written the status is committed, so a mid-stream
	// failure is reported in the trailer instead.
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	wrote := false
	count := 0
	var encErr error
	scanErr := e.eng.ScanReaderContext(ctx, input, chunk, func(m bitgen.Match) {
		if encErr != nil {
			return
		}
		wrote = true
		count++
		encErr = enc.Encode(jsonMatch{Pattern: m.Pattern, Index: m.Index, End: m.End})
		if flusher != nil && count%128 == 0 {
			flusher.Flush()
		}
	})
	if scanErr == nil {
		scanErr = encErr
	}
	if scanErr != nil && !wrote {
		s.fail(w, "scan", statusOf(scanErr, false), scanErr, false)
		return
	}
	trailer := scanTrailer{Done: scanErr == nil, Matches: count}
	if scanErr != nil {
		s.reg.Counter(obs.MServeErrors, obs.HServeErrors, obs.L("endpoint", "scan")).Inc()
		trailer.Error = scanErr.Error()
	}
	_ = enc.Encode(trailer)
	if flusher != nil {
		flusher.Flush()
	}
}

// relayScan copies a peer's NDJSON scan response line-by-line. Relaying
// whole lines means a connection that drops mid-record never leaks a
// truncated JSON object to the client — the partial line is discarded
// and a clean error trailer is emitted instead.
func (s *Server) relayScan(w http.ResponseWriter, res *cluster.ForwardResult) {
	defer res.Stream.Close()
	ct := res.ContentType
	if ct == "" {
		ct = "application/x-ndjson"
	}
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(res.Status)
	flusher, _ := w.(http.Flusher)
	br := bufio.NewReader(res.Stream)
	lines := 0
	for {
		line, err := br.ReadBytes('\n')
		if err == nil {
			if _, werr := w.Write(line); werr != nil {
				return // client went away; nothing left to report to
			}
			lines++
			if flusher != nil && lines%128 == 0 {
				flusher.Flush()
			}
			continue
		}
		// A complete peer response always ends with the trailer's newline,
		// so leftover un-terminated bytes (or any non-EOF error) mean the
		// connection dropped: discard the torn record, emit a trailer.
		if err != io.EOF || len(line) > 0 {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			s.reg.Counter(obs.MServeErrors, obs.HServeErrors, obs.L("endpoint", "scan")).Inc()
			_ = json.NewEncoder(w).Encode(scanTrailer{Done: false, Error: "cluster relay interrupted: " + err.Error()})
		}
		break
	}
	if flusher != nil {
		flusher.Flush()
	}
}

// handleCluster reports this replica's cluster view: ring membership,
// per-peer breaker health, and (with ?key=) the placement of one key.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "cluster mode is not enabled", Class: "not_found"})
		return
	}
	type peerJSON struct {
		URL       string `json:"url"`
		State     string `json:"state"`
		Failures  int    `json:"consecutive_failures"`
		LastError string `json:"last_error,omitempty"`
	}
	health := s.cluster.Health()
	peers := make([]peerJSON, 0, len(health))
	for _, p := range health {
		peers = append(peers, peerJSON{
			URL: p.URL, State: p.State.String(), Failures: p.ConsecutiveFailures,
			LastError: p.LastFailure,
		})
	}
	resp := map[string]any{
		"self":  s.cluster.Self(),
		"nodes": s.cluster.Ring().Nodes(),
		"peers": peers,
	}
	if key := r.URL.Query().Get("key"); key != "" {
		rt := s.cluster.Route(key)
		resp["route"] = map[string]any{
			"key": rt.Key, "owner": rt.Owner, "successor": rt.Successor,
			"self_owner": rt.SelfOwner, "self_standby": rt.SelfStandby,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves the serve-layer registry.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.WritePrometheus(w)
}
