package obs

// Canonical metric names. Every instrumented package registers through
// these constants. Two goldens pin the schema: testdata/metrics.golden at
// the repo root (an engine's own registry) and
// internal/serve/testdata/metrics.golden (a server's, snapshots and cluster
// on). Each family has one reader, named in DESIGN.md §9; a test fails
// when a family in either golden has no row there.
const (
	// Scan-level (recorded by the public Engine per Run/CountOnly call).
	MScans          = "bitgen_scans_total"
	MScanInputBytes = "bitgen_scan_input_bytes_total"
	MMatches        = "bitgen_matches_total"
	MScanHostSecs   = "bitgen_scan_host_seconds"

	// Compile-time families (recorded by the engine per compilation):
	// wall-clock compile latency and measured resident bytes of the durable
	// compiled state — real measurements, not snapshot-encoding proxies.
	MCompileSeconds      = "bitgen_compile_seconds"
	MEngineResidentBytes = "bitgen_engine_resident_bytes"

	// Serving layer (registered by internal/serve, not RegisterBase: the
	// exposition of a library-only process carries no serve families).
	MServeRequestSecs     = "bitgen_serve_request_seconds"
	MServeErrors          = "bitgen_serve_errors_total"
	MServeRejected        = "bitgen_serve_rejected_total"
	MServeInFlight        = "bitgen_serve_in_flight"
	MServeQueueDepth      = "bitgen_serve_queue_depth"
	MServeCacheHits       = "bitgen_serve_engine_cache_hits_total"
	MServeCacheMisses     = "bitgen_serve_engine_cache_misses_total"
	MServeCacheEvictions  = "bitgen_serve_engine_cache_evictions_total"
	MServeCompiles        = "bitgen_serve_engine_compiles_total"
	MServeBatches         = "bitgen_serve_batches_total"
	MServeBatchedRequests = "bitgen_serve_batched_requests_total"
	MServeResidentBytes   = "bitgen_serve_engine_cache_resident_bytes"

	// Snapshot persistence (registered by internal/snapshot and
	// internal/serve into the serve registry; absent from library-only
	// expositions).
	MSnapSaves           = "bitgen_snapshot_saves_total"
	MSnapSaveErrors      = "bitgen_snapshot_save_errors_total"
	MSnapLoads           = "bitgen_snapshot_loads_total"
	MSnapVerifyFailures  = "bitgen_snapshot_verify_failures_total"
	MSnapQuarantines     = "bitgen_snapshot_quarantines_total"
	MSnapPeerFetches     = "bitgen_snapshot_peer_fetches_total"
	MSnapPeerFetchErrors = "bitgen_snapshot_peer_fetch_errors_total"

	// Cluster layer (registered by internal/cluster into the serve
	// registry; absent from library-only expositions).
	MClusterForwards         = "bitgen_cluster_forwards_total"
	MClusterForwardErrors    = "bitgen_cluster_forward_errors_total"
	MClusterDegradedServes   = "bitgen_cluster_degraded_serves_total"
	MClusterStandbyServes    = "bitgen_cluster_standby_serves_total"
	MClusterReceivedForwards = "bitgen_cluster_received_forwards_total"
	MClusterPeerSkips        = "bitgen_cluster_peer_skips_total"
	MClusterPeerFlips        = "bitgen_cluster_peer_breaker_transitions_total"
)

// Help strings, exposed so registration sites stay consistent.
const (
	HScans          = "Scans through the public Engine (Run, CountOnly, ScanReader chunks), failed ones included (failed = this - bitgen_scan_host_seconds_count)."
	HScanInputBytes = "Input bytes scanned."
	HMatches        = "Match end positions reported."
	HScanHostSecs   = "Host wall-clock seconds per successful scan (simulator time, not modeled GPU time)."

	HCompileSeconds      = "Wall-clock seconds to compile a pattern set into an engine (lowering, passes, state packing)."
	HEngineResidentBytes = "Measured resident bytes of durable compiled state per engine (packed programs, output tables, shared class program)."

	HServeRequestSecs     = "End-to-end request latency seconds, per endpoint (match and scan), any status."
	HServeErrors          = "HTTP requests that returned an error status, per endpoint."
	HServeRejected        = "Requests rejected at admission (queue full or draining)."
	HServeInFlight        = "Requests currently executing."
	HServeQueueDepth      = "Requests queued at admission, waiting for an execution slot."
	HServeCacheHits       = "Engine-cache lookups served by an already-compiled engine."
	HServeCacheMisses     = "Engine-cache lookups that had to compile (or wait for a compile)."
	HServeCacheEvictions  = "Compiled engines evicted from the LRU cache."
	HServeCompiles        = "Pattern-set compilations executed (singleflight: concurrent first requests share one)."
	HServeBatches         = "Match requests executed, one launch each: batched_requests / batches is 1 exactly (kept for the repo benchmark's serve.batch_mean)."
	HServeBatchedRequests = "Match requests executed; always equal to bitgen_serve_batches_total (kept for the repo benchmark's serve.batch_mean)."
	HServeResidentBytes   = "Measured resident bytes of the engines in the LRU cache: the sum of the cached engines' ResidentBytes (decremented on evict)."

	HSnapSaves           = "Engine snapshots persisted (atomic write-rename)."
	HSnapSaveErrors      = "Snapshot persistence attempts that failed (I/O or injected fault)."
	HSnapLoads           = "Engines successfully restored from a verified snapshot."
	HSnapVerifyFailures  = "Snapshots refused at load, per reason (corrupt, truncated, version-mismatch, options-mismatch, key-mismatch)."
	HSnapQuarantines     = "Corrupt or truncated snapshots renamed to a .bad sidecar."
	HSnapPeerFetches     = "Snapshots fetched from a ring owner/successor on cache miss."
	HSnapPeerFetchErrors = "Peer snapshot fetches that failed or returned no snapshot."

	HClusterForwards         = "Requests forwarded to a peer, per peer."
	HClusterForwardErrors    = "Forwards that failed (network fault, 5xx, or deadline), per peer."
	HClusterDegradedServes   = "Keys served by local compile because every live owner was unreachable."
	HClusterStandbyServes    = "Keys served locally by the warm-standby successor while the owner was down."
	HClusterReceivedForwards = "Forwarded requests received from peers (served locally, never re-forwarded)."
	HClusterPeerSkips        = "Forward attempts skipped by an open peer breaker, per peer."
	HClusterPeerFlips        = "Peer breaker state transitions, per peer and destination state."
)

// ScanSecondsBuckets are the histogram bounds for per-scan host latency:
// 100µs to 10s, wide enough for both micro-inputs and full-corpus scans.
var ScanSecondsBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// RequestSecondsBuckets are the histogram bounds for end-to-end serve
// request latency: 1ms to 30s.
var RequestSecondsBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// CompileSecondsBuckets are the histogram bounds for per-compile wall
// clock: 1ms (tiny sets) to 2 minutes (100k-pattern megasets).
var CompileSecondsBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// ResidentBytesBuckets are the histogram bounds for per-engine resident
// state: 4 KiB to 1 GiB in powers of four.
var ResidentBytesBuckets = []float64{
	4096, 16384, 65536, 262144, 1048576,
	4194304, 16777216, 67108864, 268435456, 1073741824,
}

// RegisterBase eagerly registers every engine family, so a scrape taken
// before the first scan still exposes the full schema. Nil-safe on r.
func RegisterBase(r *Registry) {
	r.Counter(MScans, HScans)
	r.Counter(MScanInputBytes, HScanInputBytes)
	r.Counter(MMatches, HMatches)
	r.Histogram(MScanHostSecs, HScanHostSecs, ScanSecondsBuckets)
	r.Histogram(MCompileSeconds, HCompileSeconds, CompileSecondsBuckets)
	r.Histogram(MEngineResidentBytes, HEngineResidentBytes, ResidentBytesBuckets)
}
