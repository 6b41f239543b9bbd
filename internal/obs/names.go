package obs

// Canonical metric names. Every instrumented package registers through
// these constants so the exposition is drift-free: the golden metric-name
// test at the repo root renders the full exposition and compares it
// against testdata/metrics.golden — adding or renaming a metric must
// update both, deliberately.
const (
	// Scan-level (recorded by the public Engine per Run/CountOnly call).
	MScans          = "bitgen_scans_total"
	MScanErrors     = "bitgen_scan_errors_total"
	MScanInputBytes = "bitgen_scan_input_bytes_total"
	MMatches        = "bitgen_matches_total"
	MScanHostSecs   = "bitgen_scan_host_seconds"

	// Modeled-kernel counters (aggregated from gpusim.KernelStats; these
	// are the Nsight-equivalent quantities of the paper's Tables 4-6).
	MKernelLaunches  = "bitgen_kernel_launches_total"
	MModeledSecs     = "bitgen_modeled_kernel_seconds_total"
	MDRAMReadBytes   = "bitgen_dram_read_bytes_total"
	MDRAMWriteBytes  = "bitgen_dram_write_bytes_total"
	MSMemReadBytes   = "bitgen_smem_read_bytes_total"
	MSMemWriteBytes  = "bitgen_smem_write_bytes_total"
	MBarriers        = "bitgen_barriers_total"
	MShiftBarriers   = "bitgen_shift_barriers_total"
	MUnitOps         = "bitgen_unit_ops_total"
	MWindows         = "bitgen_windows_total"
	MGuardChecks     = "bitgen_guard_checks_total"
	MGuardSkips      = "bitgen_guard_skips_total"
	MSkippedStmts    = "bitgen_skipped_stmts_total"
	MCommittedBits   = "bitgen_committed_bits_total"
	MRecomputedBits  = "bitgen_recomputed_bits_total"
	MTransposeBytes  = "bitgen_transpose_bytes_total"
	MZBSSkipRatio    = "bitgen_zero_block_skip_ratio"
	MOverlapFallback = "bitgen_overlap_fallbacks_total"

	// Compile-time families (recorded by the engine per compilation):
	// wall-clock compile latency and measured resident bytes of the durable
	// compiled state — real measurements, not snapshot-encoding proxies.
	MCompileSeconds      = "bitgen_compile_seconds"
	MEngineResidentBytes = "bitgen_engine_resident_bytes"

	// Serving layer (registered by internal/serve, not RegisterBase: the
	// exposition of a library-only process carries no serve families).
	MServeRequests        = "bitgen_serve_requests_total"
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
	MServeDrains          = "bitgen_serve_drains_total"
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
	MClusterPeers            = "bitgen_cluster_peers"
	MClusterLocalServes      = "bitgen_cluster_local_serves_total"
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
	HScans          = "Scans served through the public Engine (Run, CountOnly, ScanReader chunks)."
	HScanErrors     = "Scans that returned an error."
	HScanInputBytes = "Input bytes scanned."
	HMatches        = "Match end positions reported."
	HScanHostSecs   = "Host wall-clock seconds per scan (simulator time, not modeled GPU time)."

	HKernelLaunches  = "Simulated kernel launches (one per CTA group per scan)."
	HModeledSecs     = "Modeled GPU kernel seconds (calibrated cost model)."
	HDRAMReadBytes   = "Modeled global-memory read bytes."
	HDRAMWriteBytes  = "Modeled global-memory write bytes."
	HSMemReadBytes   = "Modeled shared-memory read bytes."
	HSMemWriteBytes  = "Modeled shared-memory write bytes."
	HBarriers        = "CTA-wide synchronization barriers."
	HShiftBarriers   = "Barriers caused by SHIFT instructions."
	HUnitOps         = "W-bit integer unit operations."
	HWindows         = "Block-window iterations executed."
	HGuardChecks     = "Zero-block-skipping guards evaluated."
	HGuardSkips      = "Zero-block-skipping guards taken."
	HSkippedStmts    = "Statements skipped by taken guards."
	HCommittedBits   = "Output bits committed (dependency-aware thread-data mapping)."
	HRecomputedBits  = "Overlap bits recomputed (DTM overhead)."
	HTransposeBytes  = "Bytes moved by the S2P transpose preprocessing kernel."
	HZBSSkipRatio    = "Taken/evaluated guard ratio of the most recent scan (why block-skipping was or was not effective)."
	HOverlapFallback = "Loops or carries that overflowed the overlap limit and were materialized stream-wise."

	HCompileSeconds      = "Wall-clock seconds to compile a pattern set into an engine (lowering, passes, state packing)."
	HEngineResidentBytes = "Measured resident bytes of durable compiled state per engine (packed programs, output tables, shared class program)."

	HServeRequests        = "HTTP requests admitted, per endpoint."
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
	HServeDrains          = "Graceful drains initiated."
	HServeResidentBytes   = "Measured resident bytes of the engines in the LRU cache: the sum of the cached engines' ResidentBytes (decremented on evict)."

	HSnapSaves           = "Engine snapshots persisted (atomic write-rename)."
	HSnapSaveErrors      = "Snapshot persistence attempts that failed (I/O or injected fault)."
	HSnapLoads           = "Engines successfully restored from a verified snapshot."
	HSnapVerifyFailures  = "Snapshots refused at load, per reason (corrupt, truncated, version-mismatch, options-mismatch, key-mismatch)."
	HSnapQuarantines     = "Corrupt or truncated snapshots renamed to a .bad sidecar."
	HSnapPeerFetches     = "Snapshots fetched from a ring owner/successor on cache miss."
	HSnapPeerFetchErrors = "Peer snapshot fetches that failed or returned no snapshot."

	HClusterPeers            = "Replicas on the consistent-hash ring (including this node)."
	HClusterLocalServes      = "Requests for keys this node owns, served locally."
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

// RegisterBase eagerly registers every scan-level and modeled-kernel
// family, so a scrape taken before the first scan (or before the first
// rare event, like an overlap fallback) still exposes the full schema.
// Nil-safe on r.
func RegisterBase(r *Registry) {
	r.Counter(MScans, HScans)
	r.Counter(MScanErrors, HScanErrors)
	r.Counter(MScanInputBytes, HScanInputBytes)
	r.Counter(MMatches, HMatches)
	r.Histogram(MScanHostSecs, HScanHostSecs, ScanSecondsBuckets)
	r.Counter(MKernelLaunches, HKernelLaunches)
	r.Counter(MModeledSecs, HModeledSecs)
	r.Counter(MDRAMReadBytes, HDRAMReadBytes)
	r.Counter(MDRAMWriteBytes, HDRAMWriteBytes)
	r.Counter(MSMemReadBytes, HSMemReadBytes)
	r.Counter(MSMemWriteBytes, HSMemWriteBytes)
	r.Counter(MBarriers, HBarriers)
	r.Counter(MShiftBarriers, HShiftBarriers)
	r.Counter(MUnitOps, HUnitOps)
	r.Counter(MWindows, HWindows)
	r.Counter(MGuardChecks, HGuardChecks)
	r.Counter(MGuardSkips, HGuardSkips)
	r.Counter(MSkippedStmts, HSkippedStmts)
	r.Counter(MCommittedBits, HCommittedBits)
	r.Counter(MRecomputedBits, HRecomputedBits)
	r.Counter(MTransposeBytes, HTransposeBytes)
	r.Gauge(MZBSSkipRatio, HZBSSkipRatio)
	r.Counter(MOverlapFallback, HOverlapFallback)
	r.Histogram(MCompileSeconds, HCompileSeconds, CompileSecondsBuckets)
	r.Histogram(MEngineResidentBytes, HEngineResidentBytes, ResidentBytesBuckets)
}
