GO ?= go

.PHONY: build test race vet lint vuln fault fuzz ci bench bench-smoke bench-quick paper paper-check profile-sigs profile-light profile-control profile-compile profile-serve obs-smoke serve-smoke cluster-smoke snapshot-smoke obs-cluster-smoke megaset-smoke bench-serve loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet also gates formatting: any file gofmt would rewrite fails the target.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt: unformatted files:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# lint and vuln gate on tool presence: CI installs staticcheck and
# govulncheck, local runs without them skip with a notice instead of
# failing (no network installs from the Makefile).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# The fault-injection and hardening suites, race-exercised: typed error
# classes, panic containment, cancellation, first-failure streaming, the
# backend pin and the cluster's peer breaker; then every test that runs the
# conformance harness (its fault plans included), fuzz seeds too.
HARNESS = Conformance|MatchersAgree|FuzzSnapshotRoundTrip|ChunkBoundaries|CountOnlyMatchesRunCounts|DuplicatePatterns|NullableEndOfInputAcross|RunCollectsLike|SignatureSet|ScanPipelinedMatchesSequential|ScanReaderBoundaryStraddle|ScanReaderMatchesWholeInput|ScanReaderLadderMatchesRun|ScanWorkerCounts|StateCompressionDifferential
fault:
	$(GO) test -race -run 'Injected|Hardened|WhileCap|Cancel|Limit|Concurrent|ErrorClass|Faults|ForceBackend|Pinned|FailingChunk|Terminal|Breaker' \
		./internal/faultinject/ ./internal/kernel/ ./internal/engine/ ./internal/cluster/ .
	$(GO) test -race -run '$(HARNESS)' .

# Short smoke runs of the fuzz targets: the conformance harness on generated
# pattern sets, on their snapshots and at fuzzed chunk sizes; Engine.Run
# against Go's regexp; lowering; the parser; /v1/match's one-pass body
# decoder and its append reply encoder against encoding/json; and the
# shared-class evaluator against byte membership. FUZZTIME=2m for a longer local soak.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz '^FuzzMatchersAgree$$' -fuzztime $(FUZZTIME) -run '^FuzzMatchersAgree$$' .
	$(GO) test -fuzz '^FuzzMatchersAgreeStdlib$$' -fuzztime $(FUZZTIME) -run '^FuzzMatchersAgreeStdlib$$' .
	$(GO) test -fuzz '^FuzzSnapshotRoundTrip$$' -fuzztime $(FUZZTIME) -run '^FuzzSnapshotRoundTrip$$' .
	$(GO) test -fuzz '^FuzzScanReaderChunkBoundaries$$' -fuzztime $(FUZZTIME) -run '^FuzzScanReaderChunkBoundaries$$' .
	$(GO) test -fuzz '^FuzzLower$$' -fuzztime $(FUZZTIME) -run '^FuzzLower$$' ./internal/lower
	$(GO) test -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) -run '^FuzzParse$$' ./internal/rx
	$(GO) test -fuzz '^FuzzDecodeMatchRequest$$' -fuzztime $(FUZZTIME) -run '^FuzzDecodeMatchRequest$$' ./internal/serve
	$(GO) test -fuzz '^FuzzEncodeMatchResponse$$' -fuzztime $(FUZZTIME) -run '^FuzzEncodeMatchResponse$$' ./internal/serve
	$(GO) test -fuzz '^FuzzClassEval$$' -fuzztime $(FUZZTIME) -run '^FuzzClassEval$$' ./internal/engine

# obs-smoke runs a real scan with tracing and metrics on and validates
# the exported artifacts: the Chrome trace_event JSON schema (loadable in
# chrome://tracing / Perfetto) and the Prometheus text-exposition grammar
# (HELP/TYPE comments, label syntax, cumulative histogram buckets).
obs-smoke:
	@tmp=$$(mktemp -d) && \
	printf 'error: timeout after 30ms\nok line\nfatal: disk full\n' > $$tmp/input.txt && \
	$(GO) run ./cmd/bitgen -q -metrics -trace $$tmp/trace.json -profile $$tmp/profile.json \
		'error|fatal' $$tmp/input.txt > $$tmp/metrics.txt && \
	$(GO) run ./cmd/obscheck -trace $$tmp/trace.json -metrics $$tmp/metrics.txt && \
	rm -rf $$tmp

# serve-smoke, cluster-smoke and snapshot-smoke are developer shortcuts:
# each runs one acceptance scenario of internal/serve alone and verbosely
# (scenario_test.go says what each asserts). `make race` already runs all
# of them, so `make ci` does not repeat them.
serve-smoke:
	$(GO) test -count=1 -run '^TestSelfTest$$' -v ./internal/serve

cluster-smoke:
	$(GO) test -count=1 -run '^TestClusterSelfTest$$' -v ./internal/serve

snapshot-smoke:
	$(GO) test -count=1 -run '^TestSnapshotSelfTest$$' -v ./internal/serve

# obs-cluster-smoke is the distributed-observability acceptance: boot a
# 3-replica loopback cluster, cut one peer path mid-response, and require
# (1) a client-supplied trace ID to appear in spans on all three nodes of
# the stitched /v1/trace view, with the entry node's forward span naming
# the successor that served the failover and its forward-error decision
# under that trace; (2) the entry node's
# bitgen_cluster_peer_breaker_transitions_total{to="open"} to count the
# owner's breaker opening as the fault continues; (3) the entry node's
# bitgen_serve_request_seconds histogram to count the served traffic.
# The scenario is TestObsClusterSelfTest (`make race` runs it too); here
# its -obs-out test flag hands the stitched trace and node 0's /metrics
# (labelled histograms, per-peer series) to obscheck, which validates the
# trace structurally and the exposition's grammar.
obs-cluster-smoke:
	@tmp=$$(mktemp -d) && \
	$(GO) test -count=1 -run '^TestObsClusterSelfTest$$' ./internal/serve -obs-out $$tmp && \
	$(GO) run ./cmd/obscheck -trace $$tmp/stitched.json -nodes 3 -metrics $$tmp/metrics.txt && \
	rm -rf $$tmp

# megaset-smoke is the compiled-state residency gate: compile the
# deterministic ClamAV-style signature megaset at 1k/10k/100k patterns
# and require the 100k engine to (1) stay under a 160 MiB resident
# ceiling and (2) compile within a 180s budget (measured 71.2 MiB / 12s on
# two cores — groups compile GOMAXPROCS wide, each row records the width;
# the headroom absorbs slower CI hosts). Writes results/BENCH_mem.json.
megaset-smoke:
	$(GO) run ./cmd/bitbench -exp mem -mem-ceiling-mb 160 -mem-budget 180s -json results

# loc writes results/loc.json: non-test, non-generated .go lines per
# package directory ("." is the root package) plus the total, stamped
# with the commit (suffixed -dirty when the tree has uncommitted changes).
# "Least code" is a trajectory like any other; diff this file across PRs.
loc:
	@git ls-files -co --exclude-standard '*.go' | grep -v '_test\.go$$' | \
	xargs grep -L '^// Code generated' | xargs wc -l | \
	awk '$$2 != "total" { d = $$2; if (!sub("/[^/]*$$", "", d)) d = "."; print d, $$1 }' | sort | \
	awk -v commit="$$(git describe --always --dirty)" ' \
		{ if ($$1 != last) { if (last != "") rows = rows sprintf("    \"%s\": %d,\n", last, n); last = $$1; n = 0 } n += $$2; total += $$2 } \
		END { printf "{\n  \"commit\": \"%s\",\n  \"total\": %d,\n  \"packages\": {\n%s    \"%s\": %d\n  }\n}\n", commit, total, rows, last, n }' \
	> results/loc.json
	@echo "loc: wrote results/loc.json"

# paper regenerates the paper's tables and figures at the paper's regex
# counts: results/{table1,fig11,fig12,table4,table5,fig13,fig14,fig15,
# extras}.csv and, rendered, results/bitbench.log (≈ 8 min and ≈ 4 GiB
# resident on two cores). It also writes the same artifacts for a 5 % subset
# of every application's patterns into internal/experiments/testdata/paper,
# the pins `go test` checks. It is the only writer of both.
# TestPaperArtifactsReproduce (internal/experiments) re-derives every modeled
# cell of those CSVs and fails on any difference, so a change that moves one
# commits the regenerated files with it.
paper:
	$(GO) run ./cmd/bitbench -exp all -csv results > results/bitbench.log
	$(GO) run ./cmd/bitbench -exp all -scale 0.05 -csv internal/experiments/testdata/paper > /dev/null

# paper-check is that test with the paper build tag, under which it derives
# every artifact at the paper's scale and checks it against results/ (≈ 4–5
# min on two cores); without the tag, `go test` checks the 5 % pins.
paper-check:
	$(GO) test -count=1 -timeout 30m -tags paper -run '^TestPaperArtifactsReproduce$$' ./internal/experiments

# bench-serve regenerates results/BENCH_serve.json: a 1-node baseline vs
# a 3-node cluster with a mid-run replica kill, reporting p50/p99
# latency, saturation throughput, and post-kill recovery time.
bench-serve:
	$(GO) run ./cmd/bitload -selfcluster -clients 1024 -duration 3s -sets 24 -out results/BENCH_serve.json

# ci is the tier-1 verification gate: vet, lint/vuln (when the tools are
# installed), build, the full suite under the race detector, the
# fault-injection suite, the observability and bench smokes (the service,
# cluster and snapshot scenarios run inside `race`), a quick pass of the
# repo benchmark, every modeled cell of the paper artifacts (paper-check),
# and the per-package line count.
ci: vet lint vuln build race fault obs-smoke bench-smoke bench-quick obs-cluster-smoke megaset-smoke paper-check loc

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-quick proves the repo benchmark (BENCHMARK.json, benchmark/) — the
# gate every PR is judged by — still builds and passes its own oracle: a
# short pass of all five workloads, exit 1 when any op differs from the NFA
# reference or fails. Its timings are too short to mean anything.
bench-quick:
	$(GO) run ./benchmark -quick -seed 1

# profile-sigs is the superblock executor's CPU profile as a command: the
# repo benchmark's stream_sigs op as a Go benchmark (BenchmarkScanReaderSigs:
# the kernel's execFused ≈ 60–65 % of the samples, its class prologues
# (execPrologue) 1–3 %, the window's class set (Basis.Present) ≈ 1 %, the
# shared-class evaluator ≈ 5–6 %, on two cores), 30 iterations from a test
# binary built once, top 25 by flat time, then the class-prologue node, the
# class set, the shared-class evaluator, the match collector (mergeMatches)
# and the commit of a window's live-outs (commitWindow) line by line. Output
# handling — collector, commit and the end-of-run output Popcount — read
# 7.9–10.1 % of the samples while the kernel returned chunk-wide output
# streams and 2.0–2.2 % with compact outputs (the collector under 0.4 %, the
# Popcount gone; two alternated runs a side on the 2-core host). The
# binary and the profile stay in PROFILE_DIR for `go tool pprof -list` /
# -peek; run it on the parent commit and the change for a before/after pair.
PROFILE_DIR ?= /tmp/bitgen-profile
profile-sigs:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -c -o $(PROFILE_DIR)/bitgen.test .
	$(PROFILE_DIR)/bitgen.test -test.run '^$$' -test.bench ScanReaderSigs -test.benchtime 30x \
		-test.cpuprofile $(PROFILE_DIR)/sigs.prof
	$(GO) tool pprof -top -nodecount 25 $(PROFILE_DIR)/bitgen.test $(PROFILE_DIR)/sigs.prof
	$(GO) tool pprof -list 'Executor..execPrologue|Basis..Present|classEval..run|ScanSession..mergeMatches|Executor..commitWindow' $(PROFILE_DIR)/bitgen.test $(PROFILE_DIR)/sigs.prof | \
		grep -E '^ +[0-9.]+m?s +[0-9.]+m?s|^ +\. +[0-9.]+m?s|^ROUTINE'

# profile-light is the host layers' CPU profile as a command: the repo
# benchmark's stream_light op as a Go benchmark (BenchmarkScanReaderLight: a
# match every ~16 B, so the S2P transpose, the match collector and the emit
# stage are over half of it), 40 iterations from a test binary built once, top
# 25 by flat time, then the collector, the transpose and the fused bitwise
# pair (kernel.fused2) line by line.
profile-light:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -c -o $(PROFILE_DIR)/bitgen.test .
	$(PROFILE_DIR)/bitgen.test -test.run '^$$' -test.bench ScanReaderLight -test.benchtime 40x \
		-test.cpuprofile $(PROFILE_DIR)/light.prof
	$(GO) tool pprof -top -nodecount 25 $(PROFILE_DIR)/bitgen.test $(PROFILE_DIR)/light.prof
	$(GO) tool pprof -list 'ScanSession..mergeMatches|transpose.transpose(Words|Block)|kernel.fused2' $(PROFILE_DIR)/bitgen.test $(PROFILE_DIR)/light.prof | \
		grep -E '^ +[0-9.]+m?s +[0-9.]+m?s|^ +\. +[0-9.]+m?s|^ROUTINE'

# profile-control is the control path's CPU profile as a command: the repo
# benchmark's oneshot_control op as a Go benchmark (BenchmarkRunControl: one
# Run of 92 unbounded patterns, nearly every window probed by the saturation
# probe), 300 iterations from a test binary built once, top 25 by flat time,
# then runWindowToFixpoint and probe line by line: the execWindowOnce call is
# the real pass (the registers it keeps at the fork included), the probe call
# the probe's suffix from the fork — probe's own lines split it into the
# restore and the nodes it re-runs — and saveCommitted / probeAgrees the
# probe's bookkeeping.
profile-control:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -c -o $(PROFILE_DIR)/bitgen.test .
	$(PROFILE_DIR)/bitgen.test -test.run '^$$' -test.bench RunControl -test.benchtime 300x \
		-test.cpuprofile $(PROFILE_DIR)/control.prof
	$(GO) tool pprof -top -nodecount 25 $(PROFILE_DIR)/bitgen.test $(PROFILE_DIR)/control.prof
	$(GO) tool pprof -list 'Executor..(runWindowToFixpoint|probe)$$' $(PROFILE_DIR)/bitgen.test $(PROFILE_DIR)/control.prof | \
		grep -E '^ +[0-9.]+m?s +[0-9.]+m?s|^ +\. +[0-9.]+m?s|^ROUTINE'

# profile-serve is the serve layer's CPU profile as a command: the repo
# benchmark's serve_mixed match op as a Go benchmark (BenchmarkServeMatch/
# handler: one /v1/match of nine Bro217-style patterns over a 4 KiB input
# through Handler and an httptest recorder, the registry warm), 20 000
# iterations from a test binary built once, top 25 by flat time, then
# handleMatch line by line: the body read and decode against the engine's
# Run and the response encode. BenchmarkServeMatch/decode/one_pass and
# /decode/encoding_json time the body's decode alone.
profile-serve:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -c -o $(PROFILE_DIR)/serve.test ./internal/serve
	cd internal/serve && $(PROFILE_DIR)/serve.test -test.run '^$$' -test.bench 'ServeMatch/handler' -test.benchtime 20000x \
		-test.cpuprofile $(PROFILE_DIR)/serve.prof
	$(GO) tool pprof -top -nodecount 25 $(PROFILE_DIR)/serve.test $(PROFILE_DIR)/serve.prof
	$(GO) tool pprof -list 'Server..handleMatch' $(PROFILE_DIR)/serve.test $(PROFILE_DIR)/serve.prof | \
		grep -E '^ +[0-9.]+m?s +[0-9.]+m?s|^ +\. +[0-9.]+m?s|^ROUTINE'

# profile-compile is the compile path's CPU and allocation profile as a
# command: the repo benchmark's compile_megaset op as a Go benchmark
# (BenchmarkCompileMegaset/500: compile 500 signatures, snapshot, load, first
# scan; ≈ 14 MB in 82 k objects and 2 collector cycles an op, gc/op beside
# B/op and allocs/op), 30 iterations from a test binary built once, top 25 by
# flat CPU time, by allocated bytes (collector cycles follow bytes) and by
# allocated objects (malloc time follows objects). The two profiles come
# from two runs: at a sampling rate fine enough to attribute 4 KB tables
# (-memprofilerate 4096) the heap profiler's stack walks are a fifth of the
# CPU profile. BENCH_SIZE=10000 is the regime where a group holds ~39
# patterns and the passes dominate; BENCH=CompileSigs is what setup_s times
# on stream_sigs (BenchmarkCompileSigs: a cold compile of the 168-signature
# set plus its first 256 KiB ScanReader);
# BENCH=LoadAndFirstRun is the load half of the megaset cycle alone
# (BenchmarkLoadAndFirstRun: DecodeEngine and the first Run, the compile and
# the snapshot outside the timer); BENCH=Rebalance is Shift Rebalancing alone
# over the lowered groups of the Yara-168 set and the megaset-500
# (BenchmarkRebalance, the clones made outside the timer). Run it on the
# parent commit and the change for a before/after pair.
BENCH_SIZE ?= 500
BENCH ?= CompileMegaset/$(BENCH_SIZE)
profile-compile:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -c -o $(PROFILE_DIR)/bitgen.test .
	$(PROFILE_DIR)/bitgen.test -test.run '^$$' -test.bench '$(BENCH)$$' -test.benchtime 30x \
		-test.cpuprofile $(PROFILE_DIR)/compile.prof
	$(PROFILE_DIR)/bitgen.test -test.run '^$$' -test.bench '$(BENCH)$$' -test.benchtime 30x \
		-test.memprofile $(PROFILE_DIR)/compile-mem.prof -test.memprofilerate 4096
	$(GO) tool pprof -top -nodecount 25 $(PROFILE_DIR)/bitgen.test $(PROFILE_DIR)/compile.prof
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount 25 $(PROFILE_DIR)/bitgen.test $(PROFILE_DIR)/compile-mem.prof
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount 25 $(PROFILE_DIR)/bitgen.test $(PROFILE_DIR)/compile-mem.prof

# bench-smoke is the fast perf gate: short runs of the streaming-scan and
# bitstream hot-path benchmarks (catching gross regressions and alloc
# creep in the pipelined scanner; ScanReader also selects
# BenchmarkScanReaderSigs, the signature-set scan whose -cpuprofile is the
# superblock executor's profile — no floor on it, the repo benchmark is
# the gate — and BenchmarkScanReaderLight, the match-dense scan `make
# profile-light` profiles; RunControl is the probed one-shot path with its
# allocation count, MergeMatches the match collector alone in ns per match
# (dense4, sparse168, and live1000 for the many-live-outputs case),
# SharedClasses the shared-class evaluator alone in ns per byte (stream_sigs'
# classes over one 256 KiB chunk), and
# ShiftWords is the shift kernels' cost per word, in internal/kernel one link
# of an AND chain with the shift moved, folded and only tested: what deferral
# saves per link; Fused2 the nine fused bitwise pairs on one 258-word window
# in ns per word, each beside the same pair as two plain passes), one
# iteration of BenchmarkCompileMegaset/500 (the compile_megaset op with its
# allocation count; a line of its own because a slash in -bench filters every
# other benchmark's sub-benchmarks) and of BenchmarkCompileSigs (what setup_s
# times on stream_sigs), a
# 200 ms run of BenchmarkScanReader (four patterns, 256 KiB chunks, one
# chunk worker per core) whose MB/s field is held to a hard throughput
# floor — 54.1 MB/s is the pipelined scanner's pre-superblock seed
# baseline, so any regression back to it fails the build, as does a failed
# or missing benchmark line — then a real pipelined streaming scan with
# tracing on, its trace validated by obscheck (the pipeline stage lanes
# ride the same schema the whole-input scan does).
bench-smoke:
	$(GO) test -run '^$$' -bench 'ScanReader|RunControl|TransposeInto|MergeMatches|SharedClasses|IntoOps|ShiftWords|Fused2|NextSetBitSweep|Positions' \
		-benchtime 100ms . ./internal/bitstream ./internal/transpose ./internal/engine ./internal/kernel
	$(GO) test -run '^$$' -bench 'CompileMegaset/500$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'CompileSigs$$' -benchtime 1x .
	@out=$$($(GO) test -run '^$$' -bench '^BenchmarkScanReader$$' -benchtime 200ms .) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | awk -v floor=54.1 ' \
		$$1 ~ /^BenchmarkScanReader(-[0-9]+)?$$/ { for (i = 2; i < NF; i++) if ($$(i+1) == "MB/s") mbs = $$i } \
		END { if (mbs == "") { print "bench-smoke: no MB/s on a BenchmarkScanReader line"; exit 1 } \
			if (mbs + 0 < floor + 0) { printf "bench-smoke: BenchmarkScanReader %s MB/s is below the %s MB/s floor\n", mbs, floor; exit 1 } \
			printf "bench-smoke: BenchmarkScanReader %s MB/s, floor %s MB/s\n", mbs, floor }'
	@tmp=$$(mktemp -d) && \
	i=0; while [ $$i -lt 2000 ]; do echo "error: timeout after 30ms on line $$i; retry ok"; i=$$((i+1)); done > $$tmp/input.txt && \
	$(GO) run ./cmd/bitgen -q -stream 4096 -trace $$tmp/trace.json 'error|fatal' $$tmp/input.txt && \
	$(GO) run ./cmd/obscheck -trace $$tmp/trace.json && \
	rm -rf $$tmp
