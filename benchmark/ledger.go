package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"bitgen"
	"bitgen/internal/charclass"
	"bitgen/internal/engine"
	"bitgen/internal/ir"
	"bitgen/internal/lower"
	"bitgen/internal/passes"
	"bitgen/internal/rx"
	"bitgen/internal/transpose"
)

// scanChunk is ScanReader's default chunk size; the ledger replays the
// same chunking through a ScanSession.
const scanChunk = 256 << 10

// ledgerRun accumulates the ledger's samples. Calls that are compared with
// each other (a stage against the whole compile, CountOnly against Run, an
// observed scan against a plain one) alternate inside one repeat and the
// share is taken per repeat, so a slow stretch of the host hits both sides.
type ledgerRun struct {
	rec    *recorder
	parent int
	series map[string][]float64
	m      map[string]float64
}

// time runs f in a span and adds its seconds to the named series.
func (l *ledgerRun) time(metric, span string, f func()) float64 {
	d := l.rec.timed(span, l.parent, f).Seconds()
	l.series[metric] = append(l.series[metric], d)
	return d
}

func (l *ledgerRun) add(metric string, v float64) { l.series[metric] = append(l.series[metric], v) }

// ledger times, from outside the engine, the public calls of every layer
// on the job's first pattern set and its sample input. Every duration and
// share is the median of reps repeats; every count comes from one repeat.
// A layer the job never reaches (streaming for unbounded patterns, serve
// for library workloads) keeps the value 0.
func ledger(j *job, s *session, reps int, rec *recorder, parent int) (map[string]float64, error) {
	l := &ledgerRun{rec: rec, parent: parent, series: map[string][]float64{}, m: map[string]float64{}}
	m := l.m
	patterns := j.sets[0]
	m["rx.patterns"] = float64(len(patterns))
	regexes := make([]lower.Regex, len(patterns))
	cfg := engine.BitGenDefault()
	cfg.KeepOutputs = true
	cfg.MaxProgramInstructions = bitgen.DefaultMaxProgramInstructions
	var inner *engine.Engine
	var ferr error

	// rx → engine.Compile, then lower → passes → ir stage by stage on the
	// partitions the engine chose. Passes rewrite their program, so each
	// repeat lowers afresh.
	for rep := 0; rep < reps; rep++ {
		l.time("rx.parse_s", "rx.ParseWith", func() {
			for i, p := range patterns {
				ast, err := rx.ParseWith(p, rx.Options{})
				if err != nil {
					ferr = err
					return
				}
				regexes[i] = lower.Regex{Name: p, AST: ast}
			}
		})
		if ferr != nil {
			return nil, ferr
		}
		whole := l.time("engine.compile_s", "engine.Compile", func() { inner, ferr = engine.Compile(regexes, cfg) })
		if ferr != nil {
			return nil, ferr
		}
		staged, err := l.compileStages(inner, regexes, cfg)
		if err != nil {
			return nil, err
		}
		l.add("engine.compile_unattributed_share", 1-staged/whole)
	}
	m["engine.groups"] = float64(len(inner.Groups()))

	// One chunk at a time through a ScanSession, then the transpose alone
	// on the same chunk; the kernel rows are the difference, so they
	// include the match merge.
	var chunks [][]byte
	for off := 0; off < len(j.sample); off += scanChunk {
		chunks = append(chunks, j.sample[off:min(off+scanChunk, len(j.sample))])
	}
	total := j.streamBytes
	if total == 0 {
		total = int64(len(j.sample))
	}
	nChunks := max(1, int(total/int64(len(chunks[0]))))
	var ss *engine.ScanSession
	var dst []engine.ScanMatch
	var basis transpose.Basis
	for rep := 0; rep < reps; rep++ {
		if ss != nil {
			ss.Close()
		}
		l.time("engine.session_new_ms", "engine.NewScanSession", func() { ss, ferr = inner.NewScanSession(scanChunk, nil, 0) })
		if ferr != nil {
			return nil, ferr
		}
		serial := 0.0
		for c := 0; c < nChunks; c++ {
			chunk := chunks[c%len(chunks)]
			serial += l.time("engine.scan_chunk_us", "engine.ScanSession.Scan", func() {
				dst, ferr = ss.Scan(context.Background(), chunk, 0, 0, dst[:0])
			})
			if ferr != nil {
				ss.Close()
				return nil, ferr
			}
			l.time("transpose_chunk", "transpose.TransposeInto", func() { transpose.TransposeInto(&basis, chunk) })
		}
		l.add("engine.scan_serial_s", serial)
		l.time("engine.run_counts_ms", "engine.RunCounts", func() { _, ferr = inner.RunCounts(context.Background(), j.sample) })
		if ferr != nil {
			ss.Close()
			return nil, ferr
		}
	}
	ss.Close()

	// The public engine: one-shot Run against CountOnly (what materialising
	// matches costs), the modeled GPU numbers of that Run, its allocations,
	// and the same bytes through the pipelined ScanReader, plain and with
	// the engine's own observability on.
	compile := func(obs *bitgen.ObservabilityOptions) (*bitgen.Engine, error) {
		opts := bitgen.Options{}
		if j.opts != nil {
			opts = *j.opts
		}
		opts.Observability = obs
		return bitgen.Compile(patterns, &opts)
	}
	pub, err := compile(nil)
	if err != nil {
		return nil, err
	}
	// The first Run builds the engine's pooled runners; the allocation rows
	// describe the steady state, so they come from the second.
	if _, err := pub.Run(j.sample); err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := pub.Run(j.sample)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	m["bitgen.allocs_per_op"] = float64(after.Mallocs - before.Mallocs)
	m["bitgen.alloc_kb_per_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / (float64(len(j.sample)) / 1e6)
	m["bitgen.matches"] = float64(len(res.Matches))
	m["gpusim.modeled_s"] = res.Stats.ModeledTime.Seconds()
	m["gpusim.modeled_mbps"] = res.Stats.ThroughputMBs
	m["gpusim.dram_bytes"] = float64(res.Stats.DRAMReadBytes + res.Stats.DRAMWriteBytes)
	m["gpusim.barriers"] = float64(res.Stats.Barriers)
	m["gpusim.guard_skips"] = float64(res.Stats.GuardSkips)
	m["gpusim.recompute_pct"] = res.Stats.RecomputePercent

	observed := []struct {
		metric string
		eng    *bitgen.Engine
	}{{metric: "obs.metrics_overhead_share"}, {metric: "obs.trace_overhead_share"}}
	if observed[0].eng, err = compile(&bitgen.ObservabilityOptions{Metrics: true}); err != nil {
		return nil, err
	}
	if observed[1].eng, err = compile(&bitgen.ObservabilityOptions{Metrics: true, Trace: true}); err != nil {
		return nil, err
	}
	stream := func(span string, eng *bitgen.Engine) float64 {
		return rec.timed(span, parent, func() {
			ferr = eng.ScanReader(&cyclic{block: j.sample, left: total}, 0, func(bitgen.Match) {})
		}).Seconds()
	}
	var blob []byte
	for rep := 0; rep < reps; rep++ {
		run := l.time("bitgen.run_ms", "bitgen.Engine.Run", func() { _, ferr = pub.Run(j.sample) })
		if ferr != nil {
			return nil, ferr
		}
		count := l.time("bitgen.count_only_ms", "bitgen.Engine.CountOnly", func() { _, ferr = pub.CountOnly(j.sample) })
		if ferr != nil {
			return nil, ferr
		}
		l.add("bitgen.collect_share", 1-count/run)

		l.time("snapshot.encode_s", "bitgen.EncodeEngine", func() { blob = bitgen.EncodeEngine(pub) })
		l.time("snapshot.decode_s", "bitgen.DecodeEngine", func() { _, ferr = bitgen.DecodeEngine(blob, j.opts) })
		if ferr != nil {
			return nil, ferr
		}

		plain := stream("bitgen.Engine.ScanReader", pub)
		var unsupported *bitgen.UnsupportedError
		if errors.As(ferr, &unsupported) {
			// Unbounded or nullable patterns: the engine refuses to stream
			// them, and the streaming rows stay 0.
			continue
		}
		if ferr != nil {
			return nil, ferr
		}
		l.add("bitgen.scanreader_s", plain)
		workers := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
		serial := l.series["engine.scan_serial_s"][rep]
		l.add("bitgen.pipeline_efficiency", serial/(plain*float64(workers)))
		for _, o := range observed {
			l.add(o.metric, stream("bitgen.Engine.ScanReader observed", o.eng)/plain-1)
			if ferr != nil {
				return nil, ferr
			}
		}
	}
	m["snapshot.bytes"] = float64(len(blob))

	for name, v := range l.series {
		m[name] = summarize(v).Median
	}
	chunkBytes := float64(len(chunks[0]))
	tUS := 1e6 * m["transpose_chunk"]
	delete(m, "transpose_chunk")
	m["engine.session_new_ms"] *= 1e3
	m["engine.scan_chunk_us"] *= 1e6
	m["engine.run_counts_ms"] *= 1e3
	m["bitgen.run_ms"] *= 1e3
	m["bitgen.count_only_ms"] *= 1e3
	m["transpose.mbps"] = chunkBytes / tUS
	m["transpose.share"] = tUS / m["engine.scan_chunk_us"]
	m["kernel.chunk_us"] = m["engine.scan_chunk_us"] - tUS
	m["kernel.ns_per_byte"] = 1e3 * m["kernel.chunk_us"] / chunkBytes
	m["kernel.share"] = 1 - m["transpose.share"]

	if s.serve != nil {
		rows, err := s.serve.ledger(rec, parent, reps)
		if err != nil {
			return nil, err
		}
		for k, v := range rows {
			m[k] = v
		}
	}
	for k, v := range m {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("ledger: %s is not a number", k)
		}
	}
	return m, nil
}

// compileStages replays what engine.Compile does for each of its groups
// with one span per stage, adds each stage's total to its series, records
// the pass counts, and returns the seconds all stages took together.
func (l *ledgerRun) compileStages(inner *engine.Engine, regexes []lower.Regex, cfg engine.Config) (float64, error) {
	groups := inner.Groups()
	byName := make(map[string]lower.Regex, len(regexes))
	for _, r := range regexes {
		byName[r.Name] = r
	}
	parts := make([][]lower.Regex, len(groups))
	engineInstrs := 0.0
	for gi, g := range groups {
		for _, name := range g.Names {
			parts[gi] = append(parts[gi], byName[name])
		}
		engineInstrs += float64(ir.CollectStats(groups[gi].Prog()).Total())
	}
	// The engine computes some character classes once per scan and lowers
	// its groups against those shared streams. Lowering here takes the same
	// classes from the engine's shared program (one output per class, named
	// by the class key, in slot order), or it would time programs several
	// times larger than the ones the engine builds.
	slots := map[charclass.Class]int{}
	var shared []charclass.Class
	if sp := inner.Shared(); sp != nil {
		slotOf := make(map[string]int, len(sp.Outputs))
		for i, o := range sp.Outputs {
			slotOf[o.Name] = i
		}
		shared = make([]charclass.Class, len(sp.Outputs))
		for _, part := range parts {
			for _, cl := range lower.Classes(part) {
				if i, ok := slotOf[cl.Key()]; ok {
					slots[cl], shared[i] = i, cl
				}
			}
		}
	}
	lowerOpts := lower.Options{}
	if len(shared) > 0 {
		lowerOpts = lower.Options{SharedCC: slots, SharedExtBits: len(shared)}
	}

	sum := map[string]float64{}
	counts := map[string]float64{}
	var err error
	stage := func(metric, span string, f func()) {
		sum[metric] += l.rec.timed(span, l.parent, f).Seconds()
	}
	if len(shared) > 0 {
		stage("lower.group_s", "lower.SharedProgram", func() { _, err = lower.SharedProgram(shared) })
		if err != nil {
			return 0, err
		}
	}
	for _, part := range parts {
		var prog *ir.Program
		stage("lower.group_s", "lower.Group", func() { prog, err = lower.Group(part, lowerOpts) })
		if err != nil {
			return 0, err
		}
		counts["lower.ir_instrs"] += float64(ir.CollectStats(prog).Total())
		stage("passes.rebalance_s", "passes.Rebalance", func() {
			counts["passes.rebalance_rewrites"] += float64(passes.Rebalance(prog, passes.RebalanceOptions{}).Rewrites)
		})
		stage("passes.merge_s", "passes.MergeBarriers", func() {
			counts["passes.merged_groups"] += float64(len(passes.MergeBarriers(prog, passes.MergeOptions{MergeSize: cfg.MergeSize}).Groups))
		})
		stage("passes.zbs_s", "passes.InsertGuards", func() {
			counts["passes.guards_inserted"] += float64(passes.InsertGuards(prog, passes.ZBSOptions{Interval: cfg.IntervalSize}).GuardsInserted)
		})
		counts["passes.ir_instrs_after"] += float64(ir.CollectStats(prog).Total())
		stage("ir.validate_s", "ir.Validate", func() { err = ir.Validate(prog) })
		if err != nil {
			return 0, err
		}
		stage("ir.encode_s", "ir.EncodeProgram", func() {
			counts["ir.packed_bytes"] += float64(len(ir.EncodeProgram(prog)))
		})
	}
	// 0 while the stages above build the programs engine.Compile builds;
	// anything else says the compile rows time a different pipeline.
	counts["bench.ledger_ir_drift"] = math.Abs(counts["passes.ir_instrs_after"] - engineInstrs)
	total := 0.0
	for metric, v := range sum {
		l.add(metric, v)
		total += v
	}
	for metric, v := range counts {
		l.m[metric] = v
	}
	return total, nil
}
