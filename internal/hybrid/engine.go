package hybrid

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"bitgen/internal/bgerr"
	"bitgen/internal/bitstream"
	"bitgen/internal/nfa"
	"bitgen/internal/obs"
	"bitgen/internal/rx"
)

// Options configure the hybrid engine.
type Options struct {
	// Threads is the number of worker goroutines; regexes are sharded
	// across them (HS-MT parallelizes across regexes). Zero or one is the
	// single-threaded HS-1T configuration.
	Threads int
	// MinLiteral is the shortest literal factor worth prefiltering on.
	// Zero means 3.
	MinLiteral int
	// MaxRegionLen caps the match length eligible for regional
	// confirmation; longer or unbounded patterns take the general NFA
	// path. Zero means 256.
	MaxRegionLen int
	// Obs, when non-nil, records a span per ScanContext call with the
	// scan's Stats as arguments. Nil is free.
	Obs *obs.Observer
}

func (o Options) withDefaults() Options {
	if o.Threads == 0 {
		o.Threads = 1
	}
	if o.MinLiteral == 0 {
		o.MinLiteral = 3
	}
	if o.MaxRegionLen == 0 {
		o.MaxRegionLen = 256
	}
	return o
}

// Stats summarizes the dynamic work of one scan.
type Stats struct {
	// LiteralHits is the number of prefilter hits.
	LiteralHits int64
	// ConfirmedBytes is the input volume re-examined by confirmation.
	ConfirmedBytes int64
	// GeneralBytes is the volume scanned by the general (unfiltered) NFA
	// path, summed over general groups.
	GeneralBytes int64
	// ExactRegexes, PrefilteredRegexes, GeneralRegexes count the bucket
	// sizes of the decomposition.
	ExactRegexes, PrefilteredRegexes, GeneralRegexes int
}

// ScanResult holds per-regex match streams.
type ScanResult struct {
	Outputs map[string]*bitstream.Stream
	Stats   Stats
}

// Engine is a compiled hybrid multi-pattern matcher.
type Engine struct {
	opts   Options
	shards []*shard
	names  []string
}

// shard owns a subset of the regexes.
type shard struct {
	opts Options
	// exact literals: ac pattern id → regex index.
	ac        *AhoCorasick
	acExact   map[int32]int // pattern id → regex index (pure literal)
	acPrefilt map[int32]int // pattern id → prefiltered entry index
	prefilt   []prefiltEntry
	general   *nfa.NFA // combined NFA for unfilterable regexes
	genIdx    []int    // general outputs → regex index
	names     []string
	idx       []int // shard-local → engine regex index
	stats     Stats
}

type prefiltEntry struct {
	regex  int // shard-local regex index
	nfa    *nfa.NFA
	litLen map[int32]int // ac pattern id → literal length
	maxLen int
}

type region struct{ lo, hi int }

// SizeBytes reports the engine's durable compiled state: each shard's
// Aho-Corasick prefilter, confirmation NFAs and general-path NFA. Scan
// scratch is excluded.
func (e *Engine) SizeBytes() int64 {
	var size int64
	for _, sh := range e.shards {
		if sh.ac != nil {
			size += sh.ac.SizeBytes()
		}
		if sh.general != nil {
			size += sh.general.SizeBytes()
		}
		for i := range sh.prefilt {
			if sh.prefilt[i].nfa != nil {
				size += sh.prefilt[i].nfa.SizeBytes()
			}
		}
	}
	return size
}

// Compile builds the engine for a set of regexes.
func Compile(names []string, asts []rx.Node, opts Options) (*Engine, error) {
	if len(names) != len(asts) {
		return nil, fmt.Errorf("hybrid: %d names for %d patterns", len(names), len(asts))
	}
	opts = opts.withDefaults()
	e := &Engine{opts: opts, names: names}
	nShards := opts.Threads
	if nShards > len(asts) && len(asts) > 0 {
		nShards = len(asts)
	}
	if nShards == 0 {
		nShards = 1
	}
	for s := 0; s < nShards; s++ {
		var idx []int
		for r := s; r < len(asts); r += nShards {
			idx = append(idx, r)
		}
		sh, err := compileShard(names, asts, idx, opts)
		if err != nil {
			return nil, err
		}
		e.shards = append(e.shards, sh)
	}
	return e, nil
}

func compileShard(names []string, asts []rx.Node, idx []int, opts Options) (*shard, error) {
	sh := &shard{opts: opts, idx: idx, acExact: map[int32]int{}, acPrefilt: map[int32]int{}}
	var acPatterns [][]byte
	var generalNames []string
	var generalASTs []rx.Node
	for local, r := range idx {
		ast := asts[r]
		f := Decompose(ast, opts.MinLiteral)
		switch {
		case f.Exact:
			id := int32(len(acPatterns))
			lit, _ := rx.LiteralString(ast)
			acPatterns = append(acPatterns, []byte(lit))
			sh.acExact[id] = local
			sh.stats.ExactRegexes++
		case len(f.Literals) > 0 && f.MaxLen != rx.Unbounded && f.MaxLen <= opts.MaxRegionLen:
			n, err := nfa.Build([]string{names[r]}, []rx.Node{ast})
			if err != nil {
				return nil, err
			}
			entry := prefiltEntry{regex: local, nfa: n, maxLen: f.MaxLen, litLen: map[int32]int{}}
			eIdx := len(sh.prefilt)
			for _, lit := range f.Literals {
				id := int32(len(acPatterns))
				acPatterns = append(acPatterns, []byte(lit))
				sh.acPrefilt[id] = eIdx
				entry.litLen[id] = len(lit)
			}
			sh.prefilt = append(sh.prefilt, entry)
			sh.stats.PrefilteredRegexes++
		default:
			generalNames = append(generalNames, names[r])
			generalASTs = append(generalASTs, ast)
			sh.genIdx = append(sh.genIdx, local)
			sh.stats.GeneralRegexes++
		}
	}
	sh.ac = NewAhoCorasick(acPatterns)
	if len(generalASTs) > 0 {
		g, err := nfa.Build(generalNames, generalASTs)
		if err != nil {
			return nil, err
		}
		sh.general = g
	}
	sh.names = make([]string, len(idx))
	for local, r := range idx {
		sh.names[local] = names[r]
	}
	return sh, nil
}

// ScanContext is Scan honoring a context, checked before the scan and
// between shard joins; cancellation returns an error satisfying
// errors.Is(err, bgerr.ErrCanceled). It is what an engine pinned to the
// hybrid backend runs (bitgen.BackendHybrid).
func (e *Engine) ScanContext(ctx context.Context, input []byte) (*ScanResult, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, bgerr.Canceled(err)
		}
	}
	span := e.opts.Obs.For(ctx).Span("hybrid", "hybrid-scan", 0).Arg("input_bytes", len(input))
	res := e.Scan(input)
	span.Arg("literal_hits", res.Stats.LiteralHits).
		Arg("confirmed_bytes", res.Stats.ConfirmedBytes).
		Arg("general_bytes", res.Stats.GeneralBytes).
		End()
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, bgerr.Canceled(err)
		}
	}
	return res, nil
}

// Scan matches all regexes over input. With Threads > 1 the shards run
// concurrently.
func (e *Engine) Scan(input []byte) *ScanResult {
	res := &ScanResult{Outputs: make(map[string]*bitstream.Stream, len(e.names))}
	outs := make([]map[string]*bitstream.Stream, len(e.shards))
	stats := make([]Stats, len(e.shards))
	if len(e.shards) == 1 {
		outs[0], stats[0] = e.shards[0].scan(input)
	} else {
		var wg sync.WaitGroup
		for i, sh := range e.shards {
			wg.Add(1)
			go func(i int, sh *shard) {
				defer wg.Done()
				outs[i], stats[i] = sh.scan(input)
			}(i, sh)
		}
		wg.Wait()
	}
	for i := range outs {
		for name, s := range outs[i] {
			res.Outputs[name] = s
		}
		st := &res.Stats
		st.LiteralHits += stats[i].LiteralHits
		st.ConfirmedBytes += stats[i].ConfirmedBytes
		st.GeneralBytes += stats[i].GeneralBytes
		st.ExactRegexes += stats[i].ExactRegexes
		st.PrefilteredRegexes += stats[i].PrefilteredRegexes
		st.GeneralRegexes += stats[i].GeneralRegexes
	}
	return res
}

func (sh *shard) scan(input []byte) (map[string]*bitstream.Stream, Stats) {
	st := sh.stats // copy compile-time bucket counts
	out := make(map[string]*bitstream.Stream, len(sh.idx))
	for _, name := range sh.names {
		out[name] = bitstream.New(len(input))
	}
	// Per-scan region lists live on the stack, not the shard: a compiled
	// Engine is immutable during Scan, so concurrent scans (a public Engine
	// pinned to the hybrid backend runs one per call and per ScanReader
	// worker) do not race.
	regions := make([][]region, len(sh.prefilt))
	// Pass 1: prefilter.
	sh.ac.Scan(input, func(h Hit) {
		st.LiteralHits++
		if local, ok := sh.acExact[h.ID]; ok {
			out[sh.names[local]].Set(int(h.End))
			return
		}
		eIdx := sh.acPrefilt[h.ID]
		entry := &sh.prefilt[eIdx]
		litLen := entry.litLen[h.ID]
		margin := entry.maxLen - litLen
		lo := int(h.End) - litLen + 1 - margin
		hi := int(h.End) + margin
		if lo < 0 {
			lo = 0
		}
		if hi > len(input)-1 {
			hi = len(input) - 1
		}
		regions[eIdx] = append(regions[eIdx], region{lo, hi})
	})
	// Pass 2: regional confirmation.
	for i := range sh.prefilt {
		entry := &sh.prefilt[i]
		if len(regions[i]) == 0 {
			continue
		}
		merged := mergeRegions(regions[i])
		stream := out[sh.names[entry.regex]]
		for _, rg := range merged {
			st.ConfirmedBytes += int64(rg.hi - rg.lo + 1)
			sub := nfa.Simulate(entry.nfa, input[rg.lo:rg.hi+1])
			for _, p := range sub.Outputs[0].Positions() {
				stream.Set(rg.lo + p)
			}
		}
	}
	// Pass 3: general NFA path.
	if sh.general != nil {
		st.GeneralBytes += int64(len(input))
		gres := nfa.Simulate(sh.general, input)
		for gi, local := range sh.genIdx {
			out[sh.names[local]] = gres.Outputs[gi]
		}
	}
	return out, st
}

// mergeRegions sorts and coalesces overlapping regions.
func mergeRegions(rs []region) []region {
	sort.Slice(rs, func(i, j int) bool { return rs[i].lo < rs[j].lo })
	out := rs[:0]
	for _, r := range rs {
		if len(out) > 0 && r.lo <= out[len(out)-1].hi+1 {
			if r.hi > out[len(out)-1].hi {
				out[len(out)-1].hi = r.hi
			}
			continue
		}
		out = append(out, r)
	}
	return out
}
