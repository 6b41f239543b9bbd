package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"time"

	"bitgen"
	"bitgen/internal/workload"
)

// hit is one expected or observed match: the pattern at Index of the set
// matched ending at byte End.
type hit struct {
	End   int64
	Index int
}

// job is one workload instantiated from a seed: the patterns and bytes the
// engine receives, what the oracle says they match, and the cold path from
// those inputs to the first verified result.
type job struct {
	name string
	// sets are the pattern sets; only serve_mixed has more than one.
	sets [][]string
	opts *bitgen.Options
	// sample is the input of the modeled-GPU Run and of the layer ledger.
	sample []byte
	// streamBytes is how many bytes the ledger streams through ScanReader
	// and replays through a ScanSession.
	streamBytes int64
	// expected holds the oracle's matches in the layout the workload's own
	// check reads; every check reads it at op time.
	expected [][]hit
	// clients is how many closed-loop goroutines drive ops.
	clients int
	// tailPct is the fixed percentile bench.op_tail_ms reports: the highest
	// one that leaves about ten samples beyond it at this workload's op rate
	// (an upper quartile for the workloads whose ops take half a second).
	tailPct float64
	digest  string
	verifyS float64
	// start compiles (or boots) from scratch and runs the first op. failed
	// says whether that op's output differed from the oracle.
	start func() (s *session, failed bool, err error)
	// straddle re-checks a streaming workload with a chunk size that puts
	// a chunk boundary inside matches; nil when the workload does not stream.
	straddle func(s *session) (failed bool)
}

// session is a started workload.
type session struct {
	eng *bitgen.Engine // the engine under test; nil for serve_mixed
	// op runs one unit of work and checks its output; bytes is the input
	// it pushed through the engine.
	op       func(client int, rng *rand.Rand) (bytes int64, failed bool)
	resident func() int64
	close    func()
	// serve is set by serve_mixed for the serve rows of the ledger.
	serve *serveSession
}

// sizes are the input sizes of one profile. The quick profile keeps every
// code path and shrinks the work so the package's tests finish in seconds.
type sizes struct {
	block        int   // period of the cyclic stream, verified in full by the oracle
	lightSlice   int64 // bytes of one stream_light op
	sigsSlice    int64 // bytes of one stream_sigs op
	regexScale   float64
	oneshotInput int
	megaset      int
	setupRepeats int     // fresh set-ups behind setup_s, at least
	setupBudget  float64 // seconds cheap set-ups may repeat for
	ledgerReps   int     // repeats behind each ledger median
}

// maxSetupRepeats bounds the set-ups of one run however cheap they are.
const maxSetupRepeats = 25

var (
	fullSizes  = sizes{block: 128 << 10, lightSlice: 32 << 20, sigsSlice: 4 << 20, regexScale: 0.05, oneshotInput: 128 << 10, megaset: 500, setupRepeats: 5, setupBudget: 2, ledgerReps: 3}
	quickSizes = sizes{block: 32 << 10, lightSlice: 1 << 20, sigsSlice: 128 << 10, regexScale: 0.01, oneshotInput: 32 << 10, megaset: 100, setupRepeats: 2, ledgerReps: 1}
)

// generators maps a workload name in BENCHMARK.json to its generator.
var generators = map[string]func(seed int64, sz sizes) (*job, error){
	"stream_light":    genStreamLight,
	"stream_sigs":     genStreamSigs,
	"oneshot_control": genOneshotControl,
	"compile_megaset": genCompileMegaset,
	"serve_mixed":     genServeMixed,
}

// newOracle compiles the reference matcher: the NFA simulator behind the
// public resilience ladder, pinned so the bitstream kernels never serve.
func newOracle(patterns []string, opts *bitgen.Options) (func(input []byte) ([]hit, error), error) {
	o := bitgen.Options{}
	if opts != nil {
		o = *opts
	}
	o.Resilience = &bitgen.ResilienceOptions{ForceBackend: bitgen.BackendNFA}
	eng, err := bitgen.Compile(patterns, &o)
	if err != nil {
		return nil, fmt.Errorf("oracle compile: %w", err)
	}
	return func(input []byte) ([]hit, error) {
		res, err := eng.Run(input)
		if err != nil {
			return nil, fmt.Errorf("oracle run: %w", err)
		}
		if res.Backend != bitgen.BackendNFA {
			return nil, fmt.Errorf("oracle served by %q, want the NFA reference", res.Backend)
		}
		hits := make([]hit, len(res.Matches))
		for i, m := range res.Matches {
			hits[i] = hit{End: int64(m.End), Index: m.Index}
		}
		return hits, nil
	}, nil
}

// expect asks the oracle what patterns match in input and charges the time
// to the job's verification cost.
func (j *job) expect(patterns []string, opts *bitgen.Options, input []byte) ([]hit, error) {
	t0 := time.Now()
	defer func() { j.verifyS += time.Since(t0).Seconds() }()
	oracle, err := newOracle(patterns, opts)
	if err != nil {
		return nil, err
	}
	return oracle(input)
}

// sameHits reports whether the engine's matches equal the oracle's on
// (End, Pattern, Index).
func sameHits(got []bitgen.Match, patterns []string, want []hit) bool {
	if len(got) != len(want) {
		return false
	}
	for i, m := range got {
		if int64(m.End) != want[i].End || m.Index != want[i].Index || m.Pattern != patterns[m.Index] {
			return false
		}
	}
	return true
}

func digest(sets [][]string, inputs ...[]byte) string {
	h := sha256.New()
	for _, set := range sets {
		for _, p := range set {
			io.WriteString(h, p)
			h.Write([]byte{0})
		}
		h.Write([]byte{1})
	}
	for _, in := range inputs {
		h.Write(in)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ---- streaming workloads ----

// cyclic serves block over and over until left bytes were read.
type cyclic struct {
	block []byte
	pos   int
	left  int64
}

func (c *cyclic) Read(p []byte) (int, error) {
	if c.left == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.block[c.pos:])
	if int64(n) > c.left {
		n = int(c.left)
	}
	c.pos = (c.pos + n) % len(c.block)
	c.left -= int64(n)
	return n, nil
}

// streamCheck verifies the matches of a scan over a cyclic stream as they
// are emitted. A match ending in the first period may lack left context,
// so the oracle ran over two periods: first lists the matches of period 0,
// period those of every later one, relative to the period's start.
type streamCheck struct {
	patterns      []string
	first, period []hit
	size          int64 // period length in bytes
	list          []hit // the period being consumed
	i             int
	base          int64
	seen          int
	bad           int
}

func (c *streamCheck) emit(m bitgen.Match) {
	c.seen++
	if c.list == nil {
		c.list = c.first
	}
	for c.i == len(c.list) {
		if len(c.period) == 0 {
			c.bad++
			return
		}
		c.list, c.i, c.base = c.period, 0, c.base+c.size
	}
	w := c.list[c.i]
	c.i++
	if int64(m.End) != c.base+w.End || m.Index != w.Index || m.Pattern != c.patterns[m.Index] {
		c.bad++
	}
}

// scanCycles streams n bytes (a whole number of periods) through
// ScanReader and reports whether every emitted match, and their count,
// agree with the oracle.
func (j *job) scanCycles(eng *bitgen.Engine, block []byte, n int64, chunk int) bool {
	c := &streamCheck{patterns: j.sets[0], first: j.expected[0], period: j.expected[1], size: int64(len(block))}
	if err := eng.ScanReader(&cyclic{block: block, left: n}, chunk, c.emit); err != nil {
		return false
	}
	want := len(c.first) + (int(n/c.size)-1)*len(c.period)
	return c.bad == 0 && c.seen == want
}

// straddleChunk is a prime a little above every workload's longest match,
// so chunk boundaries drift through the block and cut matches in two.
const straddleChunk = 4099

func genStream(name string, patterns []string, block []byte, slice int64, tailPct float64) (*job, error) {
	j := &job{name: name, sets: [][]string{patterns}, clients: 1, tailPct: tailPct, streamBytes: slice}
	j.digest = digest(j.sets, block)
	size := int64(len(block))
	all, err := j.expect(patterns, nil, bytes.Repeat(block, 2))
	if err != nil {
		return nil, err
	}
	var first, period []hit
	for _, h := range all {
		if h.End < size {
			first = append(first, h)
		} else {
			period = append(period, hit{End: h.End - size, Index: h.Index})
		}
	}
	j.expected = [][]hit{first, period}
	j.sample = bytes.Repeat(block, (1<<20)/len(block))
	j.start = func() (*session, bool, error) {
		eng, err := bitgen.Compile(patterns, nil)
		if err != nil {
			return nil, false, err
		}
		s := &session{eng: eng, resident: eng.ResidentBytes, close: func() {}}
		s.op = func(int, *rand.Rand) (int64, bool) {
			return slice, !j.scanCycles(eng, block, slice, 0)
		}
		// The first verified result: two periods, so that both of the
		// oracle's match lists are read.
		return s, !j.scanCycles(eng, block, 2*size, 0), nil
	}
	j.straddle = func(s *session) bool {
		return !j.scanCycles(s.eng, block, 3*size, straddleChunk)
	}
	return j, nil
}

// lightPatterns are the four log-grep patterns of the repo's historical
// scanreader_pipelined row.
var lightPatterns = []string{"fox|dog", "qu[a-z]{2,6}k", "l.zy", `0\d{3}`}

// logText is seeded English-like log text in which about one word in four
// matches a light pattern (a match every ~16 bytes).
func logText(rng *rand.Rand, n int) []byte {
	plain := []string{"the", "brown", "jumps", "over", "request", "served", "cache", "miss", "user", "login",
		"from", "host", "session", "closed", "after", "retry", "worker", "queue", "flush", "done"}
	hot := []string{"fox", "dog", "quick", "quack", "lazy", "lizy", "quirk"}
	var b bytes.Buffer
	for b.Len() < n {
		fmt.Fprintf(&b, "%02d:%02d:%02d id=%04d ", rng.Intn(24), rng.Intn(60), rng.Intn(60), rng.Intn(2500))
		for w, words := 0, 6+rng.Intn(8); w < words; w++ {
			if rng.Intn(3) == 0 {
				b.WriteString(hot[rng.Intn(len(hot))])
			} else {
				b.WriteString(plain[rng.Intn(len(plain))])
			}
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	return b.Bytes()[:n]
}

func genStreamLight(seed int64, sz sizes) (*job, error) {
	block := logText(rand.New(rand.NewSource(seed)), sz.block)
	return genStream("stream_light", lightPatterns, block, sz.lightSlice, 0.90)
}

func genStreamSigs(seed int64, sz sizes) (*job, error) {
	app, err := workload.Load("Yara", workload.Options{RegexScale: sz.regexScale, InputBytes: sz.block, Seed: seed})
	if err != nil {
		return nil, err
	}
	return genStream("stream_sigs", app.Patterns, app.Input, sz.sigsSlice, 0.75)
}

// ---- one-shot workloads ----

func genOneshotControl(seed int64, sz sizes) (*job, error) {
	app, err := workload.Load("Brill", workload.Options{RegexScale: sz.regexScale, InputBytes: sz.oneshotInput, Seed: seed})
	if err != nil {
		return nil, err
	}
	j := &job{name: "oneshot_control", sets: [][]string{app.Patterns}, sample: app.Input, clients: 1, tailPct: 0.90}
	j.digest = digest(j.sets, app.Input)
	want, err := j.expect(app.Patterns, nil, app.Input)
	if err != nil {
		return nil, err
	}
	j.expected = [][]hit{want}
	j.start = func() (*session, bool, error) {
		eng, err := bitgen.Compile(app.Patterns, nil)
		if err != nil {
			return nil, false, err
		}
		s := &session{eng: eng, resident: eng.ResidentBytes, close: func() {}}
		s.op = func(int, *rand.Rand) (int64, bool) {
			res, err := eng.Run(app.Input)
			return int64(len(app.Input)), err != nil || !sameHits(res.Matches, app.Patterns, j.expected[0])
		}
		_, failed := s.op(0, nil)
		return s, failed, nil
	}
	return j, nil
}

func genCompileMegaset(seed int64, sz sizes) (*job, error) {
	app, err := workload.Megaset(sz.megaset, seed, 0)
	if err != nil {
		return nil, err
	}
	opts := &bitgen.Options{Limits: bitgen.Limits{MaxPatterns: -1}}
	j := &job{name: "compile_megaset", sets: [][]string{app.Patterns}, opts: opts, sample: app.Input, clients: 1, tailPct: 0.75}
	j.digest = digest(j.sets, app.Input)
	want, err := j.expect(app.Patterns, opts, app.Input)
	if err != nil {
		return nil, err
	}
	j.expected = [][]hit{want}
	j.start = func() (*session, bool, error) {
		s := &session{close: func() {}}
		// One op is the whole operator cycle: compile the set, snapshot it,
		// load the snapshot, and serve a first scan from the loaded engine.
		cycle := func() (failed bool, err error) {
			eng, err := bitgen.Compile(app.Patterns, opts)
			if err != nil {
				return true, err
			}
			loaded, err := bitgen.DecodeEngine(bitgen.EncodeEngine(eng), opts)
			if err != nil {
				return true, err
			}
			res, err := loaded.Run(app.Input)
			if err != nil {
				return true, err
			}
			s.eng = loaded
			return !sameHits(res.Matches, app.Patterns, j.expected[0]), nil
		}
		s.op = func(int, *rand.Rand) (int64, bool) {
			failed, _ := cycle()
			return int64(len(app.Input)), failed
		}
		s.resident = func() int64 { return s.eng.ResidentBytes() }
		failed, err := cycle()
		if err != nil {
			return nil, false, err
		}
		return s, failed, nil
	}
	return j, nil
}
