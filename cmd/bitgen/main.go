// Command bitgen is a grep-like front end to the bitstream engine: it prints
// the lines of a file on which any of the given patterns match, with the
// pattern(s) that matched, and can show the compiled programs and the
// modeled GPU cost.
//
// Usage:
//
//	bitgen 'error|fatal' server.log                    # matching lines
//	bitgen -e 'timeout [0-9]+ms' -e 'retry #\d' server.log
//	bitgen -f patterns.txt -count input.bin            # per-pattern counts
//	bitgen -e 'a(bc)*d' -dump-passes                   # show the compiler
//	bitgen -stream 4096 -trace t.json 'error' big.log  # pipelined scan
//
// It exits 0 when a line matches, 1 when none does, and 2 on a usage or
// engine error, printed as one classified line (internal/cli.Describe).
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"bitgen"
	"bitgen/internal/cli"
	"bitgen/internal/dfg"
	"bitgen/internal/ir"
	"bitgen/internal/lower"
	"bitgen/internal/passes"
	"bitgen/internal/rx"
)

type patternList []string

func (p *patternList) String() string     { return strings.Join(*p, ",") }
func (p *patternList) Set(v string) error { *p = append(*p, v); return nil }

func main() {
	var pats patternList
	flag.Var(&pats, "e", "pattern (repeatable)")
	file := flag.String("f", "", "file with one pattern per line ('#' starts a comment line)")
	foldCase := flag.Bool("i", false, "case-insensitive matching")
	device := flag.String("device", "", "GPU profile of the cost model: 'RTX 3090' (default), 'H100 NVL', 'L40S'")
	quiet := flag.Bool("q", false, "suppress match lines; print only the summary")
	countOnly := flag.Bool("count", false, "print per-pattern match counts instead of lines")
	explain := flag.Bool("explain", false, "print the compilation report before scanning")
	dump := flag.Bool("dump", false, "print the lowered bitstream program and exit")
	dumpPasses := flag.Bool("dump-passes", false, "print the program after each optimization pass and exit")
	streamChunk := flag.Int("stream", 0, "scan via the pipelined streaming reader in chunks of this many bytes (0: one whole-input run)")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file (load in chrome://tracing or ui.perfetto.dev)")
	metrics := flag.Bool("metrics", false, "print Prometheus text exposition of the scan's metrics to stdout")
	profilePath := flag.String("profile", "", "write the per-scan profile artifact (JSON) to this file ('-' for stdout)")
	flag.Parse()

	if *file != "" {
		if err := readPatterns(*file, &pats); err != nil {
			fail(err)
		}
	}
	args := flag.Args()
	if len(pats) == 0 && len(args) > 0 {
		pats, args = patternList{args[0]}, args[1:]
	}
	if len(pats) == 0 {
		usage("no patterns")
	}
	if *dump || *dumpPasses {
		if err := dumpPrograms(pats, *dumpPasses); err != nil {
			fail(err)
		}
		return
	}
	if len(args) != 1 {
		usage("exactly one input file required")
	}
	input, err := os.ReadFile(args[0])
	if err != nil {
		fail(err)
	}

	var obsOpts *bitgen.ObservabilityOptions
	if *tracePath != "" || *metrics || *profilePath != "" {
		obsOpts = &bitgen.ObservabilityOptions{
			Trace:   *tracePath != "",
			Metrics: *metrics || *profilePath != "",
		}
	}
	eng, err := bitgen.Compile(pats, &bitgen.Options{FoldCase: *foldCase, Device: *device, Observability: obsOpts})
	if err != nil {
		fail(err)
	}
	if *explain {
		fmt.Fprint(os.Stderr, eng.Explain())
	}
	var matches []bitgen.Match
	var res *bitgen.Result
	if *streamChunk > 0 {
		err = eng.ScanReader(bytes.NewReader(input), *streamChunk, func(m bitgen.Match) {
			matches = append(matches, m)
		})
	} else if res, err = eng.Run(input); res != nil {
		matches = res.Matches
	}
	if err != nil {
		fail(err)
	}

	lines := matchLines(input, matches)
	switch {
	case *countOnly:
		counts := make([]int, len(pats))
		for _, m := range matches {
			counts[m.Index]++
		}
		for i, p := range pats {
			fmt.Printf("%8d %s\n", counts[i], p)
		}
	case !*quiet:
		for _, l := range lines {
			fmt.Printf("%d:[%s] %s\n", l.line+1, strings.Join(l.patterns, ", "), l.text)
		}
	}
	if res != nil {
		fmt.Fprintf(os.Stderr, "bitgen: %d matching lines, %d matches, %.1f MB/s modeled\n",
			len(lines), len(matches), res.Stats.ThroughputMBs)
	} else {
		fmt.Fprintf(os.Stderr, "bitgen: %d matching lines, %d matches via pipelined stream (%dB chunks)\n",
			len(lines), len(matches), *streamChunk)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err == nil {
			err = eng.WriteTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fail(fmt.Errorf("writing trace: %w", err))
		}
		fmt.Fprintf(os.Stderr, "bitgen: trace written to %s\n", *tracePath)
	}
	if *profilePath != "" {
		if res == nil || res.Profile == nil {
			fmt.Fprintln(os.Stderr, "bitgen: no profile (a streamed scan has none)")
		} else if err := writeProfile(*profilePath, res.Profile); err != nil {
			fail(fmt.Errorf("writing profile: %w", err))
		}
	}
	if *metrics {
		if err := eng.WritePrometheus(os.Stdout); err != nil {
			fail(fmt.Errorf("writing metrics: %w", err))
		}
	}
	if len(lines) == 0 {
		os.Exit(1)
	}
}

// lineHit is one matching line: its 0-based number, its text without the
// line break, and the patterns with a match ending on it, sorted.
type lineHit struct {
	line     int
	text     string
	patterns []string
}

// matchLines groups matches by the line their End offset falls on, in line
// order. A final newline ends the last line rather than opening an empty
// one, so a nullable pattern's end-of-input match (End == len(input))
// belongs to the last line, and an empty input has no lines.
func matchLines(input []byte, matches []bitgen.Match) []lineHit {
	var starts []int
	for i := 0; i < len(input); {
		starts = append(starts, i)
		j := bytes.IndexByte(input[i:], '\n')
		if j < 0 {
			break
		}
		i += j + 1
	}
	hits := make(map[int]map[string]bool)
	for _, m := range matches {
		ln := sort.SearchInts(starts, m.End+1) - 1
		if ln < 0 {
			continue
		}
		if hits[ln] == nil {
			hits[ln] = make(map[string]bool)
		}
		hits[ln][m.Pattern] = true
	}
	out := make([]lineHit, 0, len(hits))
	for ln, set := range hits {
		end := len(input)
		if ln+1 < len(starts) {
			end = starts[ln+1]
		}
		h := lineHit{line: ln, text: strings.TrimRight(string(input[starts[ln]:end]), "\r\n")}
		for p := range set {
			h.patterns = append(h.patterns, p)
		}
		sort.Strings(h.patterns)
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].line < out[j].line })
	return out
}

// readPatterns appends the non-blank, non-comment lines of path to pats.
func readPatterns(path string, pats *patternList) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			*pats = append(*pats, line)
		}
	}
	return sc.Err()
}

func writeProfile(path string, p *bitgen.Profile) error {
	buf, err := p.JSON()
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// dumpPrograms shows the lowering and pass pipeline for the patterns as
// one group.
func dumpPrograms(pats []string, showPasses bool) error {
	regexes := make([]lower.Regex, len(pats))
	for i, p := range pats {
		ast, err := rx.Parse(p)
		if err != nil {
			return err
		}
		regexes[i] = lower.Regex{Name: p, AST: ast}
	}
	prog, err := lower.Group(regexes, lower.Options{})
	if err != nil {
		return err
	}
	fmt.Println("# lowered bitstream program")
	fmt.Print(prog)
	st := ir.CollectStats(prog)
	fmt.Printf("# instructions: %d and, %d or, %d not, %d shift, %d star, %d while\n",
		st.And, st.Or, st.Not, st.Shift, st.Star, st.While)
	an := dfg.Analyze(prog)
	fmt.Printf("# static overlap distance: %d bits (dynamic loops: %v, carries: %v)\n",
		an.StaticDelta, an.HasDynamic, an.HasCarry)
	if !showPasses {
		return nil
	}
	r := passes.Rebalance(prog, passes.RebalanceOptions{})
	fmt.Printf("\n# after Shift Rebalancing (%d rewrites, %d rounds)\n", r.Rewrites, r.Iterations)
	fmt.Print(prog)
	sched := passes.MergeBarriers(prog, passes.MergeOptions{MergeSize: 8})
	fmt.Printf("\n# after barrier merging: %d groups, %d deduped copies\n",
		len(sched.Groups), sched.DedupedCopies)
	z := passes.InsertGuards(prog, passes.ZBSOptions{})
	fmt.Printf("\n# after Zero Block Skipping: %d paths, %d guards (%d rejected)\n",
		z.PathsFound, z.GuardsInserted, z.Rejected)
	fmt.Print(prog)
	return nil
}

func usage(msg string) {
	fmt.Fprintf(os.Stderr, "bitgen: %s\nusage: bitgen [flags] PATTERN FILE | bitgen -e P1 [-e P2 ...] FILE\n", msg)
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bitgen:", cli.Describe(err))
	os.Exit(2)
}
