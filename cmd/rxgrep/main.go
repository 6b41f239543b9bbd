// Command rxgrep is a grep-like demo of the bitstream engine: it prints
// the lines of a file on which any of the given patterns match, with the
// pattern(s) that matched.
//
// Usage:
//
//	rxgrep 'error|fatal' server.log
//	rxgrep -e 'timeout [0-9]+ms' -e 'retry #\d' server.log
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"bitgen"
	"bitgen/internal/cli"
)

type patternList []string

func (p *patternList) String() string     { return strings.Join(*p, ",") }
func (p *patternList) Set(v string) error { *p = append(*p, v); return nil }

func main() {
	var pats patternList
	flag.Var(&pats, "e", "pattern (repeatable)")
	foldCase := flag.Bool("i", false, "case-insensitive")
	quiet := flag.Bool("q", false, "suppress match lines; print only the summary")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file (load in chrome://tracing or ui.perfetto.dev)")
	metrics := flag.Bool("metrics", false, "print Prometheus text exposition of the scan's metrics to stdout")
	profilePath := flag.String("profile", "", "write the per-scan profile artifact (JSON) to this file ('-' for stdout)")
	streamChunk := flag.Int("stream", 0, "scan via the pipelined streaming reader in chunks of this many bytes (0: one whole-input run)")
	flag.Parse()

	args := flag.Args()
	if len(pats) == 0 {
		if len(args) < 1 {
			fmt.Fprintln(os.Stderr, "usage: rxgrep [flags] PATTERN FILE | rxgrep -e P1 -e P2 FILE")
			os.Exit(2)
		}
		pats = append(pats, args[0])
		args = args[1:]
	}
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "rxgrep: exactly one file required")
		os.Exit(2)
	}
	input, err := os.ReadFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "rxgrep:", err)
		os.Exit(2)
	}

	var obsOpts *bitgen.ObservabilityOptions
	if *tracePath != "" || *metrics || *profilePath != "" {
		obsOpts = &bitgen.ObservabilityOptions{
			Trace:   *tracePath != "",
			Metrics: *metrics || *profilePath != "",
		}
	}
	eng, err := bitgen.Compile(pats, &bitgen.Options{
		FoldCase:      *foldCase,
		Observability: obsOpts,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rxgrep:", cli.Describe(err))
		os.Exit(2)
	}
	var matches []bitgen.Match
	var res *bitgen.Result
	if *streamChunk > 0 {
		err = eng.ScanReader(bytes.NewReader(input), *streamChunk, func(m bitgen.Match) {
			matches = append(matches, m)
		})
	} else {
		res, err = eng.Run(input)
		if res != nil {
			matches = res.Matches
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rxgrep:", cli.Describe(err))
		os.Exit(2)
	}

	// Map match end offsets to line numbers.
	lineOf := make([]int, len(input))
	lineStart := []int{0}
	line := 0
	for i, c := range input {
		lineOf[i] = line
		if c == '\n' {
			line++
			lineStart = append(lineStart, i+1)
		}
	}
	hits := make(map[int]map[string]bool)
	for _, m := range matches {
		ln := lineOf[m.End]
		if hits[ln] == nil {
			hits[ln] = make(map[string]bool)
		}
		hits[ln][m.Pattern] = true
	}
	lines := make([]int, 0, len(hits))
	for ln := range hits {
		lines = append(lines, ln)
	}
	sort.Ints(lines)
	if !*quiet {
		for _, ln := range lines {
			end := len(input)
			if ln+1 < len(lineStart) {
				end = lineStart[ln+1] - 1
			}
			var which []string
			for p := range hits[ln] {
				which = append(which, p)
			}
			sort.Strings(which)
			fmt.Printf("%d:[%s] %s\n", ln+1, strings.Join(which, ", "),
				strings.TrimRight(string(input[lineStart[ln]:end]), "\r\n"))
		}
	}
	if res != nil {
		fmt.Fprintf(os.Stderr, "rxgrep: %d matching lines, %d matches, %.1f MB/s modeled\n",
			len(lines), len(matches), res.Stats.ThroughputMBs)
	} else {
		fmt.Fprintf(os.Stderr, "rxgrep: %d matching lines, %d matches via pipelined stream (%dB chunks)\n",
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
			fmt.Fprintln(os.Stderr, "rxgrep: writing trace:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "rxgrep: trace written to %s\n", *tracePath)
	}
	if *profilePath != "" {
		if res == nil || res.Profile == nil {
			fmt.Fprintln(os.Stderr, "rxgrep: no profile (a streamed scan has none)")
		} else {
			buf, err := res.Profile.JSON()
			if err == nil {
				if *profilePath == "-" {
					_, err = os.Stdout.Write(buf)
				} else {
					err = os.WriteFile(*profilePath, buf, 0o644)
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "rxgrep: writing profile:", err)
				os.Exit(2)
			}
		}
	}
	if *metrics {
		if err := eng.WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "rxgrep: writing metrics:", err)
			os.Exit(2)
		}
	}
	if len(lines) == 0 {
		os.Exit(1)
	}
}
