// Command bitgen compiles regex patterns to bitstream programs and
// optionally runs them over an input file on the simulated GPU.
//
// Usage:
//
//	bitgen -e 'a(bc)*d' -e 'cat|dog' -dump            # show the program
//	bitgen -e 'error.*timeout' -stats logfile.txt     # run + statistics
//	bitgen -f patterns.txt -count input.bin           # per-pattern counts
//
// Flags -dump-passes and -device expose the compilation pipeline and the
// cost model's GPU profile.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"bitgen"
	"bitgen/internal/dfg"
	"bitgen/internal/ir"
	"bitgen/internal/lower"
	"bitgen/internal/nfa"
	"bitgen/internal/passes"
	"bitgen/internal/rx"
)

type patternList []string

func (p *patternList) String() string     { return strings.Join(*p, ",") }
func (p *patternList) Set(v string) error { *p = append(*p, v); return nil }

func main() {
	var pats patternList
	flag.Var(&pats, "e", "pattern (repeatable)")
	file := flag.String("f", "", "file with one pattern per line")
	dump := flag.Bool("dump", false, "print the lowered bitstream program and exit")
	dumpPasses := flag.Bool("dump-passes", false, "print the program after each optimization pass and exit")
	dumpDot := flag.Bool("dot", false, "print the Glushkov NFA of the patterns in Graphviz DOT form and exit")
	device := flag.String("device", "RTX 3090", "GPU profile: 'RTX 3090', 'H100 NVL', 'L40S'")
	countOnly := flag.Bool("count", false, "print only per-pattern match counts")
	explain := flag.Bool("explain", false, "print the compilation report before scanning")
	stats := flag.Bool("stats", false, "print modeled execution statistics")
	foldCase := flag.Bool("i", false, "case-insensitive matching")
	flag.Parse()

	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line != "" && !strings.HasPrefix(line, "#") {
				pats = append(pats, line)
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			fatal(err)
		}
	}
	if len(pats) == 0 {
		fmt.Fprintln(os.Stderr, "bitgen: no patterns (use -e or -f)")
		os.Exit(2)
	}

	if *dumpDot {
		asts := make([]rx.Node, len(pats))
		for i, p := range pats {
			ast, err := rx.Parse(p)
			if err != nil {
				fatal(err)
			}
			asts[i] = ast
		}
		n, err := nfa.Build(pats, asts)
		if err != nil {
			fatal(err)
		}
		fmt.Print(nfa.ToDot(n))
		return
	}
	if *dump || *dumpPasses {
		dumpPrograms(pats, *dumpPasses)
		return
	}

	args := flag.Args()
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "bitgen: exactly one input file required")
		os.Exit(2)
	}
	input, err := os.ReadFile(args[0])
	if err != nil {
		fatal(err)
	}

	eng, err := bitgen.Compile(pats, &bitgen.Options{Device: *device, FoldCase: *foldCase})
	if err != nil {
		fatal(err)
	}
	if *explain {
		fmt.Fprint(os.Stderr, eng.Explain())
	}
	res, err := eng.Run(input)
	if err != nil {
		fatal(err)
	}
	if *countOnly {
		for _, p := range pats {
			fmt.Printf("%8d %s\n", res.Counts[p], p)
		}
	} else {
		for _, m := range res.Matches {
			fmt.Printf("%d\t%s\n", m.End, m.Pattern)
		}
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "modeled time   %v\n", res.Stats.ModeledTime)
		fmt.Fprintf(os.Stderr, "throughput     %.1f MB/s on %s\n", res.Stats.ThroughputMBs, *device)
		fmt.Fprintf(os.Stderr, "DRAM traffic   %.2f MB read, %.2f MB written\n",
			float64(res.Stats.DRAMReadBytes)/1e6, float64(res.Stats.DRAMWriteBytes)/1e6)
		fmt.Fprintf(os.Stderr, "barriers       %d\n", res.Stats.Barriers)
		fmt.Fprintf(os.Stderr, "recompute      %.2f%%\n", res.Stats.RecomputePercent)
		fmt.Fprintf(os.Stderr, "guard skips    %d\n", res.Stats.GuardSkips)
	}
}

// dumpPrograms shows the lowering and pass pipeline for the patterns as
// one group.
func dumpPrograms(pats []string, showPasses bool) {
	regexes := make([]lower.Regex, len(pats))
	for i, p := range pats {
		ast, err := rx.Parse(p)
		if err != nil {
			fatal(err)
		}
		regexes[i] = lower.Regex{Name: p, AST: ast}
	}
	prog, err := lower.Group(regexes, lower.Options{})
	if err != nil {
		fatal(err)
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
		return
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
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bitgen:", err)
	os.Exit(1)
}
