// Command bitbench regenerates the paper's evaluation artifacts (tables
// and figures) on the simulated substrate.
//
// Usage:
//
//	bitbench -exp all -csv results    # every artifact at the paper's scale: `make paper`
//	bitbench -exp fig11 -scale 0.1    # Table 2 / Figure 11 at 10% regex scale
//	bitbench -exp table5 -input 500000
//	bitbench -exp fig12 -apps Yara,Brill -csv out/
//
// Experiments: table1, fig11 (alias table2), fig12 (alias table3), table4,
// table5, fig13 (alias table6), fig14, fig15, extras, all; and, outside
// "all", mem (the megaset residency gate, `make megaset-smoke`). Host hot
// paths are Go benchmarks (`make bench-smoke`); per-scan modeled profiles
// come from `bitgen -profile`.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bitgen/internal/cli"
	"bitgen/internal/experiments"
)

type artifact struct {
	name string
	run  func(*experiments.Suite) (experiments.Artifact, error)
	// file overrides the artifact's output base name (default: name).
	file string
}

// jsonRenderable is implemented by artifacts that also emit a structured
// JSON form (written under the -json directory).
type jsonRenderable interface {
	JSON() ([]byte, error)
}

var aliases = map[string]string{
	"table2": "fig11",
	"table3": "fig12",
	"table6": "fig13",
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (table1, fig11, fig12, table4, table5, fig13, fig14, fig15, extras, all, mem)")
	scale := flag.Float64("scale", 1, "fraction of the paper's regex counts to generate")
	inputBytes := flag.Int("input", 1_000_000, "input size in bytes")
	appsFlag := flag.String("apps", "", "comma-separated application subset (default: all ten)")
	seed := flag.Int64("seed", 0, "workload generation seed")
	hsThreads := flag.Int("hs-threads", 8, "HS-MT goroutine count")
	csvDir := flag.String("csv", "", "directory to also write CSV files into")
	jsonDir := flag.String("json", "", "directory to also write JSON artifacts into (artifacts that support it)")
	memSizes := flag.String("mem-sizes", "1000,10000,100000", "comma-separated megaset pattern counts for -exp mem")
	memCeilingMB := flag.Int64("mem-ceiling-mb", 0, "fail -exp mem when the largest size's resident bytes exceed this many MiB (0 = no gate)")
	memBudget := flag.Duration("mem-budget", 0, "fail -exp mem when the largest size's compile exceeds this duration (0 = no gate)")
	flag.Parse()

	opts := experiments.Options{
		RegexScale: *scale,
		InputBytes: *inputBytes,
		Seed:       *seed,
		HSThreads:  *hsThreads,
	}
	if *appsFlag != "" {
		opts.Apps = strings.Split(*appsFlag, ",")
	}
	suite := experiments.NewSuite(opts)

	name := strings.ToLower(*exp)
	if canonical, ok := aliases[name]; ok {
		name = canonical
	}
	// The mem artifact exercises the public API rather than the experiment
	// harness; it is opt-in and not part of "all".
	extraArtifacts := []artifact{
		{name: "mem", run: func(*experiments.Suite) (experiments.Artifact, error) {
			return runMem(*memSizes, *seed, *memCeilingMB<<20, *memBudget)
		}, file: "BENCH_mem"},
	}
	var artifacts []artifact
	for _, a := range experiments.Artifacts {
		artifacts = append(artifacts, artifact{name: a.Name, run: a.Run})
	}
	var selected []artifact
	if name == "all" {
		selected = artifacts
	} else {
		for _, a := range extraArtifacts {
			if a.name == name {
				selected = []artifact{a}
			}
		}
	}
	if selected == nil {
		for _, a := range artifacts {
			if a.name == name {
				selected = []artifact{a}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "bitbench: unknown experiment %q\n", *exp)
			flag.Usage()
			os.Exit(2)
		}
	}

	for _, a := range selected {
		if a.file == "" {
			a.file = a.name
		}
		start := time.Now()
		res, err := a.run(suite)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bitbench: %s: %s\n", a.name, cli.Describe(err))
			os.Exit(1)
		}
		fmt.Printf("==> %s (%.1fs)\n%s\n", a.name, time.Since(start).Seconds(), res.Render())
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "bitbench:", err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, a.file+".csv")
			if err := os.WriteFile(path, []byte(res.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "bitbench:", err)
				os.Exit(1)
			}
			fmt.Printf("    wrote %s\n", path)
		}
		if *jsonDir != "" {
			jr, ok := res.(jsonRenderable)
			if !ok {
				fmt.Fprintf(os.Stderr, "bitbench: %s has no JSON form, skipping\n", a.name)
				continue
			}
			buf, err := jr.JSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, "bitbench:", err)
				os.Exit(1)
			}
			if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "bitbench:", err)
				os.Exit(1)
			}
			path := filepath.Join(*jsonDir, a.file+".json")
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "bitbench:", err)
				os.Exit(1)
			}
			fmt.Printf("    wrote %s\n", path)
		}
	}
}
