// Command benchmark is the repo's performance benchmark: five workloads,
// end-to-end metrics measured with tracing off, and a layer ledger timed
// from outside the engine in a separate traced pass. BENCHMARK.json at the
// repo root names every workload and metric; README.md explains them.
//
//	go run ./benchmark -seed 1                       # every workload, both passes, appends a trajectory record
//	go run ./benchmark -workload stream_sigs -seed 7 -seconds 20 -trace 0
//	go run ./benchmark -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// spec mirrors BENCHMARK.json, the single list of workload and metric
// names, units, directions and bounds; the program emits exactly these.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the working directory (the repo root
// under go run) or its parent (the package directory under go test).
func loadSpec() (*spec, error) {
	var lastErr error
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		buf, err := os.ReadFile(path)
		if err != nil {
			lastErr = err
			continue
		}
		sp := &spec{}
		if err := json.Unmarshal(buf, sp); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, w := range sp.Workloads {
			if generators[w.Name] == nil {
				return nil, fmt.Errorf("%s: workload %q has no generator", path, w.Name)
			}
		}
		return sp, nil
	}
	return nil, fmt.Errorf("run from the repo root: %w", lastErr)
}

// record is one line of the trajectory: the environment the run saw and,
// per workload, every metric of both passes.
type record struct {
	Time       string             `json:"time"`
	Commit     string             `json:"commit"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Quick      bool               `json:"quick,omitempty"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	LoadAvg    string             `json:"loadavg"`
	Workloads  map[string]*result `json:"workloads"`
}

func newRecord(seed int64, seconds float64, quick bool, results map[string]*result) *record {
	rec := &record{
		Time: time.Now().UTC().Format(time.RFC3339), Commit: "unknown", Seed: seed, Seconds: seconds, Quick: quick,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Workloads: results,
	}
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		rec.Commit = strings.TrimSpace(string(out))
	}
	if buf, err := os.ReadFile("/proc/loadavg"); err == nil {
		rec.LoadAvg = strings.TrimSpace(string(buf))
	}
	return rec
}

// appendRecord adds one line to the append-only trajectory.
func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printMetrics writes one "workload metric value unit" line per metric, in
// BENCHMARK.json order, flagging the ones whose slices disagreed by more
// than the metric's bound.
func printMetrics(workload string, defs []metricDef, res *result) {
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		mark := ""
		if m.Noisy {
			mark = " noisy"
		}
		fmt.Printf("%s %s %v %s%s\n", workload, d.Name, m.Value, m.Unit, mark)
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all of BENCHMARK.json)")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json; 1 with -quick)")
		trace    = flag.Int("trace", -1, "0: end-to-end pass only; 1: traced layer pass only; with -workload, ends with the result as one JSON line. Default: both passes")
		quick    = flag.Bool("quick", false, "smoke profile: small inputs, 1 s phases")
		out      = flag.String("out", "benchmark/results", "directory for trajectory.jsonl and trace-<workload>.json")
		cmp      = flag.Bool("compare", false, "compare two trajectory files given as arguments: A (base) and B")
	)
	flag.Parse()
	sp, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *cmp {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: benchmark -compare A.jsonl B.jsonl"))
		}
		worse, err := compare(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse > 0 {
			os.Exit(1)
		}
		return
	}

	sz := fullSizes
	if *quick {
		sz = quickSizes
	}
	if *seconds == 0 {
		*seconds = float64(sp.RunSeconds)
		if *quick {
			*seconds = 1
		}
	}
	var names []string
	for _, w := range sp.Workloads {
		if *workload == "" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}

	results := map[string]*result{}
	failed := 0
	for _, name := range names {
		job, err := generators[name](*seed, sz)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		res := &result{Digest: job.digest, Metrics: map[string]metric{}}
		if *trace != 1 {
			if err := endToEndPass(job, sz, *seconds, *seed, sp, res); err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			printMetrics(name, sp.EndToEnd, res)
			fmt.Printf("%s host_speed %v ratio (timings and rates above are stated at 1)\n", name, res.HostSpeed)
		}
		if *trace != 0 {
			if err := tracedPass(job, sz, *seconds, *seed, sp, *out, res); err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			printMetrics(name, sp.PerLayer, res)
		}
		fmt.Printf("%s failed_share %v ratio (%d of %d ops)\n", name, float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
		results[name] = res
		failed += res.Failed
	}

	if *trace < 0 {
		// Both passes ran: this is a measurement worth keeping.
		if err := appendRecord(filepath.Join(*out, "trajectory.jsonl"), newRecord(*seed, *seconds, *quick, results)); err != nil {
			fatal(err)
		}
	} else if *workload != "" {
		res := results[*workload]
		line := struct {
			Correct   bool                 `json:"correct"`
			Attempted int                  `json:"attempted"`
			Failed    int                  `json:"failed"`
			Metrics   map[string]valueUnit `json:"metrics"`
		}{res.Failed == 0, res.Attempted, res.Failed, map[string]valueUnit{}}
		for name, m := range res.Metrics {
			line.Metrics[name] = valueUnit{m.Value, m.Unit}
		}
		buf, err := json.Marshal(line)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(buf))
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d ops failed or differed from the oracle\n", failed)
		os.Exit(1)
	}
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
