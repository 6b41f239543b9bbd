package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// readTrajectory loads every record of a trajectory file; the file is one
// side of a comparison, one run per line.
func readTrajectory(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []*record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		rec := &record{}
		if err := json.Unmarshal(sc.Bytes(), rec); err != nil {
			return nil, fmt.Errorf("%s: record %d: %w", path, len(recs)+1, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return recs, nil
}

// values collects one metric of one workload across a side's runs, sorted.
func values(recs []*record, workload, name string) []float64 {
	var v []float64
	for _, r := range recs {
		if w := r.Workloads[workload]; w != nil {
			if m, ok := w.Metrics[name]; ok {
				v = append(v, m.Value)
			}
		}
	}
	sort.Float64s(v)
	return v
}

// verdict judges side B against base A for one metric of one workload.
// The spread is each side's interquartile distance as a share of its
// median. When it exceeds the bound the runs cannot resolve a change of
// the size the bound forbids, unless every run of one side beats every run
// of the other.
func verdict(a, b []float64, d metricDef) (ratio float64, v string) {
	da, db := summarize(a), summarize(b)
	ratio = db.Median / da.Median
	worsening := ratio - 1
	if d.Better == "higher" {
		worsening = 1 - ratio
	}
	spread := max((da.Q3-da.Q1)/da.Median, (db.Q3-db.Q1)/db.Median)
	separated := a[len(a)-1] < b[0] || b[len(b)-1] < a[0]
	switch {
	case spread > d.Bound && !separated:
		return ratio, "unresolved"
	case worsening > d.Bound:
		return ratio, "worse"
	}
	return ratio, "ok"
}

// exactRepeat names the metrics that are counts or modeled numbers:
// for one seed they repeat exactly, on any host and under any host-side
// change, so two sides that ran the same seeds must agree on them to the
// last digit.
func exactRepeat(name string) bool {
	switch {
	case name == "resident_mb", name == "engine.groups", name == "bitgen.matches", name == "snapshot.bytes", name == "bench.ledger_ir_drift",
		strings.HasPrefix(name, "gpusim."):
		return true
	case strings.HasPrefix(name, "rx."), strings.HasPrefix(name, "passes."), strings.HasPrefix(name, "lower."), strings.HasPrefix(name, "ir."):
		return !strings.HasSuffix(name, "_s")
	}
	return false
}

// bySeed maps seed to the metric's value on one side; ok is false when two
// runs of one seed disagree, which no exact metric may do.
func bySeed(recs []*record, workload, name string) (vals map[int64]float64, ok bool) {
	vals, ok = map[int64]float64{}, true
	for _, r := range recs {
		if w := r.Workloads[workload]; w != nil {
			if m, has := w.Metrics[name]; has {
				if prev, seen := vals[r.Seed]; seen && prev != m.Value {
					ok = false
				}
				vals[r.Seed] = m.Value
			}
		}
	}
	return vals, ok
}

// compare prints one row per end-to-end metric and workload: both sides'
// medians with quartiles and run counts, the ratio B/A, and the verdict;
// then every exact metric that differs between the sides on a seed both
// ran. It returns how many rows were worse or changed; failed ops on
// either side are an error, because a run that got outputs wrong measures
// nothing.
func compare(w io.Writer, sp *spec, pathA, pathB string) (worse int, err error) {
	a, err := readTrajectory(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readTrajectory(pathB)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "A (base) = %s, %d runs; B = %s, %d runs; ratio = B median / A median\n", pathA, len(a), pathB, len(b))
	fmt.Fprintf(w, "%-16s %-17s %-6s %-34s %-34s %-8s %s\n", "workload", "metric", "unit", "A median [q1, q3] n", "B median [q1, q3] n", "ratio", "verdict")
	for _, wl := range sp.Workloads {
		for _, side := range [][]*record{a, b} {
			for _, r := range side {
				if res := r.Workloads[wl.Name]; res != nil && res.Failed > 0 {
					return worse, fmt.Errorf("%s: %d of %d ops failed in the run of %s", wl.Name, res.Failed, res.Attempted, r.Time)
				}
			}
		}
		for _, d := range sp.EndToEnd {
			va, vb := values(a, wl.Name, d.Name), values(b, wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ratio, v := verdict(va, vb, d)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-16s %-17s %-6s %-34s %-34s %-8.4f %s\n", wl.Name, d.Name, d.Unit, cell(va), cell(vb), ratio, v)
		}
	}
	compared := 0
	for _, wl := range sp.Workloads {
		for _, d := range append(append([]metricDef(nil), sp.EndToEnd...), sp.PerLayer...) {
			if !exactRepeat(d.Name) {
				continue
			}
			va, okA := bySeed(a, wl.Name, d.Name)
			vb, okB := bySeed(b, wl.Name, d.Name)
			if !okA || !okB {
				worse++
				fmt.Fprintf(w, "%-16s %-28s differs between runs of one seed on one side\n", wl.Name, d.Name)
			}
			for seed, x := range va {
				if y, both := vb[seed]; both {
					compared++
					if x != y {
						worse++
						fmt.Fprintf(w, "%-16s %-28s seed %d: A %v, B %v %s  changed (ratio %.6f)\n", wl.Name, d.Name, seed, x, y, d.Unit, y/x)
					}
				}
			}
		}
	}
	fmt.Fprintf(w, "exact metrics (counts, modeled GPU numbers, resident bytes): %d compared on shared seeds\n", compared)
	return worse, nil
}

func cell(v []float64) string {
	d := summarize(v)
	return fmt.Sprintf("%.5g [%.5g, %.5g] %d", d.Median, d.Q1, d.Q3, d.N)
}
