// Command obscheck validates observability artifacts: Chrome trace_event
// JSON files (the one format obs.WriteChromeTrace writes: an engine's own
// trace from bitgen -trace / Engine.WriteTrace, or with -nodes a stitched
// multi-node cluster trace from bitgend -stitch / serve.StitchTrace), and
// Prometheus text-exposition dumps (bitgen -metrics /
// Engine.WritePrometheus, or a bitgend /metrics scrape). It is the checker
// behind `make obs-smoke` and `make obs-cluster-smoke`.
//
// Usage:
//
//	obscheck -trace out.json
//	obscheck -trace stitched.json -nodes 3
//	obscheck -metrics metrics.txt
//
// Exit status 0 when every given artifact is well-formed; 1 with a
// diagnostic otherwise.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	tracePath := flag.String("trace", "", "Chrome trace_event JSON file to validate")
	metricsPath := flag.String("metrics", "", "Prometheus text-exposition file to validate")
	nodes := flag.Int("nodes", 0, "with -trace: the file is a stitched cluster trace (bitgend -stitch output) whose spans share one trace ID across at least this many nodes")
	flag.Parse()
	if *tracePath == "" && *metricsPath == "" {
		fmt.Fprintln(os.Stderr, "usage: obscheck [-trace FILE [-nodes N]] [-metrics FILE]")
		os.Exit(2)
	}
	ok := true
	if *tracePath != "" {
		if err := checkTrace(*tracePath, *nodes); err != nil {
			fmt.Fprintf(os.Stderr, "obscheck: %s: %s\n", *tracePath, err)
			ok = false
		} else {
			fmt.Printf("obscheck: %s: valid Chrome trace\n", *tracePath)
		}
	}
	if *metricsPath != "" {
		if err := checkMetrics(*metricsPath); err != nil {
			fmt.Fprintf(os.Stderr, "obscheck: %s: %s\n", *metricsPath, err)
			ok = false
		} else {
			fmt.Printf("obscheck: %s: valid Prometheus exposition\n", *metricsPath)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// traceEvent mirrors the trace_event fields obscheck validates; unknown
// fields are tolerated (the format is extensible).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   *float64       `json:"ts"`
	Dur  *float64       `json:"dur"`
	Pid  *int           `json:"pid"`
	Tid  *int           `json:"tid"`
	Args map[string]any `json:"args"`
}

type traceDoc struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// checkTrace validates the one trace format: the trace_event JSON schema
// (a traceEvents array whose entries carry name/ph/ts/pid, complete ("X")
// events also a non-negative dur), at least one span, and for every span a
// process_name record for its pid and a thread_name record for its
// (pid, tid). With minNodes > 0 the file is a stitched cluster trace: its
// spans all carry one and the same non-empty args.trace and are spread
// across at least minNodes processes.
func checkTrace(path string, minNodes int) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc traceDoc
	if err := json.Unmarshal(buf, &doc); err != nil {
		return fmt.Errorf("not valid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("missing traceEvents array")
	}
	type thread struct{ pid, tid int }
	procs, threads := map[int]bool{}, map[thread]bool{} // named by metadata
	spans := map[thread]string{}                        // holding spans → one span's name
	traceID := ""
	for i, ev := range doc.TraceEvents {
		where := fmt.Sprintf("traceEvents[%d] (%q)", i, ev.Name)
		switch {
		case ev.Name == "":
			return fmt.Errorf("traceEvents[%d]: missing name", i)
		case ev.Ph == "":
			return fmt.Errorf("%s: missing ph", where)
		case ev.Ts == nil:
			return fmt.Errorf("%s: missing ts", where)
		case ev.Pid == nil:
			return fmt.Errorf("%s: missing pid", where)
		}
		tid := 0
		if ev.Tid != nil {
			tid = *ev.Tid
		}
		switch ev.Ph {
		case "X":
			if ev.Dur == nil || *ev.Dur < 0 {
				return fmt.Errorf("%s: complete event without a non-negative dur", where)
			}
			spans[thread{*ev.Pid, tid}] = ev.Name
			if minNodes > 0 {
				id, _ := ev.Args["trace"].(string)
				if id == "" || (traceID != "" && id != traceID) {
					return fmt.Errorf("%s: trace %q where the others carry %q — a stitched view holds exactly one trace", where, id, traceID)
				}
				traceID = id
			}
		case "M":
			if name, _ := ev.Args["name"].(string); name == "" {
				return fmt.Errorf("%s: metadata without args.name", where)
			}
			procs[*ev.Pid] = procs[*ev.Pid] || ev.Name == "process_name"
			threads[thread{*ev.Pid, tid}] = threads[thread{*ev.Pid, tid}] || ev.Name == "thread_name"
		case "i", "I", "B", "E":
			// instant / duration-begin / duration-end: fine.
		default:
			return fmt.Errorf("%s: unknown phase %q", where, ev.Ph)
		}
	}
	if len(spans) == 0 {
		return fmt.Errorf("no complete (ph=X) spans recorded")
	}
	pids := map[int]bool{}
	for th, name := range spans {
		pids[th.pid] = true
		if !procs[th.pid] || !threads[th] {
			return fmt.Errorf("span %q on pid %d tid %d, which no process_name / thread_name record names", name, th.pid, th.tid)
		}
	}
	if len(pids) < minNodes {
		return fmt.Errorf("spans cover %d nodes, want >= %d", len(pids), minNodes)
	}
	return nil
}

var (
	helpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) (.*)$`)
	typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (\S+)$`)
	labelRe  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

// checkMetrics validates Prometheus text exposition format 0.0.4: HELP
// and TYPE comments with valid types, sample lines with parseable label
// sets and float values, every sample preceded by a TYPE for its family,
// and histogram bucket series that are cumulative and end at +Inf with
// bucket{+Inf} == count.
func checkMetrics(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	typed := map[string]string{} // family → type
	type histKey struct{ name, labels string }
	buckets := map[histKey]map[float64]float64{} // series → le → value
	counts := map[histKey]float64{}
	samples := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	ln := 0
	for sc.Scan() {
		ln++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if strings.HasPrefix(line, "# HELP ") {
				if !helpRe.MatchString(line) {
					return fmt.Errorf("line %d: malformed HELP: %q", ln, line)
				}
				continue
			}
			if strings.HasPrefix(line, "# TYPE ") {
				m := typeRe.FindStringSubmatch(line)
				if m == nil {
					return fmt.Errorf("line %d: malformed TYPE: %q", ln, line)
				}
				typed[m[1]] = m[2]
				continue
			}
			continue // free-form comment
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("line %d: malformed sample: %q", ln, line)
		}
		name, labels, valStr := m[1], m[3], m[4]
		val, err := parsePromFloat(valStr)
		if err != nil {
			return fmt.Errorf("line %d: bad value %q: %w", ln, valStr, err)
		}
		var le *float64
		var otherLabels []string
		if labels != "" {
			for _, pair := range splitLabels(labels) {
				lm := labelRe.FindStringSubmatch(pair)
				if lm == nil {
					return fmt.Errorf("line %d: malformed label %q", ln, pair)
				}
				if lm[1] == "le" {
					v, err := parsePromFloat(lm[2])
					if err != nil {
						return fmt.Errorf("line %d: bad le %q: %w", ln, lm[2], err)
					}
					le = &v
				} else {
					otherLabels = append(otherLabels, pair)
				}
			}
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && typed[base] == "histogram" {
				family = base
			}
		}
		if _, ok := typed[family]; !ok {
			return fmt.Errorf("line %d: sample %q has no preceding # TYPE", ln, name)
		}
		if typed[family] == "histogram" {
			key := histKey{family, strings.Join(otherLabels, ",")}
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if le == nil {
					return fmt.Errorf("line %d: histogram bucket without le label", ln)
				}
				if buckets[key] == nil {
					buckets[key] = map[float64]float64{}
				}
				buckets[key][*le] = val
			case strings.HasSuffix(name, "_count"):
				counts[key] = val
			}
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if samples == 0 {
		return fmt.Errorf("no samples")
	}
	for key, bs := range buckets {
		les := make([]float64, 0, len(bs))
		for le := range bs {
			les = append(les, le)
		}
		sort.Float64s(les)
		if len(les) == 0 || !math.IsInf(les[len(les)-1], 1) {
			return fmt.Errorf("histogram %s: bucket series does not end at +Inf", key.name)
		}
		prev := 0.0
		for _, le := range les {
			if bs[le] < prev {
				return fmt.Errorf("histogram %s: non-cumulative bucket at le=%g", key.name, le)
			}
			prev = bs[le]
		}
		if c, ok := counts[key]; ok && bs[les[len(les)-1]] != c {
			return fmt.Errorf("histogram %s: +Inf bucket %g != count %g", key.name, bs[les[len(les)-1]], c)
		}
	}
	return nil
}

// splitLabels splits a label body on commas outside quoted values.
func splitLabels(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote, escaped := false, false
	for _, r := range s {
		switch {
		case escaped:
			cur.WriteRune(r)
			escaped = false
		case r == '\\' && inQuote:
			cur.WriteRune(r)
			escaped = true
		case r == '"':
			cur.WriteRune(r)
			inQuote = !inQuote
		case r == ',' && !inQuote:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteRune(r)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

// parsePromFloat parses a Prometheus sample value (accepts +Inf/-Inf/NaN).
func parsePromFloat(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}
