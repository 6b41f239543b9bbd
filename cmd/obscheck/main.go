// Command obscheck validates observability artifacts: Chrome trace_event
// JSON files (as produced by rxgrep -trace / Engine.WriteTrace),
// Prometheus text-exposition dumps (rxgrep -metrics /
// Engine.WritePrometheus), stitched multi-node cluster traces
// (bitgend -stitch / serve.StitchTrace), and anomaly flight-recorder
// bundles (bitgend /debug/bundle). It is the checker behind
// `make obs-smoke` and `make obs-cluster-smoke`.
//
// Usage:
//
//	obscheck -trace out.json
//	obscheck -metrics metrics.txt
//	obscheck -stitched stitched.json -stitch-nodes 3
//	obscheck -bundle bundle.json
//
// Exit status 0 when every given artifact is well-formed; 1 with a
// diagnostic otherwise.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
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
	stitchedPath := flag.String("stitched", "", "stitched multi-node cluster trace (bitgend -stitch output) to validate")
	stitchNodes := flag.Int("stitch-nodes", 2, "minimum distinct node lanes a stitched trace must span")
	bundlePath := flag.String("bundle", "", "anomaly flight-recorder bundle (sha256-sealed JSON) to validate")
	flag.Parse()
	if *tracePath == "" && *metricsPath == "" && *stitchedPath == "" && *bundlePath == "" {
		fmt.Fprintln(os.Stderr, "usage: obscheck [-trace FILE] [-metrics FILE] [-stitched FILE [-stitch-nodes N]] [-bundle FILE]")
		os.Exit(2)
	}
	ok := true
	if *tracePath != "" {
		if err := checkTrace(*tracePath); err != nil {
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
	if *stitchedPath != "" {
		if err := checkStitched(*stitchedPath, *stitchNodes); err != nil {
			fmt.Fprintf(os.Stderr, "obscheck: %s: %s\n", *stitchedPath, err)
			ok = false
		} else {
			fmt.Printf("obscheck: %s: valid stitched cluster trace (>= %d node lanes, one trace ID)\n", *stitchedPath, *stitchNodes)
		}
	}
	if *bundlePath != "" {
		if err := checkBundle(*bundlePath); err != nil {
			fmt.Fprintf(os.Stderr, "obscheck: %s: %s\n", *bundlePath, err)
			ok = false
		} else {
			fmt.Printf("obscheck: %s: valid anomaly bundle (sha256 verified)\n", *bundlePath)
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

// checkTrace validates the trace_event JSON schema: a traceEvents array
// whose entries carry name/ph/ts/pid, with complete ("X") events also
// carrying a non-negative dur.
func checkTrace(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc traceDoc
	dec := json.NewDecoder(strings.NewReader(string(buf)))
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("not valid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("missing traceEvents array")
	}
	spans := 0
	for i, ev := range doc.TraceEvents {
		where := fmt.Sprintf("traceEvents[%d]", i)
		if ev.Name == "" {
			return fmt.Errorf("%s: missing name", where)
		}
		if ev.Ph == "" {
			return fmt.Errorf("%s (%q): missing ph", where, ev.Name)
		}
		if ev.Ts == nil {
			return fmt.Errorf("%s (%q): missing ts", where, ev.Name)
		}
		if ev.Pid == nil {
			return fmt.Errorf("%s (%q): missing pid", where, ev.Name)
		}
		switch ev.Ph {
		case "X":
			if ev.Dur == nil {
				return fmt.Errorf("%s (%q): complete event missing dur", where, ev.Name)
			}
			if *ev.Dur < 0 {
				return fmt.Errorf("%s (%q): negative dur", where, ev.Name)
			}
			spans++
		case "i", "I", "M", "B", "E":
			// instant / metadata / duration-begin / duration-end: fine.
		default:
			return fmt.Errorf("%s (%q): unknown phase %q", where, ev.Name, ev.Ph)
		}
	}
	if spans == 0 {
		return fmt.Errorf("no complete (ph=X) spans recorded")
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
	return checkMetricsReader(f)
}

func checkMetricsReader(f io.Reader) error {
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

// checkStitched validates a stitched multi-node cluster trace: it must
// be a valid Chrome trace whose complete (ph=X) spans all carry one and
// the same non-empty args.trace ID, spread across at least minNodes
// distinct process lanes, each lane named by a process_name metadata
// record.
func checkStitched(path string, minNodes int) error {
	if err := checkTrace(path); err != nil {
		return err
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc traceDoc
	if err := json.Unmarshal(buf, &doc); err != nil {
		return err
	}
	named := map[int]string{} // pid → process name
	spanPids := map[int]int{} // pid → span count
	traceID := ""
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "process_name" || ev.Pid == nil {
				continue
			}
			name, _ := ev.Args["name"].(string)
			if name == "" {
				return fmt.Errorf("traceEvents[%d]: process_name metadata without args.name", i)
			}
			named[*ev.Pid] = name
		case "X":
			id, _ := ev.Args["trace"].(string)
			if id == "" {
				return fmt.Errorf("traceEvents[%d] (%q): span missing args.trace", i, ev.Name)
			}
			if traceID == "" {
				traceID = id
			} else if id != traceID {
				return fmt.Errorf("traceEvents[%d] (%q): trace %s differs from %s — a stitched view must hold exactly one trace", i, ev.Name, id, traceID)
			}
			if ev.Pid != nil {
				spanPids[*ev.Pid]++
			}
		}
	}
	if traceID == "" {
		return fmt.Errorf("no spans carry a trace ID")
	}
	if len(spanPids) < minNodes {
		return fmt.Errorf("spans cover %d node lanes, want >= %d", len(spanPids), minNodes)
	}
	for pid := range spanPids {
		if named[pid] == "" {
			return fmt.Errorf("pid %d has spans but no process_name metadata", pid)
		}
	}
	return nil
}

// bundleEnvelope / bundleBody mirror the serve layer's flight-recorder
// bundle format. Body stays a RawMessage so the checksum is recomputed
// over exactly the written bytes.
type bundleEnvelope struct {
	SHA256 string          `json:"sha256"`
	Body   json.RawMessage `json:"body"`
}

type bundleBody struct {
	Reason             string            `json:"reason"`
	Node               string            `json:"node"`
	GeneratedUnixMicro int64             `json:"generated_us"`
	Spans              []json.RawMessage `json:"spans"`
	Events             []json.RawMessage `json:"events"`
	Metrics            string            `json:"metrics"`
	Goroutines         string            `json:"goroutines"`
}

// checkBundle validates an anomaly flight-recorder bundle: the envelope
// checksum must match the body bytes, and the body must carry every
// diagnostic section — a reason, the recording node, a timestamp, at
// least one event, a goroutine dump, and a metrics snapshot that is
// itself valid Prometheus exposition.
func checkBundle(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var env bundleEnvelope
	if err := json.Unmarshal(buf, &env); err != nil {
		return fmt.Errorf("not a sealed bundle: %w", err)
	}
	if env.SHA256 == "" {
		return fmt.Errorf("missing sha256 seal")
	}
	sum := sha256.Sum256(env.Body)
	if got := hex.EncodeToString(sum[:]); got != env.SHA256 {
		return fmt.Errorf("integrity failure: body hashes to %.12s…, sealed as %.12s…", got, env.SHA256)
	}
	var body bundleBody
	if err := json.Unmarshal(env.Body, &body); err != nil {
		return fmt.Errorf("body: %w", err)
	}
	if body.Reason == "" {
		return fmt.Errorf("body missing reason")
	}
	if body.Node == "" {
		return fmt.Errorf("body missing node")
	}
	if body.GeneratedUnixMicro <= 0 {
		return fmt.Errorf("body missing generated_us")
	}
	if len(body.Events) == 0 {
		return fmt.Errorf("body has no events — a bundle must capture the event ring")
	}
	if body.Spans == nil {
		return fmt.Errorf("body missing spans section")
	}
	if body.Goroutines == "" {
		return fmt.Errorf("body missing goroutine dump")
	}
	if body.Metrics == "" {
		return fmt.Errorf("body missing metrics snapshot")
	}
	if err := checkMetricsReader(strings.NewReader(body.Metrics)); err != nil {
		return fmt.Errorf("embedded metrics snapshot: %w", err)
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
