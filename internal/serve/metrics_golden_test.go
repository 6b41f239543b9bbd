package serve

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"bitgen/internal/cluster"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/metrics.golden")

// The two expositions whose schema is pinned: an engine's own registry (the
// root package's golden) and a server's (this package's).
const (
	engineGolden = "../../testdata/metrics.golden"
	serveGolden  = "testdata/metrics.golden"
)

// TestServeMetricsGolden pins a fresh server's /metrics — HELP text, TYPE
// lines and every series — with snapshots and cluster mode on, so the
// snapshot and per-peer families are present. Every family registers at
// construction and every value is still zero, so the exposition is pinned
// verbatim, with no request, no listener and no schema reduction (only the
// engine's golden, written after a run, needs the root package's
// prometheusSchema).
// Adding, renaming or relabelling a serve family must update
// testdata/metrics.golden deliberately (go test ./internal/serve -run
// ServeMetricsGolden -update-golden).
func TestServeMetricsGolden(t *testing.T) {
	s := mustNew(t, Config{SnapshotDir: t.TempDir()})
	defer s.Close()
	if err := s.EnableCluster(cluster.Config{
		Self:  "http://10.0.0.1:8377",
		Peers: []string{"http://10.0.0.2:8377", "http://10.0.0.3:8377"},
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if *updateGolden {
		if err := os.WriteFile(serveGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(serveGolden)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("serve metric exposition drifted from %s:\n--- got ---\n%s--- want ---\n%s", serveGolden, got, want)
	}
}

// TestEveryMetricFamilyHasAReader holds the exported families to DESIGN.md
// §9's reader table: each family in either golden has a row naming who reads
// it, and each row names a family one of the goldens still has. A family
// nobody reads is deleted, not exported.
func TestEveryMetricFamilyHasAReader(t *testing.T) {
	families := map[string]string{} // family → golden
	typeLine := regexp.MustCompile(`^# TYPE (\S+) `)
	for _, path := range []string{engineGolden, serveGolden} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if m := typeLine.FindStringSubmatch(line); m != nil {
				families[m[1]] = path
			}
		}
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	const heading = "### Metric families and their readers\n"
	_, table, ok := strings.Cut(string(design), heading)
	if !ok {
		t.Fatalf("DESIGN.md has no %q section", strings.TrimSpace(heading))
	}
	if end := strings.Index(table, "\n#"); end >= 0 {
		table = table[:end]
	}
	row := regexp.MustCompile("^\\| `(bitgen_[a-z_]+)(\\{[a-z,]*\\})?` \\| ([^|]*\\S[^|]*) \\|$")
	read := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		m := row.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if read[m[1]] {
			t.Errorf("DESIGN.md §9 lists %s twice", m[1])
		}
		read[m[1]] = true
		if _, ok := families[m[1]]; !ok {
			t.Errorf("DESIGN.md §9 names a reader for %s, which neither golden exports", m[1])
		}
	}
	var unread []string
	for f, path := range families {
		if !read[f] {
			unread = append(unread, f+" ("+path+")")
		}
	}
	sort.Strings(unread)
	for _, f := range unread {
		t.Errorf("%s is exported but has no reader row in DESIGN.md §9", f)
	}
}
