package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"bitgen/internal/engine"
	"bitgen/internal/gpusim"
	"bitgen/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestEngineStatsGolden pins the modeled cost of the full engine — compile,
// passes, grouping and the kernel executor — on all ten applications: the
// launch-total CTAStats and the overlap-fallback count under the default
// BitGen configuration on three CTAs (fewer where an application has fewer
// regexes). Host-side changes must leave these bytes alone;
// rewrite the golden (-update-golden) only for a deliberate change to the
// passes or the cost model. The file was generated with the kernel's
// former statement-at-a-time interpreter, before the superblock executor
// became the only one.
func TestEngineStatsGolden(t *testing.T) {
	const golden = "testdata/enginestats.golden"
	s := NewSuite(Options{RegexScale: 0.01, InputBytes: 30_000})
	var buf bytes.Buffer
	for _, name := range workload.Names() {
		app, err := s.App(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := engine.BitGenDefault()
		cfg.Grid = gpusim.DefaultGrid()
		cfg.Grid.CTAs = 3
		res, _, err := s.runBitGen(app, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s\t%+v\tfallbacks=%d\n", name, res.Stats.Total(), res.Fallbacks)
	}
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run `go test -run Golden -update-golden` to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("engine stats diverge from %s:\n got:\n%s want:\n%s", golden, buf.Bytes(), want)
	}
}
