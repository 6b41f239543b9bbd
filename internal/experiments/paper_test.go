//go:build !race

package experiments

import (
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
)

// slowArtifacts need the two reference runs, the NFA simulation (ngAP) and the
// whole-stream interpreter (icgrep), both single-threaded: ≈ 1/3 of the CPU
// time of deriving every artifact. `go test` leaves them to `make paper-check`.
var slowArtifacts = map[string]bool{"fig11": true, "fig15": true}

// checkSlowArtifacts is set by the paper build tag (paper_check_test.go).
var checkSlowArtifacts = false

// TestPaperArtifactsReproduce re-derives every modeled cell of the committed
// paper artifacts — results/<name>.csv as `make paper` wrote them, at the
// suite's default settings — and fails on any difference. fig11's HS-1T and
// HS-MT columns are timed on the host, not modeled: they are the only cells it
// leaves alone. A change that moves a modeled number regenerates the artifacts
// (`make paper`) in the same commit, so its diff shows what moved. It is not
// built with -race: the detector's shadow memory on these runs outgrows a
// 7 GiB host.
func TestPaperArtifactsReproduce(t *testing.T) {
	// The Base mode and the icgrep interpreter materialize every intermediate
	// stream of a 1 MB input: collect early rather than let the heap double
	// (≈ 4.7 GB resident without the limit, 1.3–1.9 GB with it).
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(1 << 30))
	s := NewSuite(Options{})
	for _, a := range Artifacts {
		t.Run(a.Name, func(t *testing.T) {
			if slowArtifacts[a.Name] && !checkSlowArtifacts {
				t.Skip("derived by make paper-check")
			}
			run, wallClock := a.Run, map[string]bool{}
			if a.Name == "fig11" {
				run = func(s *Suite) (Artifact, error) { return s.overall(false) }
				wallClock = map[string]bool{"hs1t_mbs": true, "hsmt_mbs": true}
			}
			got, err := run(s)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("..", "..", "results", a.Name+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			w, g := csvCells(string(want)), csvCells(got.CSV())
			if len(w) != len(g) {
				t.Fatalf("%d rows, committed %d", len(g), len(w))
			}
			for i := range w {
				if len(w[i]) != len(g[i]) {
					t.Errorf("row %d: %d cells, committed %d", i, len(g[i]), len(w[i]))
					continue
				}
				for j, cell := range w[i] {
					if col := w[0][j]; !wallClock[col] && g[i][j] != cell {
						t.Errorf("%s, %s: %s, committed %s", g[i][0], col, g[i][j], cell)
					}
				}
			}
		})
	}
}

// csvCells splits CSV text without quoting, as the artifacts write it.
func csvCells(text string) [][]string {
	var rows [][]string
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		rows = append(rows, strings.Split(line, ","))
	}
	return rows
}
