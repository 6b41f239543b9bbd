//go:build !race

package experiments

import (
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
)

// paperScale and paperDir are the regex scale TestPaperArtifactsReproduce
// derives the artifacts at and the directory of the CSVs it checks them
// against: by default the 0.05 subset pinned under testdata/paper, under the
// paper build tag (paper_check_test.go) the paper's scale and results/.
var (
	paperScale = 0.05
	paperDir   = filepath.Join("testdata", "paper")
)

// TestPaperArtifactsReproduce re-derives every modeled cell of the committed
// paper artifacts — the CSVs `make paper` wrote into paperDir — and fails on
// any difference. fig11's HS-1T and HS-MT columns are timed on the host, not
// modeled: they are the only cells it leaves alone. A change that moves a
// modeled number regenerates the artifacts (`make paper`) in the same commit,
// so its diff shows what moved. It is not built with -race: the detector's
// shadow memory on these runs outgrows a 7 GiB host.
func TestPaperArtifactsReproduce(t *testing.T) {
	// The Base mode and the icgrep interpreter materialize every intermediate
	// stream of a 1 MB input: collect early rather than let the heap double
	// (≈ 4.7 GB resident without the limit, 1.3–1.9 GB with it).
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(1 << 30))
	s := NewSuite(Options{RegexScale: paperScale})
	for _, a := range Artifacts {
		t.Run(a.Name, func(t *testing.T) {
			run, wallClock := a.Run, map[string]bool{}
			if a.Name == "fig11" {
				run = func(s *Suite) (Artifact, error) { return s.overall(false) }
				wallClock = map[string]bool{"hs1t_mbs": true, "hsmt_mbs": true}
			}
			got, err := run(s)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(paperDir, a.Name+".csv"))
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
