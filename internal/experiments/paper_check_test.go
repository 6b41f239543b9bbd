//go:build paper && !race

package experiments

import "path/filepath"

// `make paper-check` builds the tests with the paper tag: then
// TestPaperArtifactsReproduce derives every artifact at the paper's scale and
// checks it against results/.
func init() { paperScale, paperDir = 1, filepath.Join("..", "..", "results") }
