//go:build paper && !race

package experiments

// `make paper-check` builds the tests with the paper tag: then
// TestPaperArtifactsReproduce derives every artifact, the slow ones included.
func init() { checkSlowArtifacts = true }
