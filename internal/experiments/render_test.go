package experiments

import (
	"strings"
	"testing"
)

func TestExtrasRenderAndCSV(t *testing.T) {
	r := &ExtrasResult{
		Schemes: ExtrasSchemes,
		Rows: []ExtrasRow{{
			App:                 "Demo",
			ThroughputMBs:       []float64{100, 90, 110, 250},
			ShiftBarriersPerCTA: []float64{400, 500, 380, 90},
			DedupedCopies:       []int{0, 0, 3, 5},
		}},
	}
	text := r.Render()
	for _, want := range []string{"Demo", "rewrite+merge", "2.50x"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}
	csv := r.CSV()
	if !strings.Contains(csv, "Demo,rewrite-only,90.00,500.0,0") {
		t.Errorf("csv malformed:\n%s", csv)
	}
}

func TestMemoryRenderAndCSV(t *testing.T) {
	r := &MemoryResult{Rows: []MemoryRow{
		{Scheme: "Base", Loops: 260.7, IntermediateStreams: 317.8, DRAMReadMB: 177.9, DRAMWrittenMB: 85.2},
		{Scheme: "DTM", Loops: 1, DRAMReadMB: 0.2, DRAMWrittenMB: 0.2},
	}}
	text := r.Render()
	if !strings.Contains(text, "Base") || !strings.Contains(text, "260.7") {
		t.Errorf("render malformed:\n%s", text)
	}
	if !strings.Contains(r.CSV(), "DTM,1.00,0.00,0.2000,0.2000") {
		t.Errorf("csv malformed:\n%s", r.CSV())
	}
}

func TestRecomputeRenderAndCSV(t *testing.T) {
	r := &RecomputeResult{Rows: []RecomputeRow{{
		App: "Demo", AvgStatic: 3.2, AvgDynamic: 160.1, MaxDynamic: 514,
		RecomputePct: 1.0, Iterations: 63.1, Fallbacks: 1,
	}}}
	if !strings.Contains(r.Render(), "514") {
		t.Errorf("render malformed:\n%s", r.Render())
	}
	if !strings.Contains(r.CSV(), "Demo,3.20,160.100,514,1.0000,63.1,1") {
		t.Errorf("csv malformed:\n%s", r.CSV())
	}
}

func TestOverallRowSpeedup(t *testing.T) {
	row := OverallRow{BitGen: 100}
	if got := row.Speedup(25); got != 4 {
		t.Fatalf("Speedup = %v", got)
	}
	if row.Speedup(0) != 0 {
		t.Fatal("zero baseline must give zero speedup")
	}
}

func TestAblationNormalized(t *testing.T) {
	row := AblationRow{App: "x", ThroughputMBs: []float64{10, 20, 40}}
	norm := row.Normalized()
	if norm[0] != 1 || norm[1] != 2 || norm[2] != 4 {
		t.Fatalf("normalized = %v", norm)
	}
}

func TestGmeanHelpers(t *testing.T) {
	if g := gmean([]float64{1, 4}); g < 1.99 || g > 2.01 {
		t.Fatalf("gmean = %v", g)
	}
	if gmean(nil) != 0 || gmean([]float64{0}) != 0 {
		t.Fatal("degenerate gmeans")
	}
	keys := sortedKeys(map[string]int{"b": 1, "a": 2})
	if keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("sortedKeys = %v", keys)
	}
}
