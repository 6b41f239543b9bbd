package workload

import (
	"testing"

	"bitgen/internal/ir"
	"bitgen/internal/lower"
	"bitgen/internal/nfa"
	"bitgen/internal/rx"
)

func loadSmall(t *testing.T, name string) *App {
	t.Helper()
	app, err := Load(name, Options{RegexScale: 0.02, InputBytes: 20_000})
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	return app
}

func TestAllAppsGenerateAndParse(t *testing.T) {
	for _, name := range Names() {
		app := loadSmall(t, name)
		if len(app.Patterns) < 4 {
			t.Errorf("%s: only %d patterns", name, len(app.Patterns))
		}
		if len(app.Input) != 20_000 {
			t.Errorf("%s: input %d bytes", name, len(app.Input))
		}
		// Patterns must parse (Load already parses) and lower.
		p, err := lower.Group(app.Regexes, lower.Options{})
		if err != nil {
			t.Errorf("%s: lowering failed: %v", name, err)
			continue
		}
		if err := ir.Validate(p); err != nil {
			t.Errorf("%s: invalid program: %v", name, err)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a1 := loadSmall(t, "Snort")
	a2 := loadSmall(t, "Snort")
	if len(a1.Patterns) != len(a2.Patterns) {
		t.Fatal("pattern counts differ")
	}
	for i := range a1.Patterns {
		if a1.Patterns[i] != a2.Patterns[i] {
			t.Fatal("patterns not deterministic")
		}
	}
	for i := range a1.Input {
		if a1.Input[i] != a2.Input[i] {
			t.Fatal("input not deterministic")
		}
	}
}

func TestSeedChangesOutput(t *testing.T) {
	a1, err := Load("Snort", Options{RegexScale: 0.02, InputBytes: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Load("Snort", Options{RegexScale: 0.02, InputBytes: 1000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a1.Patterns[0] == a2.Patterns[0] {
		t.Error("different seeds produced identical first patterns")
	}
}

func TestUnknownApp(t *testing.T) {
	if _, err := Load("NotAnApp", Options{}); err == nil {
		t.Fatal("unknown application accepted")
	}
}

func TestPaperCounts(t *testing.T) {
	// Table 1's regex counts: scale 1 loads every one.
	for name, want := range map[string]int{
		"Brill": 1849, "ClamAV": 491, "Dotstar": 1279, "Protomata": 2338,
		"Snort": 1873, "Yara": 3358, "Bro217": 227, "ExactMatch": 298,
		"Ranges1": 298, "TCP": 300,
	} {
		app, err := Load(name, Options{RegexScale: 1, InputBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(app.Patterns); got != want {
			t.Errorf("%s count = %d, want %d", name, got, want)
		}
	}
}

// statsFor lowers an app and returns its per-regex instruction mix.
func statsFor(t *testing.T, name string) (ir.Stats, int) {
	t.Helper()
	app := loadSmall(t, name)
	p, err := lower.Group(app.Regexes, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ir.CollectStats(p), len(app.Regexes)
}

func TestInstructionMixShapes(t *testing.T) {
	brill, nBrill := statsFor(t, "Brill")
	yara, nYara := statsFor(t, "Yara")
	proto, _ := statsFor(t, "Protomata")
	dot, _ := statsFor(t, "Dotstar")
	exact, _ := statsFor(t, "ExactMatch")

	// Brill is the control-heavy outlier: several whiles per regex.
	if perRegex := float64(brill.While) / float64(nBrill); perRegex < 1.5 {
		t.Errorf("Brill whiles per regex = %.2f, want > 1.5", perRegex)
	}
	// Yara is literal: essentially no loops, shifts close to ands.
	if float64(yara.While) > 0.05*float64(nYara) {
		t.Errorf("Yara whiles = %d for %d regexes, want ~0", yara.While, nYara)
	}
	if yara.Shift == 0 || float64(yara.Shift) < 0.4*float64(yara.And) {
		t.Errorf("Yara mix not shift-heavy: %+v", yara)
	}
	// Protomata has the highest OR share.
	protoOrShare := float64(proto.Or) / float64(proto.Total())
	brillOrShare := float64(brill.Or) / float64(brill.Total())
	if protoOrShare <= brillOrShare {
		t.Errorf("Protomata OR share %.3f not above Brill %.3f", protoOrShare, brillOrShare)
	}
	// Dotstar compiles its stars to MatchStar, not loops.
	if dot.Star == 0 {
		t.Error("Dotstar produced no MatchStar instructions")
	}
	if dot.While > dot.Star {
		t.Errorf("Dotstar loop-heavy: %d whiles vs %d MatchStars", dot.While, dot.Star)
	}
	// ExactMatch is pure concatenation: no or/while at all beyond class
	// unions.
	if exact.While != 0 || exact.Star != 0 {
		t.Errorf("ExactMatch has loops: %+v", exact)
	}
}

func TestInputsContainPlantedMatches(t *testing.T) {
	// Every app input should contain at least one real match (the
	// planting step), so benchmarks exercise match paths. Verified with
	// the independent NFA simulator.
	for _, name := range Names() {
		app := loadSmall(t, name)
		names := make([]string, len(app.Regexes))
		asts := make([]rx.Node, len(app.Regexes))
		for i, r := range app.Regexes {
			names[i] = r.Name
			asts[i] = r.AST
		}
		n, err := nfa.Build(names, asts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := nfa.Simulate(n, app.Input)
		if res.Stats.Matches == 0 {
			t.Errorf("%s: no matches in generated input", name)
		}
	}
}

func TestAverageLengthsRoughlyMatchTable1(t *testing.T) {
	wantAvg := map[string]float64{
		"Brill": 44.4, "ClamAV": 359.7, "Dotstar": 52.8, "Protomata": 96.5,
		"Snort": 50.5, "Yara": 32.5, "Bro217": 34.1, "ExactMatch": 52.9,
		"Ranges1": 54.3, "TCP": 53.9,
	}
	for _, name := range Names() {
		app := loadSmall(t, name)
		total := 0
		for _, p := range app.Patterns {
			total += len(p)
		}
		avg := float64(total) / float64(len(app.Patterns))
		want := wantAvg[name]
		if avg < want*0.4 || avg > want*2.2 {
			t.Errorf("%s: avg pattern length %.1f, paper %.1f (want same ballpark)", name, avg, want)
		}
	}
	_ = rx.Unbounded
}
