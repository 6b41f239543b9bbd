package bitgen

import (
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestCompileAndRun(t *testing.T) {
	eng, err := Compile([]string{"cat", "do(g|ve)"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run([]byte("the cat chased a dove and a dog"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts["cat"] != 1 || res.Counts["do(g|ve)"] != 2 {
		t.Fatalf("counts = %v", res.Counts)
	}
	if len(res.Matches) != 3 {
		t.Fatalf("matches = %v", res.Matches)
	}
	// Matches are sorted by end position.
	for i := 1; i < len(res.Matches); i++ {
		if res.Matches[i].End < res.Matches[i-1].End {
			t.Fatal("matches not sorted")
		}
	}
	if res.Stats.ThroughputMBs <= 0 || res.Stats.ModeledTime <= 0 {
		t.Fatalf("stats missing: %+v", res.Stats)
	}
}

func TestMatchEndsAgainstStdlib(t *testing.T) {
	pattern := "er+or"
	eng := MustCompile([]string{pattern}, nil)
	input := []byte("error erstwhile eror errrror terror")
	res, err := eng.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile("^(?:" + "er+or" + ")$")
	for _, m := range res.Matches {
		ok := false
		for start := 0; start <= m.End; start++ {
			if re.Match(input[start : m.End+1]) {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("reported match ending at %d has no witness", m.End)
		}
	}
}

// TestFoldCase: FoldCase folds a bracket class before it negates it, so
// the negated classes count what Go's (?i) counts.
func TestFoldCase(t *testing.T) {
	for _, tc := range []struct {
		input    string
		patterns []string
		want     []int
	}{
		{"WARNING Warning warning", []string{"warning"}, []int{3}},
		{"aAbB1_", []string{"[^a]", "[^a-z]", "[^A-Z0-9]"}, []int{4, 2, 1}},
	} {
		counts, err := MustCompile(tc.patterns, &Options{FoldCase: true}).CountOnly([]byte(tc.input))
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range tc.patterns {
			if counts[p] != tc.want[i] {
				t.Errorf("%q on %q: %d matches, want %d", p, tc.input, counts[p], tc.want[i])
			}
		}
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := Compile(nil, nil); err == nil {
		t.Error("empty pattern list accepted")
	}
	if _, err := Compile([]string{"("}, nil); err == nil {
		t.Error("bad pattern accepted")
	}
	if _, err := Compile([]string{"a"}, &Options{Device: "TPU"}); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestDeviceOption(t *testing.T) {
	input := []byte(strings.Repeat("flag{secret} noise noise ", 200))
	patterns := []string{"flag\\{[a-z]+\\}"}
	slow := MustCompile(patterns, &Options{Device: "RTX 3090", ctas: 8, threads: 32})
	fast := MustCompile(patterns, &Options{Device: "L40S", ctas: 8, threads: 32})
	rSlow, err := slow.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	rFast, err := fast.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	if rSlow.Counts["flag\\{[a-z]+\\}"] != 200 {
		t.Fatalf("counts = %v", rSlow.Counts)
	}
	if rFast.Stats.ModeledTime >= rSlow.Stats.ModeledTime {
		t.Error("L40S not modeled faster on compute-bound work")
	}
}

func TestConcurrentRuns(t *testing.T) {
	eng := MustCompile([]string{"cat", "do(g|ve)s?"}, &Options{ctas: 2, threads: 32})
	inputs := [][]byte{
		[]byte(strings.Repeat("cat dove ", 100)),
		[]byte(strings.Repeat("dogs dogs ", 100)),
		[]byte(strings.Repeat("nothing ", 100)),
	}
	var wg sync.WaitGroup
	errs := make(chan error, 30)
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, in := range inputs {
				if _, err := eng.Run(in); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
