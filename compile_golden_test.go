package bitgen

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"bitgen/internal/engine"
	"bitgen/internal/workload"
)

// goldenSet is one pattern set whose compiled artifact is pinned.
type goldenSet struct {
	name     string
	patterns []string
	opts     *Options
}

// goldenSets are the sets the repo benchmark compiles (the megaset, Yara,
// Brill, the four stream_light patterns), Snort and ClamAV's long
// signatures, then the other six workload generators — among them the
// Protomata and Bro217 groups whose programs change when Shift Rebalancing
// drops the reads of orphaned shifts.
func goldenSets(t testing.TB) []goldenSet {
	mega, err := workload.Megaset(500, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	sets := []goldenSet{{"megaset500", mega.Patterns, &Options{Limits: Limits{MaxPatterns: -1}}}}
	generated := func(name string) goldenSet {
		app, err := workload.Load(name, workload.Options{RegexScale: 0.05, InputBytes: 4096, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return goldenSet{strings.ToLower(name), app.Patterns, nil}
	}
	for _, name := range []string{"Yara", "Brill", "Snort", "ClamAV"} {
		sets = append(sets, generated(name))
	}
	sets = append(sets, goldenSet{"stream_light", []string{"fox|dog", "qu[a-z]{2,6}k", "l.zy", `0\d{3}`}, nil})
	for _, name := range []string{"Dotstar", "Protomata", "Bro217", "ExactMatch", "Ranges1", "TCP"} {
		sets = append(sets, generated(name))
	}
	return sets
}

// groupsDigest is the sha256 of the compiled groups alone — every group's
// packed program, names and character count — so the golden tells a change of
// program apart from a change of snapshot format.
func groupsDigest(groups []engine.Group) []byte {
	h := sha256.New()
	for _, g := range groups {
		hashField(h, string(g.Packed))
		hashField(h, strings.Join(g.Names, "\x00"))
		hashField(h, strconv.Itoa(g.Chars))
	}
	return h.Sum(nil)
}

// TestCompiledArtifactGolden pins what Compile produces, byte for byte: the
// groups' digest (groupsDigest, after the group count), the sha256 of each
// set's snapshot (packed group programs, shared classes, pass statistics,
// public metadata) and its PassStats, generated at bb67ef7 —
// before CTA groups compiled concurrently on reused pass scratch — and, for
// the six generators after stream_light, at 0945957. The
// artifact must not depend on how wide the host is, so every set compiles
// under GOMAXPROCS 1, 2 and 4 against the same line. Rewrite the golden
// (-update-golden) only for a deliberate change to lowering or a pass, or
// for a new options-hash domain tag: the snapshot carries the options
// fingerprint, so a tag bump moves every sha256 and nothing else.
func TestCompiledArtifactGolden(t *testing.T) {
	const golden = "testdata/compile.golden"
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var got strings.Builder
	for _, set := range goldenSets(t) {
		line := ""
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			eng, err := Compile(set.patterns, set.opts)
			if err != nil {
				t.Fatalf("%s: %v", set.name, err)
			}
			groups := eng.inner.Groups()
			l := fmt.Sprintf("%s patterns=%d groups=%d:%x sha256=%x %+v\n", set.name, len(set.patterns),
				len(groups), groupsDigest(groups), sha256.Sum256(EncodeEngine(eng)), eng.inner.PassStats)
			if line != "" && l != line {
				t.Errorf("%s compiles differently at GOMAXPROCS %d:\n%s%s", set.name, procs, line, l)
			}
			line = l
		}
		got.WriteString(line)
	}
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run `go test -run TestCompiledArtifactGolden -update-golden .` to create): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("compiled artifact drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got.String(), want)
	}
}
