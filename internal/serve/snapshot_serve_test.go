package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bitgen"
	"bitgen/internal/cluster"
	"bitgen/internal/snapshot"
)

// TestSnapshotRestart: a server booted on a directory holding another
// server's snapshots misses its cache on the first request and answers it
// from the persisted file — one snapshot load, zero compiles, identical
// matches, resident gauge charged.
func TestSnapshotRestart(t *testing.T) {
	dir := t.TempDir()
	body := `{"patterns":["warm+start","wx?"],"input":"warmmstart wx"}`

	s1, hs1 := newTestServer(t, Config{SnapshotDir: dir})
	code, want, _ := postMatch(t, hs1.URL, body)
	if code != http.StatusOK {
		t.Fatalf("cold match: status %d", code)
	}
	if got := s1.Metrics().Snapshot().Counter("bitgen_snapshot_saves_total"); got != 1 {
		t.Fatalf("saves = %v, want 1", got)
	}
	hs1.Close()
	s1.Close()

	s2, hs2 := newTestServer(t, Config{SnapshotDir: dir})
	code, got, _ := postMatch(t, hs2.URL, body)
	if code != http.StatusOK {
		t.Fatalf("restarted match: status %d", code)
	}
	if got.Cache != "miss" {
		t.Errorf("first request after restart cache = %q, want miss", got.Cache)
	}
	if err := sameMatches(got.Matches, want.Matches); err != nil {
		t.Fatalf("restarted server: %v", err)
	}
	snap := s2.Metrics().Snapshot()
	if n := snap.Counter("bitgen_serve_engine_compiles_total"); n != 0 {
		t.Errorf("compiles = %v, want 0", n)
	}
	if n := snap.Counter("bitgen_snapshot_loads_total"); n != 1 {
		t.Errorf("snapshot loads = %v, want 1", n)
	}
	if g := snap.Gauges["bitgen_serve_engine_cache_resident_bytes"]; g <= 0 {
		t.Errorf("resident bytes = %v, want > 0 after the snapshot load", g)
	}
}

// TestFormatV2SnapshotRecompiles: testdata/v2.bgsnap is a snapshot the
// previous format wrote (v2, its shared classes stored as an IR program) for
// a set whose three groups share classes. Under its own key in a fresh
// server's directory it is refused as version-mismatch before anything is
// decoded, quarantined, and the set is compiled, served and saved again in
// the current format.
func TestFormatV2SnapshotRecompiles(t *testing.T) {
	patterns := []string{"v2snap[a-f]+x", "old[a-f][0-9]", "[a-f][0-9]z"}
	body := `{"patterns":["v2snap[a-f]+x","old[a-f][0-9]","[a-f][0-9]z"],"input":"v2snapabcx old7 e5z"}`
	old, err := os.ReadFile("testdata/v2.bgsnap")
	if err != nil {
		t.Fatal(err)
	}
	var se *bitgen.SnapshotError
	if _, err := bitgen.DecodeEngine(old, nil); !errors.As(err, &se) || se.Reason != snapshot.ReasonVersion {
		t.Fatalf("decoding the v2 snapshot: want %s, got %v", snapshot.ReasonVersion, err)
	}

	dir := t.TempDir()
	s, hs := newTestServer(t, Config{SnapshotDir: dir})
	opts := s.engineOptions(false)
	key := bitgen.PatternSetKey(patterns, &opts)
	path := filepath.Join(dir, key+snapshot.Ext)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	code, got, er := postMatch(t, hs.URL, body)
	if code != http.StatusOK || got.Set != key {
		t.Fatalf("match over a v2 snapshot: status %d, set %.12s (want %.12s): %+v", code, got.Set, key, er)
	}
	want := []jsonMatch{{Pattern: "v2snap[a-f]+x", Index: 0, End: 9}, {Pattern: "[a-f][0-9]z", Index: 2, End: 18}}
	if err := sameMatches(got.Matches, want); err != nil {
		t.Fatal(err)
	}
	snap := s.Metrics().Snapshot()
	for name, n := range map[string]float64{
		`bitgen_snapshot_verify_failures_total{reason="version-mismatch"}`: 1,
		"bitgen_snapshot_quarantines_total":                                1,
		"bitgen_snapshot_loads_total":                                      0,
		"bitgen_serve_engine_compiles_total":                               1,
		"bitgen_snapshot_saves_total":                                      1,
	} {
		if got := snap.Counter(name); got != n {
			t.Errorf("%s = %v, want %v", name, got, n)
		}
	}
	if _, err := os.Stat(path + snapshot.BadExt); err != nil {
		t.Errorf("the v2 file was not quarantined: %v", err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := bitgen.DecodeEngine(saved, &opts)
	if err != nil {
		t.Fatalf("the re-saved snapshot: %v", err)
	}
	if eng.Patterns()[0] != patterns[0] {
		t.Fatalf("the re-saved snapshot holds %q", eng.Patterns())
	}
}

// TestSnapshotOptionsMismatchRefusedNotQuarantined: a snapshot that does
// not fit the request is never condemned. Under drifted base options the
// set hashes to another key, so the old file is never even addressed; a
// file cross-wired under another set's key decodes but fails the
// content-address check, which refuses it without quarantine and serves
// the set by compiling it.
func TestSnapshotOptionsMismatchRefusedNotQuarantined(t *testing.T) {
	noSidecars := func(t *testing.T, dir string) {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if filepath.Ext(e.Name()) == snapshot.BadExt {
				t.Errorf("quarantine sidecar %s exists, want none", e.Name())
			}
		}
	}

	t.Run("options-drift", func(t *testing.T) {
		dir := t.TempDir()
		body := `{"patterns":["optmis+"],"input":"optmiss"}`
		s1, hs1 := newTestServer(t, Config{SnapshotDir: dir})
		code, old, _ := postMatch(t, hs1.URL, body)
		if code != http.StatusOK {
			t.Fatal("cold match failed")
		}
		hs1.Close()
		s1.Close()

		cfg := Config{SnapshotDir: dir}
		cfg.Engine.Device = "H100 NVL" // compile-relevant drift
		s2, hs2 := newTestServer(t, cfg)
		if code, _, _ := postMatch(t, hs2.URL, body); code != http.StatusOK {
			t.Fatal("match under drifted options failed")
		}
		snap := s2.Metrics().Snapshot()
		refusals := 0.0
		for k, v := range snap.Counters {
			if strings.HasPrefix(k, "bitgen_snapshot_verify_failures_total") {
				refusals += v
			}
		}
		if refusals != 0 {
			t.Errorf("verify failures = %v, want 0 (the old file is never addressed)", refusals)
		}
		if n := snap.Counter("bitgen_snapshot_quarantines_total"); n != 0 {
			t.Errorf("quarantines = %v, want 0", n)
		}
		if n := snap.Counter("bitgen_serve_engine_compiles_total"); n != 1 {
			t.Errorf("compiles = %v, want 1", n)
		}
		if _, err := os.Stat(filepath.Join(dir, old.Set+snapshot.Ext)); err != nil {
			t.Errorf("the first configuration's snapshot is gone: %v", err)
		}
		noSidecars(t, dir)
	})

	t.Run("cross-wired", func(t *testing.T) {
		dir := t.TempDir()
		bodyA := `{"patterns":["crossa+"],"input":"crossaa crossb"}`
		bodyB := `{"patterns":["crossb[0-9]?"],"input":"crossaa crossb7"}`
		s1, hs1 := newTestServer(t, Config{SnapshotDir: dir})
		_, a, _ := postMatch(t, hs1.URL, bodyA)
		code, want, _ := postMatch(t, hs1.URL, bodyB)
		if code != http.StatusOK || a.Set == "" {
			t.Fatal("cold matches failed")
		}
		hs1.Close()
		s1.Close()
		raw, err := os.ReadFile(filepath.Join(dir, a.Set+snapshot.Ext))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, want.Set+snapshot.Ext), raw, 0o644); err != nil {
			t.Fatal(err)
		}

		s2, hs2 := newTestServer(t, Config{SnapshotDir: dir})
		code, got, er := postMatch(t, hs2.URL, bodyB)
		if code != http.StatusOK {
			t.Fatalf("cross-wired set: status %d: %+v", code, er)
		}
		if err := sameMatches(got.Matches, want.Matches); err != nil {
			t.Fatalf("cross-wired set served the wrong engine: %v", err)
		}
		snap := s2.Metrics().Snapshot()
		if n := snap.Counter(`bitgen_snapshot_verify_failures_total{reason="key-mismatch"}`); n != 1 {
			t.Errorf("verify_failures{key-mismatch} = %v, want 1", n)
		}
		if n := snap.Counter("bitgen_snapshot_quarantines_total"); n != 0 {
			t.Errorf("quarantines = %v, want 0 (a negotiation refusal keeps the file)", n)
		}
		if n := snap.Counter("bitgen_serve_engine_compiles_total"); n != 1 {
			t.Errorf("compiles = %v, want 1", n)
		}
		noSidecars(t, dir)
	})
}

// TestResidentBytesGauge: the resident-bytes gauge equals the sum of the
// cached engines' own ResidentBytes after every request, across two
// evictions.
func TestResidentBytesGauge(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxCachedEngines: 2})
	residentOf := func() float64 {
		return s.Metrics().Snapshot().Gauges["bitgen_serve_engine_cache_resident_bytes"]
	}
	enginesBytes := func() int64 {
		s.cache.mu.Lock()
		defer s.cache.mu.Unlock()
		var sum int64
		for _, e := range s.cache.entries {
			select {
			case <-e.ready:
				if e.err == nil {
					sum += e.eng.ResidentBytes()
				}
			default:
			}
		}
		return sum
	}
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"patterns":["res%dident"],"input":"res%didentx"}`, i, i)
		if code, _, _ := postMatch(t, hs.URL, body); code != http.StatusOK {
			t.Fatalf("request %d failed", i)
		}
		if got, want := residentOf(), float64(enginesBytes()); got != want {
			t.Fatalf("after request %d: resident gauge = %v, engines' ResidentBytes = %v", i, got, want)
		}
	}
	snap := s.Metrics().Snapshot()
	if n := snap.Counter("bitgen_serve_engine_cache_evictions_total"); n != 2 {
		t.Fatalf("evictions = %v, want 2", n)
	}
	if g := residentOf(); g <= 0 {
		t.Fatalf("resident bytes = %v, want > 0 with 2 cached engines", g)
	}
}

// TestOverlappingCachedEnginesChargedSeparately: two cached engines whose
// sets share a pattern are each charged their full ResidentBytes, and each
// eviction lowers the gauge by exactly the evicted engine's bytes.
func TestOverlappingCachedEnginesChargedSeparately(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxCachedEngines: 2})
	post := func(patterns string) {
		t.Helper()
		body := fmt.Sprintf(`{"patterns":[%s],"input":"abcabcx"}`, patterns)
		if code, _, er := postMatch(t, hs.URL, body); code != http.StatusOK {
			t.Fatalf("request %s failed: %d %v", patterns, code, er)
		}
	}
	residentOf := func() float64 {
		return s.Metrics().Snapshot().Gauges["bitgen_serve_engine_cache_resident_bytes"]
	}
	// bytesOf finds the cached engine holding the distinguishing pattern.
	bytesOf := func(distinct string) int64 {
		t.Helper()
		s.cache.mu.Lock()
		defer s.cache.mu.Unlock()
		for _, e := range s.cache.entries {
			for _, p := range e.patterns {
				if p == distinct {
					return e.eng.ResidentBytes()
				}
			}
		}
		t.Fatalf("no cached engine holds %q", distinct)
		return 0
	}

	post(`"abcabc","xyzxyz"`)
	post(`"abcabc","qrsqrs"`)
	b1, b2 := bytesOf("xyzxyz"), bytesOf("qrsqrs")
	if b1 <= 0 || b2 <= 0 {
		t.Fatalf("ResidentBytes = %d and %d, want both > 0", b1, b2)
	}
	if got, want := residentOf(), float64(b1+b2); got != want {
		t.Fatalf("resident gauge = %v, want both engines in full = %v", got, want)
	}

	// Evicting the first engine (LRU) uncharges exactly its bytes; the
	// second engine, sharing "abcabc", stays charged in full.
	before := residentOf()
	post(`"mmmnnn"`)
	b3 := bytesOf("mmmnnn")
	if got, want := residentOf(), before-float64(b1)+float64(b3); got != want {
		t.Fatalf("after first evict: resident gauge = %v, want %v", got, want)
	}
	before = residentOf()
	post(`"pppooo"`)
	b4 := bytesOf("pppooo")
	if got, want := residentOf(), before-float64(b2)+float64(b4); got != want {
		t.Fatalf("after second evict: resident gauge = %v, want %v", got, want)
	}
}

// TestSnapshotPeerFetch: a replica that must build a set it does not own
// (a received forward) fetches the owner's snapshot over /v1/snapshot
// instead of compiling, and persists it locally (save-behind).
func TestSnapshotPeerFetch(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	servers := make([]*Server, 2)
	urls := make([]string, 2)
	for i := range servers {
		servers[i] = mustNew(t, Config{SnapshotDir: dirs[i]})
		hs := httptest.NewServer(servers[i].Handler())
		urls[i] = hs.URL
		i := i
		t.Cleanup(func() { hs.Close(); servers[i].Close() })
	}
	for i := range servers {
		if err := servers[i].EnableCluster(cluster.Config{
			Self: urls[i], Peers: urls, Seed: uint64(31 + i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	pats := findPatterns(t, servers[0], urls[0], "")
	input := "zz" + pats[0] + "yy"
	body := matchBody(pats, input)

	// Owner compiles and persists.
	code, want, _ := postMatch(t, urls[0], body)
	if code != http.StatusOK {
		t.Fatalf("owner match: status %d", code)
	}

	// Hit the non-owner as a forwarded request: it must serve locally,
	// building the engine — via peer snapshot fetch, not compilation.
	req, err := http.NewRequest(http.MethodPost, urls[1]+"/v1/match", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.HeaderForwarded, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded match on non-owner: status %d: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), want.Set) {
		t.Errorf("non-owner response missing set key: %s", raw)
	}

	snap := servers[1].Metrics().Snapshot()
	if n := snap.Counter("bitgen_snapshot_peer_fetches_total"); n != 1 {
		t.Errorf("peer fetches = %v, want 1", n)
	}
	if n := snap.Counter("bitgen_serve_engine_compiles_total"); n != 0 {
		t.Errorf("non-owner compiles = %v, want 0 (snapshot fetched from owner)", n)
	}
	if _, err := os.Stat(filepath.Join(dirs[1], want.Set+snapshot.Ext)); err != nil {
		t.Errorf("fetched snapshot not persisted locally (save-behind): %v", err)
	}
}

// TestSnapshotPeerFetchMissCompiles: when no peer has the snapshot, the
// build falls through to a local compile — a fetch miss is never an error.
func TestSnapshotPeerFetchMissCompiles(t *testing.T) {
	servers, urls, _ := bootCluster(t, 2, nil)
	pats := findPatterns(t, servers[0], urls[0], "")
	body := matchBody(pats, pats[0])

	req, err := http.NewRequest(http.MethodPost, urls[1]+"/v1/match", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.HeaderForwarded, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded match: status %d", resp.StatusCode)
	}
	snap := servers[1].Metrics().Snapshot()
	if n := snap.Counter("bitgen_serve_engine_compiles_total"); n != 1 {
		t.Errorf("compiles = %v, want 1 (owner had no snapshot either)", n)
	}
	if n := snap.Counter("bitgen_snapshot_peer_fetch_errors_total"); n != 0 {
		t.Errorf("peer fetch errors = %v, want 0 (a 404 is a clean miss)", n)
	}
}

// TestSnapshotEndpointValidation: /v1/snapshot refuses bad keys and
// methods, 404s unknown sets, and serves verified bytes for cached ones.
func TestSnapshotEndpointValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	get := func(path string) int {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/v1/snapshot?set=../../etc/passwd"); code != http.StatusBadRequest {
		t.Errorf("traversal key: status %d, want 400", code)
	}
	if code := get("/v1/snapshot?set=" + strings.Repeat("ab", 32)); code != http.StatusNotFound {
		t.Errorf("unknown key: status %d, want 404", code)
	}

	code, mr, _ := postMatch(t, hs.URL, `{"patterns":["endpt+"],"input":"endptt"}`)
	if code != http.StatusOK {
		t.Fatal("match failed")
	}
	resp, err := http.Get(hs.URL + "/v1/snapshot?set=" + mr.Set)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached set snapshot: status %d", resp.StatusCode)
	}
	if err := snapshot.Verify(data); err != nil {
		t.Errorf("served snapshot fails verification: %v", err)
	}
}
