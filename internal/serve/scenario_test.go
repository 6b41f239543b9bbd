package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bitgen"
	"bitgen/internal/cluster"
	"bitgen/internal/faultinject"
	"bitgen/internal/obs"
	"bitgen/internal/snapshot"
)

// The four acceptance scenarios of the serving stack: the whole request
// surface of one server, the cluster under kill and partition, the
// snapshot fault matrix, and distributed observability. Each boots real
// servers on loopback listeners; `make serve-smoke`, `cluster-smoke`,
// `snapshot-smoke` and `obs-cluster-smoke` run them one at a time.

// obsOut, when set, receives TestObsClusterSelfTest's stitched.json and
// node 0's /metrics exposition (metrics.txt) so
// `make obs-cluster-smoke` can hand both to cmd/obscheck.
var obsOut = flag.String("obs-out", "", "directory that receives TestObsClusterSelfTest's stitched.json and metrics.txt")

// send posts body (or GETs when method says so) and returns the status,
// the whole response body and the response headers.
func send(client *http.Client, method, url, contentType, body string, hdr map[string]string) (int, []byte, http.Header, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, resp.Header, err
}

// sameMatches compares two wire match lists element by element.
func sameMatches(got, want []jsonMatch) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("match %d = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// TestSelfTest exercises the full request surface of one server: match
// (cold compile, then warm cache hit, duplicate patterns, nullable
// end-of-input), streaming scan, metrics, graceful drain, and a restart
// from snapshot — a second server booted on the same snapshot directory
// must answer its first request from the persisted file with zero compiles.
func TestSelfTest(t *testing.T) {
	cfg := Config{SnapshotDir: t.TempDir()}
	srv, hs := newTestServer(t, cfg)
	client := &http.Client{Timeout: 30 * time.Second}
	get := func(url string) (int, []byte) {
		t.Helper()
		code, body, _, err := send(client, http.MethodGet, url, "", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		return code, body
	}

	// 1. Cold match: compiles the set. Duplicate pattern + nullable
	// pattern exercise both semantics fixes through the wire format.
	reqBody := `{"patterns":["abc","a?","abc"],"input":"zabcz"}`
	code, mr, er := postMatch(t, hs.URL, reqBody)
	if code != http.StatusOK {
		t.Fatalf("match: status %d: %+v", code, er)
	}
	if mr.Cache != "miss" {
		t.Fatalf("match: first request should miss the cache, got %q", mr.Cache)
	}
	// "abc" at indexes 0 and 2 ends at 3 (twice); "a?" matches the empty
	// string at every offset 0..5 plus position 2 via 'a' (end set is
	// {0,1,2,3,4,5}); index_counts = [1, 6, 1].
	wantIdx := []int{1, 6, 1}
	sameIdx := func(got []int) bool {
		return len(got) == 3 && got[0] == wantIdx[0] && got[1] == wantIdx[1] && got[2] == wantIdx[2]
	}
	if !sameIdx(mr.IndexCounts) {
		t.Fatalf("match: index_counts = %v, want %v", mr.IndexCounts, wantIdx)
	}
	eofSeen := false
	for _, m := range mr.Matches {
		if m.Pattern == "a?" && m.End == 5 {
			eofSeen = true
		}
	}
	if !eofSeen {
		t.Fatalf("match: nullable end-of-input match (a? at end 5) missing: %v", mr.Matches)
	}
	t.Logf("match ok: %d matches, set %s", len(mr.Matches), mr.Set[:12])

	// 2. Warm match: same set must hit the cache (no recompile).
	code, mr, er = postMatch(t, hs.URL, reqBody)
	if code != http.StatusOK {
		t.Fatalf("warm match: status %d: %+v", code, er)
	}
	if mr.Cache != "hit" {
		t.Fatalf("warm match: want cache hit, got %q", mr.Cache)
	}
	if got := srv.Metrics().Snapshot().Counter("bitgen_serve_engine_compiles_total"); got != 1 {
		t.Fatalf("warm cache should not recompile: compiles = %v, want 1", got)
	}
	t.Log("warm cache ok: 1 compile, second request hit")

	// 3. Streaming scan: NDJSON lines plus a done trailer.
	code, body, _, err := send(client, http.MethodPost, hs.URL+"/v1/scan?pattern=needle&chunk=7",
		"application/octet-stream", "hayneedlehay needle tail", nil)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if code != http.StatusOK {
		t.Fatalf("scan: status %d: %s", code, body)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("scan: want 2 match lines + trailer, got %d lines: %s", len(lines), body)
	}
	var tr scanTrailer
	if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil {
		t.Fatalf("scan: trailer: %v", err)
	}
	if !tr.Done || tr.Matches != 2 {
		t.Fatalf("scan: trailer %+v, want done with 2 matches", tr)
	}
	t.Log("scan ok: 2 matches streamed across chunk boundaries")

	// 4. Metrics: the request-latency histogram counts both endpoints'
	// traffic (2 matches, 1 scan). withObs observes after the handler
	// returns, which can be after the client read the reply: poll briefly.
	var metricsBody []byte
	for deadline := time.Now().Add(2 * time.Second); ; {
		_, metricsBody = get(hs.URL + "/metrics")
		if bytes.Contains(metricsBody, []byte(`bitgen_serve_request_seconds_count{endpoint="match"} 2`+"\n")) &&
			bytes.Contains(metricsBody, []byte(`bitgen_serve_request_seconds_count{endpoint="scan"} 1`+"\n")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics does not count 2 match and 1 scan requests:\n%s", metricsBody)
		}
		time.Sleep(time.Millisecond)
	}
	if !bytes.Contains(metricsBody, []byte("bitgen_serve_batches_total 2\n")) {
		t.Fatalf("/metrics does not count 2 executed matches:\n%s", metricsBody)
	}
	t.Log("metrics ok: request_seconds counts 2 matches and 1 scan")

	// 5. Graceful drain: healthz flips to 503, in-flight work finishes,
	// new requests are rejected.
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code, _ := get(hs.URL + "/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: status %d, want 503", code)
	}
	if code, _, _ := postMatch(t, hs.URL, reqBody); code != http.StatusServiceUnavailable {
		t.Fatalf("match after drain: status %d, want 503", code)
	}
	t.Log("drain ok: healthz 503, new requests rejected")

	// 6. Restart: a second server booted on the same snapshot directory
	// misses its cache on the first request and serves the set from the
	// persisted snapshot — one load, zero compiles.
	srv2, hs2 := newTestServer(t, cfg)
	code, mr, er = postMatch(t, hs2.URL, reqBody)
	if code != http.StatusOK {
		t.Fatalf("restart: match status %d: %+v", code, er)
	}
	if mr.Cache != "miss" {
		t.Fatalf("restart: first request cache = %q, want miss", mr.Cache)
	}
	if !sameIdx(mr.IndexCounts) {
		t.Fatalf("restart: index_counts = %v, want %v", mr.IndexCounts, wantIdx)
	}
	restartSnap := srv2.Metrics().Snapshot()
	if got := restartSnap.Counter("bitgen_serve_engine_compiles_total"); got != 0 {
		t.Fatalf("restart: compiles = %v, want 0", got)
	}
	if got := restartSnap.Counter("bitgen_snapshot_loads_total"); got != 1 {
		t.Fatalf("restart: snapshot loads = %v, want 1", got)
	}
	t.Log("restart ok: restarted server answered identically from the snapshot with zero compiles")
}

// TestClusterSelfTest is the cluster acceptance scenario. It boots three
// replicas, proves routing and differential correctness, kills one
// replica mid-load and requires zero failed requests once the victim's
// breakers settle, then partitions a surviving pair so the degraded
// local-serve path (cluster.degraded_serves) demonstrably fires — and
// still answers byte-identically to a single-node server.
func TestClusterSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster scenario")
	}
	const (
		breakerThreshold = 2
		breakerCooldown  = 300 * time.Millisecond
	)
	injs := make([]*faultinject.Injector, 3)
	nodes, err := BootCluster(3, Config{}, func(i int, cc *cluster.Config) {
		injs[i] = faultinject.New(uint64(42 + i))
		cc.Inject = injs[i]
		cc.BreakerThreshold = breakerThreshold
		cc.BreakerCooldown = breakerCooldown
		cc.Seed = uint64(7 * (i + 1))
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Kill()
		}
	})

	// A single-node reference server answers every differential check.
	_, ref := newTestServer(t, Config{})

	client := &http.Client{Timeout: 10 * time.Second}
	post := func(base, body string) (int, []byte, error) {
		code, raw, _, err := send(client, http.MethodPost, base+"/v1/match", "application/json", body, nil)
		return code, raw, err
	}
	// check sends one match body to target and the reference node and
	// requires identical match sets.
	check := func(target, body string) error {
		code, got, err := post(target, body)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("status %d: %s", code, got)
		}
		refCode, want, err := post(ref.URL, body)
		if err != nil || refCode != http.StatusOK {
			return fmt.Errorf("reference: status %d err %v", refCode, err)
		}
		var g, w matchResponse
		if err := json.Unmarshal(got, &g); err != nil {
			return err
		}
		if err := json.Unmarshal(want, &w); err != nil {
			return err
		}
		if err := sameMatches(g.Matches, w.Matches); err != nil {
			return fmt.Errorf("differential mismatch against single-node: %w", err)
		}
		return nil
	}

	// keysByOwner groups generated pattern sets by owning replica.
	router := nodes[0].Server.Cluster()
	keysByOwner := map[string][][]string{}
	opts := nodes[0].Server.engineOptions(false)
	for i := 0; ; i++ {
		if len(keysByOwner[nodes[0].URL]) >= 4 && len(keysByOwner[nodes[1].URL]) >= 4 && len(keysByOwner[nodes[2].URL]) >= 4 {
			break
		}
		pats := []string{fmt.Sprintf("smoke%dpat", i)}
		rt := router.Route(bitgen.PatternSetKey(pats, &opts))
		keysByOwner[rt.Owner] = append(keysByOwner[rt.Owner], pats)
	}
	body := func(pats []string) string { return matchBody(pats, "x"+pats[0]+"y"+pats[0]) }

	// Phase 1: every replica answers every key, differentially correct.
	for _, nd := range nodes {
		for _, sets := range keysByOwner {
			for _, pats := range sets {
				if err := check(nd.URL, body(pats)); err != nil {
					t.Fatalf("phase 1 (healthy cluster) via %s: %v", nd.URL, err)
				}
			}
		}
	}
	t.Log("cluster routing ok: 3 replicas, all keys answer identically to single-node")

	// Phase 2: kill replica 2 abruptly. Its keys' standbys take over; the
	// first few forwards fail while breakers trip, so drive traffic until
	// the victim's breaker opens, then require ZERO failed requests.
	victim := nodes[2]
	victim.Kill()
	t.Logf("killed replica %s", victim.URL)
	survivors := nodes[:2]
	// Settle: push the dead peer's breaker past its threshold from both
	// survivors (these requests may legitimately be slow, not failed —
	// failover hides the crash — but they charge the breaker).
	for _, nd := range survivors {
		for i := 0; i < breakerThreshold+1; i++ {
			for _, pats := range keysByOwner[victim.URL] {
				code, msg, err := post(nd.URL, body(pats))
				if err != nil {
					t.Fatalf("settling via %s: %v", nd.URL, err)
				}
				if code != http.StatusOK {
					t.Fatalf("settling via %s: status %d: %s", nd.URL, code, msg)
				}
			}
		}
	}
	failed, total := 0, 0
	for round := 0; round < 5; round++ {
		for _, nd := range survivors {
			for _, sets := range keysByOwner {
				for _, pats := range sets {
					total++
					if err := check(nd.URL, body(pats)); err != nil {
						failed++
						t.Logf("post-kill failure via %s: %v", nd.URL, err)
					}
				}
			}
		}
	}
	if failed != 0 {
		t.Fatalf("replica kill: %d of %d requests failed after breakers settled", failed, total)
	}
	skips := 0.0
	for k, v := range survivors[0].Server.Metrics().Snapshot().Counters {
		if strings.HasPrefix(k, "bitgen_cluster_peer_skips_total") {
			skips += v
		}
	}
	if skips == 0 {
		t.Fatal("replica kill: breaker never opened (no peer skips recorded)")
	}
	t.Logf("replica kill ok: %d/%d requests served, breaker open (%v skips)", total, total, skips)

	// Phase 3: double fault — on top of the dead replica, partition
	// survivor 0 from survivor 1. Keys owned by the dead replica with
	// survivor 1 as standby now have no reachable candidate from survivor
	// 0: it must compile locally and count a degraded serve.
	partition := faultinject.PeerPartition.For(hostOf(nodes[1].URL))
	injs[0].Arm(partition, faultinject.Spec{Nth: 1, Repeat: true})
	for _, owner := range []string{victim.URL, nodes[1].URL} {
		for _, pats := range keysByOwner[owner] {
			if err := check(nodes[0].URL, body(pats)); err != nil {
				t.Fatalf("degraded serve via %s: %v", nodes[0].URL, err)
			}
		}
	}
	degraded := survivors[0].Server.Metrics().Snapshot().Counter("bitgen_cluster_degraded_serves_total")
	if degraded == 0 {
		t.Fatal("partition: cluster.degraded_serves = 0, want > 0")
	}
	t.Logf("partition ok: %v degraded serves, every answer still correct", degraded)

	// Phase 4: heal the partition and wait out one breaker cooldown; the
	// half-open probe must recover the peer (requests flow remotely again).
	injs[0].Disarm(partition)
	time.Sleep(2 * breakerCooldown)
	recovered := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !recovered {
		for _, pats := range keysByOwner[nodes[1].URL] {
			if err := check(nodes[0].URL, body(pats)); err != nil {
				t.Fatalf("recovery via %s: %v", nodes[0].URL, err)
			}
		}
		for _, h := range nodes[0].Server.Cluster().Health() {
			if h.URL == nodes[1].URL && h.State.String() == "closed" {
				recovered = true
			}
		}
	}
	if !recovered {
		t.Fatal("recovery: peer breaker never closed after the partition healed")
	}
	t.Log("recovery ok: healed peer's breaker closed within one cooldown window")
}

// TestSnapshotSelfTest is the persistence acceptance scenario. It walks
// the crash-safety contract end to end against a real snapshot directory:
// write-behind persistence, a restart served from snapshot with zero
// compiles, and the full injected fault matrix — a flipped byte, a torn write (crash before
// rename), a stale format version, and a short read. Every fault must be
// detected when a request first loads the file, quarantined when the file
// is condemned, and hidden from clients: the request always succeeds via recompile.
func TestSnapshotSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-server persistence scenario")
	}
	dir := t.TempDir()

	type node struct {
		srv  *Server
		base string
		stop func()
	}
	// boot starts a server on dir; stop is idempotent, so phases stop
	// their node before the next one boots and the cleanup covers a Fatal.
	boot := func(inj *faultinject.Injector) *node {
		t.Helper()
		srv := mustNew(t, Config{SnapshotDir: dir, Inject: inj})
		hs := httptest.NewServer(srv.Handler())
		n := &node{srv: srv, base: hs.URL, stop: func() { hs.Close(); srv.Close() }}
		t.Cleanup(n.stop)
		return n
	}
	match := func(n *node, pats []string, input string) (*matchResponse, error) {
		code, mr, er := postMatch(t, n.base, matchBody(pats, input))
		if code != http.StatusOK {
			return nil, fmt.Errorf("status %d: %+v", code, er)
		}
		return &mr, nil
	}
	counter := func(n *node, name string) float64 {
		return n.srv.Metrics().Snapshot().Counter(name)
	}
	reasonCounter := func(n *node, reason string) float64 {
		return counter(n, fmt.Sprintf("bitgen_snapshot_verify_failures_total{reason=%q}", reason))
	}

	pats := []string{"snapsmoke+", "qq?"}
	input := "xsnapsmokexx qq snapsmokee"

	// Phase 1: a cold compile persists its snapshot write-behind.
	a := boot(nil)
	want, err := match(a, pats, input)
	if err != nil {
		t.Fatalf("phase 1 (cold compile): %v", err)
	}
	key := want.Set
	path := filepath.Join(dir, key+snapshot.Ext)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("phase 1: no snapshot persisted at %s: %v", path, err)
	}
	if got := counter(a, "bitgen_snapshot_saves_total"); got != 1 {
		t.Fatalf("phase 1: saves = %v, want 1", got)
	}
	a.stop()
	t.Logf("persist ok: compile wrote %s", key[:12]+snapshot.Ext)

	// Phase 2: flip one byte. The restarted server must detect it when the
	// first request loads the file, quarantine it, and serve the request by
	// recompiling — the client never sees the corruption.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	b := boot(nil)
	got, err := match(b, pats, input)
	if err != nil {
		t.Fatalf("phase 2 (corrupted snapshot): request failed, corruption leaked: %v", err)
	}
	if err := sameMatches(got.Matches, want.Matches); err != nil {
		t.Fatalf("phase 2: recompiled result differs: %v", err)
	}
	if n := reasonCounter(b, snapshot.ReasonCorrupt); n < 1 {
		t.Fatalf("phase 2: verify_failures{corrupt} = %v, want >= 1", n)
	}
	if n := counter(b, "bitgen_snapshot_quarantines_total"); n < 1 {
		t.Fatalf("phase 2: quarantines = %v, want >= 1", n)
	}
	if _, err := os.Stat(path + snapshot.BadExt); err != nil {
		t.Fatalf("phase 2: quarantine sidecar missing: %v", err)
	}
	if got := counter(b, "bitgen_serve_engine_compiles_total"); got != 1 {
		t.Fatalf("phase 2: compiles = %v, want 1 (recompile fallback)", got)
	}
	b.stop()
	t.Log("corruption ok: flipped byte detected, quarantined, served via recompile")

	// Phase 3: restart. The recompile above re-persisted the snapshot; a
	// fresh server's first request misses its cache and is answered from
	// that file with zero compiles.
	c := boot(nil)
	got, err = match(c, pats, input)
	if err != nil {
		t.Fatalf("phase 3 (restart): %v", err)
	}
	if err := sameMatches(got.Matches, want.Matches); err != nil {
		t.Fatalf("phase 3: result served from snapshot differs: %v", err)
	}
	if got.Cache != "miss" {
		t.Fatalf("phase 3: cache = %q, want miss", got.Cache)
	}
	if n := counter(c, "bitgen_snapshot_loads_total"); n != 1 {
		t.Fatalf("phase 3: snapshot loads = %v, want 1", n)
	}
	if n := counter(c, "bitgen_serve_engine_compiles_total"); n != 0 {
		t.Fatalf("phase 3: compiles = %v, want 0", n)
	}
	c.stop()
	t.Log("restart ok: first request answered from snapshot, zero compiles")

	// Phase 4: torn write — the save "crashes" before rename. No file may
	// land at the final path and the request is unaffected (the compiled
	// engine serves it).
	injTorn := faultinject.New(1)
	injTorn.ArmNth(faultinject.SnapTornWrite, 1)
	d := boot(injTorn)
	tornRes, err := match(d, []string{"tornwrite[0-9]"}, "a tornwrite7 b")
	if err != nil {
		t.Fatalf("phase 4 (torn write): %v", err)
	}
	if n := counter(d, "bitgen_snapshot_save_errors_total"); n != 1 {
		t.Fatalf("phase 4: save_errors = %v, want 1", n)
	}
	if _, err := os.Stat(filepath.Join(dir, tornRes.Set+snapshot.Ext)); err == nil {
		t.Fatal("phase 4: torn write left a file at the final path")
	}
	d.stop()
	t.Log("torn write ok: crash-before-rename left no file, request served")

	// Phase 5: stale version — a snapshot stamped with a future format
	// version is saved cleanly but must be refused (version-mismatch, not
	// corrupt) and quarantined when the next boot first loads it.
	injVer := faultinject.New(2)
	injVer.ArmNth(faultinject.SnapStaleVersion, 1)
	e := boot(injVer)
	verPats := []string{"stalever(sion)?"}
	if _, err := match(e, verPats, "stalever stalversion"); err != nil {
		t.Fatalf("phase 5 (stale version): %v", err)
	}
	e.stop()
	f := boot(nil)
	verRes, err := match(f, verPats, "stalever stalversion")
	if err != nil {
		t.Fatalf("phase 5: recompile after version refusal: %v", err)
	}
	if n := reasonCounter(f, snapshot.ReasonVersion); n != 1 {
		t.Fatalf("phase 5: verify_failures{version-mismatch} = %v, want 1", n)
	}
	if _, err := os.Stat(filepath.Join(dir, verRes.Set+snapshot.Ext+snapshot.BadExt)); err != nil {
		t.Fatalf("phase 5: quarantine sidecar missing: %v", err)
	}
	f.stop()
	t.Log("stale version ok: future-version snapshot refused, quarantined, recompiled")

	// Phase 6: short read — a load that returns half the file must be
	// refused as truncated and quarantined; the set still serves.
	injRead := faultinject.New(3)
	injRead.ArmNth(faultinject.SnapShortRead, 1)
	g := boot(injRead)
	got, err = match(g, pats, input)
	if err != nil {
		t.Fatalf("phase 6 (short read): %v", err)
	}
	if n := reasonCounter(g, snapshot.ReasonTruncate); n != 1 {
		t.Fatalf("phase 6: verify_failures{truncated} = %v, want 1", n)
	}
	if err := sameMatches(got.Matches, want.Matches); err != nil {
		t.Fatalf("phase 6: result differs after short read: %v", err)
	}
	g.stop()
	t.Log("short read ok: truncated load refused, set still serves correctly")
}

// TestObsClusterSelfTest is the observability acceptance scenario. It
// boots three replicas, injects a mid-response connection drop on the
// entry node's path to a key's owner, and proves the observability plane
// end to end:
//
//   - one client-supplied trace ID propagates across the failover — the
//     stitched /v1/trace view contains spans from all three nodes under
//     that single ID, including the entry node's forward span naming the
//     successor that actually served and its forward-error decision for
//     the owner;
//   - continuing the fault opens the entry node's breaker for the owner,
//     which its bitgen_cluster_peer_breaker_transitions_total counts;
//   - the entry node's bitgen_serve_request_seconds histogram counts the
//     match traffic served.
//
// With -obs-out the stitched Chrome trace (stitched.json) and node 0's
// /metrics (metrics.txt) are written there for cmd/obscheck.
func TestObsClusterSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster scenario")
	}
	const (
		breakerThreshold = 2
		breakerCooldown  = 300 * time.Millisecond
	)
	injs := make([]*faultinject.Injector, 3)
	nodes, err := BootCluster(3, Config{}, func(i int, cc *cluster.Config) {
		injs[i] = faultinject.New(uint64(42 + i))
		cc.Inject = injs[i]
		cc.BreakerThreshold = breakerThreshold
		cc.BreakerCooldown = breakerCooldown
		cc.DropAfter = 8 // cut the owner's response almost immediately
		cc.Seed = uint64(7 * (i + 1))
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Kill()
		}
	})
	urlIdx := map[string]int{}
	for i, nd := range nodes {
		urlIdx[nd.URL] = i
	}
	client := &http.Client{Timeout: 10 * time.Second}

	// Pick a key whose owner and successor are two different replicas, and
	// enter through the third: the failover path then touches every node.
	router := nodes[0].Server.Cluster()
	opts := nodes[0].Server.engineOptions(false)
	var pats []string
	var owner, successor, entry int
	for i := 0; ; i++ {
		p := []string{fmt.Sprintf("obs%dpat", i)}
		rt := router.Route(bitgen.PatternSetKey(p, &opts))
		if rt.Owner == rt.Successor {
			continue
		}
		oi, si := urlIdx[rt.Owner], urlIdx[rt.Successor]
		entry = 3 - oi - si
		if entry == oi || entry == si {
			continue
		}
		pats, owner, successor = p, oi, si
		break
	}
	body := matchBody(pats, "x"+pats[0]+"y"+pats[0])
	t.Logf("key owner=%s successor=%s entry=%s", nodes[owner].URL, nodes[successor].URL, nodes[entry].URL)
	post := func(url string, hdr map[string]string) (int, []byte, http.Header, error) {
		return send(client, http.MethodPost, url+"/v1/match", "application/json", body, hdr)
	}

	// Warm every replica's engine for the key (the forwarded header makes
	// each serve locally) so the faulted runs measure routing, not
	// compilation.
	for _, nd := range nodes {
		if code, msg, _, err := post(nd.URL, map[string]string{cluster.HeaderForwarded: "1"}); err != nil {
			t.Fatalf("warm via %s: %v", nd.URL, err)
		} else if code != http.StatusOK {
			t.Fatalf("warm via %s: status %d: %s", nd.URL, code, msg)
		}
	}

	// Phase 1: cut the owner's responses to the entry node mid-body, then
	// send one request with a known trace ID. The owner serves fully (and
	// records its span), the entry node's read of the reply fails, and
	// sequential failover reruns the request on the successor — so one
	// trace crosses all three nodes.
	dropPoint := faultinject.PeerDrop.For(hostOf(nodes[owner].URL))
	injs[entry].Arm(dropPoint, faultinject.Spec{Nth: 1, Repeat: true})
	tc := obs.NewTraceContext()
	code, msg, hdr, err := post(nodes[entry].URL, map[string]string{obs.TraceHeader: tc.Header()})
	if err != nil {
		t.Fatalf("faulted request: %v", err)
	}
	if code != http.StatusOK {
		t.Fatalf("faulted request: status %d: %s (failover should have hidden the drop)", code, msg)
	}
	if got := hdr.Get(obs.TraceHeader); !strings.HasPrefix(got, tc.Trace.String()+"-") {
		t.Fatalf("response trace header %q does not continue trace %s", got, tc.Trace.String())
	}

	// Spans are recorded just after each response completes; poll the
	// stitcher until all three nodes' fragments carry the trace.
	urls := []string{nodes[0].URL, nodes[1].URL, nodes[2].URL}
	var st *StitchedTrace
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err = StitchTrace(context.Background(), client, urls, tc.Trace.String())
		if err == nil && len(st.NodesWithSpans()) == 3 {
			break
		}
		if time.Now().After(deadline) {
			n := 0
			if st != nil {
				n = len(st.NodesWithSpans())
			}
			t.Fatalf("stitched trace covers %d/3 nodes (err %v)", n, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	var forwardSpan, forwardErr *obs.Span
	for _, f := range st.Fragments {
		for i := range f.Spans {
			sp := f.Spans[i]
			if sp.Trace != tc.Trace {
				t.Fatalf("span %s/%s carries trace %s, want %s", sp.Node, sp.Name, sp.Trace, tc.Trace.String())
			}
			switch {
			case f.Node != nodes[entry].URL:
			case sp.Name == "forward":
				forwardSpan = &f.Spans[i]
			case sp.Name == "forward-error" && sp.Instant && argOf(&sp, "peer") == hostOf(nodes[owner].URL):
				forwardErr = &f.Spans[i]
			}
		}
	}
	if forwardSpan == nil {
		t.Fatal("no forward span recorded on the entry node")
	}
	if forwardErr == nil {
		t.Fatalf("no forward-error decision for the owner %s under trace %s on the entry node",
			nodes[owner].URL, tc.Trace.String())
	}
	if got := argOf(forwardSpan, "served_by"); got != nodes[successor].URL {
		t.Fatalf("forward span served_by = %q, want the successor %s (failover)", got, nodes[successor].URL)
	}
	chrome, err := st.Chrome()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("trace propagation ok: trace %s spans all 3 nodes, failover served by %s (%d spans)",
		tc.Trace.String(), nodes[successor].URL, st.SpanCount())

	// Phase 2: keep the drop armed and push the owner's failure streak
	// past the breaker threshold. The entry node counts the owner's breaker
	// opening.
	for i := 0; i < breakerThreshold+1; i++ {
		code, msg, _, err := post(nodes[entry].URL, nil)
		if err != nil {
			t.Fatalf("breaker phase: %v", err)
		}
		if code != http.StatusOK {
			t.Fatalf("breaker phase: status %d: %s", code, msg)
		}
	}
	opened := obs.MClusterPeerFlips + `{peer="` + hostOf(nodes[owner].URL) + `",to="open"}`
	if n := nodes[entry].Server.Metrics().Snapshot().Counter(opened); n < 1 {
		t.Fatalf("%s = %v on the entry node, want >= 1", opened, n)
	} else {
		t.Logf("breaker ok: %s = %v", opened, n)
	}

	// Phase 3: the entry node's request-latency histogram counts the match
	// traffic we just served.
	key := obs.MServeRequestSecs + `{endpoint="match"}`
	if n := nodes[entry].Server.Metrics().Snapshot().Histograms[key].Count; n == 0 {
		t.Fatalf("%s counts no requests on the entry node", key)
	} else {
		t.Logf("latency ok: %s counts %d requests", key, n)
	}
	injs[entry].Disarm(dropPoint)

	if *obsOut != "" {
		code, metrics, _, err := send(client, http.MethodGet, nodes[0].URL+"/metrics", "", "", nil)
		if err != nil || code != http.StatusOK {
			t.Fatalf("node 0 /metrics: status %d, err %v", code, err)
		}
		for name, data := range map[string][]byte{"stitched.json": chrome, "metrics.txt": metrics} {
			if err := os.WriteFile(filepath.Join(*obsOut, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
