package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bitgen"
	"bitgen/internal/cluster"
	"bitgen/internal/faultinject"
)

// bootCluster starts n in-process replicas with cluster routing enabled.
// Every replica gets its own seeded injector so tests can arm network
// faults on a single node's transport.
func bootCluster(t *testing.T, n int, mutate func(i int, cc *cluster.Config)) ([]*Server, []string, []*faultinject.Injector) {
	t.Helper()
	servers := make([]*Server, n)
	https := make([]*httptest.Server, n)
	urls := make([]string, n)
	injs := make([]*faultinject.Injector, n)
	for i := range servers {
		servers[i] = mustNew(t, Config{})
		https[i] = httptest.NewServer(servers[i].Handler())
		urls[i] = https[i].URL
		injs[i] = faultinject.New(uint64(1000 + i))
	}
	t.Cleanup(func() {
		for i := range servers {
			https[i].Close()
			servers[i].Close()
		}
	})
	for i := range servers {
		cc := cluster.Config{
			Self:   urls[i],
			Peers:  urls,
			Seed:   uint64(77 + i),
			Inject: injs[i],
		}
		if mutate != nil {
			mutate(i, &cc)
		}
		if err := servers[i].EnableCluster(cc); err != nil {
			t.Fatal(err)
		}
	}
	return servers, urls, injs
}

// findPatterns searches for a single-pattern set whose key is owned by
// ownerURL (and, when succURL != "", whose warm standby is succURL). All
// ring views agree, so any server's router can answer.
func findPatterns(t *testing.T, s *Server, ownerURL, succURL string, more ...string) []string {
	t.Helper()
	for i := 0; i < 8192; i++ {
		pats := append([]string{fmt.Sprintf("clu%dster", i)}, more...)
		opts := s.engineOptions(false)
		key := bitgen.PatternSetKey(pats, &opts)
		rt := s.Cluster().Route(key)
		if rt.Owner == ownerURL && (succURL == "" || rt.Successor == succURL) {
			return pats
		}
	}
	t.Fatalf("no key found owned by %s with successor %s", ownerURL, succURL)
	return nil
}

func hostOf(url string) string { return strings.TrimPrefix(url, "http://") }

func matchBody(pats []string, input string) string {
	b, _ := json.Marshal(matchRequest{Patterns: pats, Input: input})
	return string(b)
}

// TestClusterForwardsToOwner: a request landing on a non-owner replica is
// forwarded to the key's ring owner; the sender never compiles the set.
func TestClusterForwardsToOwner(t *testing.T) {
	servers, urls, _ := bootCluster(t, 3, nil)
	pats := findPatterns(t, servers[0], urls[1], "")
	input := "zz" + pats[0] + "zz"

	code, mr, er := postMatch(t, urls[0], matchBody(pats, input))
	if code != http.StatusOK {
		t.Fatalf("forwarded match: status %d (%+v)", code, er)
	}
	if len(mr.Matches) != 1 || mr.Counts[pats[0]] != 1 {
		t.Errorf("forwarded match result = %+v, want exactly one match", mr)
	}

	s0 := servers[0].Metrics().Snapshot()
	s1 := servers[1].Metrics().Snapshot()
	fwdKey := fmt.Sprintf("bitgen_cluster_forwards_total{peer=%q}", hostOf(urls[1]))
	if got := s0.Counter(fwdKey); got != 1 {
		t.Errorf("sender forwards = %v, want 1", got)
	}
	if got := s0.Counter("bitgen_serve_engine_compiles_total"); got != 0 {
		t.Errorf("sender compiled %v engines, want 0 (owner does the work)", got)
	}
	if got := s1.Counter("bitgen_cluster_received_forwards_total"); got != 1 {
		t.Errorf("owner received forwards = %v, want 1", got)
	}
	if got := s1.Counter("bitgen_serve_engine_compiles_total"); got != 1 {
		t.Errorf("owner compiles = %v, want 1", got)
	}

	// The same request sent straight to the owner is a local serve.
	code, _, _ = postMatch(t, urls[1], matchBody(pats, input))
	if code != http.StatusOK {
		t.Fatalf("owner-local match: status %d", code)
	}
	if got := servers[1].Metrics().Snapshot().Counter("bitgen_cluster_local_serves_total"); got != 1 {
		t.Errorf("owner local serves = %v, want 1", got)
	}
}

// TestClusterFailoverAndDegraded walks the peer breakers end to end: a
// refused owner fails over to the warm standby; with both candidates
// partitioned the routing node serves locally (degraded), and its answer
// is differentially identical to a single-node server's.
func TestClusterFailoverAndDegraded(t *testing.T) {
	servers, urls, injs := bootCluster(t, 3, nil)
	// A key owned by replica 1 whose standby is replica 2: replica 0 is
	// a pure router for it.
	pats := findPatterns(t, servers[0], urls[1], urls[2])
	input := "a" + pats[0] + "b" + pats[0]

	// Phase 1: owner refuses once; the forward fails over to the standby.
	injs[0].ArmNth(faultinject.PeerRefuse.For(hostOf(urls[1])), 1)
	code, mr, er := postMatch(t, urls[0], matchBody(pats, input))
	if code != http.StatusOK {
		t.Fatalf("failover match: status %d (%+v)", code, er)
	}
	if mr.Counts[pats[0]] != 2 {
		t.Errorf("failover Counts = %v, want 2", mr.Counts)
	}
	s0 := servers[0].Metrics().Snapshot()
	failKey := fmt.Sprintf("bitgen_cluster_forward_errors_total{peer=%q}", hostOf(urls[1]))
	if got := s0.Counter(failKey); got != 1 {
		t.Errorf("owner forward errors = %v, want 1", got)
	}
	if got := servers[2].Metrics().Snapshot().Counter("bitgen_cluster_received_forwards_total"); got != 1 {
		t.Errorf("standby received forwards = %v, want 1", got)
	}

	// Phase 2: partition replica 0 from both candidates. The request must
	// still succeed — served locally, counted as a degraded serve.
	injs[0].Arm(faultinject.PeerPartition.For(hostOf(urls[1])), faultinject.Spec{Nth: 1, Repeat: true})
	injs[0].Arm(faultinject.PeerPartition.For(hostOf(urls[2])), faultinject.Spec{Nth: 1, Repeat: true})
	code, degraded, er := postMatch(t, urls[0], matchBody(pats, input))
	if code != http.StatusOK {
		t.Fatalf("degraded match: status %d (%+v)", code, er)
	}
	if got := servers[0].Metrics().Snapshot().Counter("bitgen_cluster_degraded_serves_total"); got != 1 {
		t.Errorf("degraded serves = %v, want 1", got)
	}

	// Differential check: a plain single-node server must agree exactly.
	_, solo := newTestServer(t, Config{})
	code, want, _ := postMatch(t, solo.URL, matchBody(pats, input))
	if code != http.StatusOK {
		t.Fatalf("single-node reference: status %d", code)
	}
	if len(degraded.Matches) != len(want.Matches) {
		t.Fatalf("degraded matches = %v, single-node = %v", degraded.Matches, want.Matches)
	}
	for i := range want.Matches {
		if degraded.Matches[i] != want.Matches[i] {
			t.Errorf("degraded match %d = %v, single-node %v", i, degraded.Matches[i], want.Matches[i])
		}
	}
}

// TestClusterStandbyServe: when this node is a key's warm standby and the
// owner is down, it serves locally and counts a standby serve (not a
// degraded one — the ring planned for this).
func TestClusterStandbyServe(t *testing.T) {
	servers, urls, injs := bootCluster(t, 3, nil)
	pats := findPatterns(t, servers[0], urls[1], urls[0])
	injs[0].Arm(faultinject.PeerRefuse.For(hostOf(urls[1])), faultinject.Spec{Nth: 1, Repeat: true})

	code, mr, er := postMatch(t, urls[0], matchBody(pats, "x"+pats[0]+"y"))
	if code != http.StatusOK {
		t.Fatalf("standby match: status %d (%+v)", code, er)
	}
	if mr.Counts[pats[0]] != 1 {
		t.Errorf("standby Counts = %v, want 1", mr.Counts)
	}
	snap := servers[0].Metrics().Snapshot()
	if got := snap.Counter("bitgen_cluster_standby_serves_total"); got != 1 {
		t.Errorf("standby serves = %v, want 1", got)
	}
	if got := snap.Counter("bitgen_cluster_degraded_serves_total"); got != 0 {
		t.Errorf("degraded serves = %v, want 0 (standby is planned capacity)", got)
	}
}

// TestClusterScanForward: a streaming /v1/scan is forwarded to the owner
// and relayed line-by-line; output matches a single-node scan exactly.
func TestClusterScanForward(t *testing.T) {
	servers, urls, injs := bootCluster(t, 3, nil)
	pats := findPatterns(t, servers[0], urls[1], urls[2])
	input := strings.Repeat("xx"+pats[0], 5)
	scanURL := func(base string) string { return base + "/v1/scan?pattern=" + pats[0] }

	readAll := func(url string) (int, string) {
		resp, err := http.Post(url, "application/octet-stream", strings.NewReader(input))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	code, got := readAll(scanURL(urls[0]))
	if code != http.StatusOK {
		t.Fatalf("forwarded scan: status %d (%s)", code, got)
	}
	if servers[1].Metrics().Snapshot().Counter("bitgen_cluster_received_forwards_total") != 1 {
		t.Error("owner never received the scan forward")
	}
	_, solo := newTestServer(t, Config{})
	code, want := readAll(scanURL(solo.URL))
	if code != http.StatusOK {
		t.Fatalf("single-node scan: status %d", code)
	}
	if got != want {
		t.Errorf("forwarded scan output differs from single-node:\n got: %q\nwant: %q", got, want)
	}

	// Partition both candidates: the scan degrades to a local serve with
	// identical output (the buffered body is replayed locally).
	injs[0].Arm(faultinject.PeerPartition.For(hostOf(urls[1])), faultinject.Spec{Nth: 1, Repeat: true})
	injs[0].Arm(faultinject.PeerPartition.For(hostOf(urls[2])), faultinject.Spec{Nth: 1, Repeat: true})
	code, degraded := readAll(scanURL(urls[0]))
	if code != http.StatusOK {
		t.Fatalf("degraded scan: status %d", code)
	}
	if degraded != want {
		t.Errorf("degraded scan output differs from single-node:\n got: %q\nwant: %q", degraded, want)
	}
	if servers[0].Metrics().Snapshot().Counter("bitgen_cluster_degraded_serves_total") != 1 {
		t.Error("degraded scan not counted")
	}
}

// TestClusterScanMidStreamDrop: a relayed scan whose peer connection is
// cut mid-stream must end with whole JSON lines and a clean error
// trailer — never a torn record.
func TestClusterScanMidStreamDrop(t *testing.T) {
	servers, urls, injs := bootCluster(t, 3, func(i int, cc *cluster.Config) {
		cc.DropAfter = 100
	})
	pats := findPatterns(t, servers[0], urls[1], urls[2])
	// Enough matches that the NDJSON body far exceeds the 100-byte cut.
	input := strings.Repeat("x"+pats[0], 64)
	// Drop both candidates' streams so failover cannot mask the cut.
	injs[0].ArmNth(faultinject.PeerDrop.For(hostOf(urls[1])), 1)
	injs[0].ArmNth(faultinject.PeerDrop.For(hostOf(urls[2])), 1)

	resp, err := http.Post(urls[0]+"/v1/scan?pattern="+pats[0],
		"application/octet-stream", strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 2 {
		t.Fatalf("relayed output too short: %q", raw)
	}
	for _, l := range lines[:len(lines)-1] {
		var m jsonMatch
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("torn relayed line %q: %v", l, err)
		}
	}
	var tr scanTrailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
		t.Fatalf("trailer line %q: %v", lines[len(lines)-1], err)
	}
	if tr.Done || !strings.Contains(tr.Error, "relay interrupted") {
		t.Errorf("trailer = %+v, want interrupted-relay error", tr)
	}
}

// TestClusterBreakerOpensAndSkips: repeated failures open the dead peer's
// breaker; later requests skip it without paying a connection attempt,
// and /v1/cluster reports the open state.
func TestClusterBreakerOpensAndSkips(t *testing.T) {
	servers, urls, injs := bootCluster(t, 3, func(i int, cc *cluster.Config) {
		cc.BreakerThreshold = 2
		cc.BreakerCooldown = time.Hour // stays open for the whole test
	})
	pats := findPatterns(t, servers[0], urls[1], urls[2])
	injs[0].Arm(faultinject.PeerRefuse.For(hostOf(urls[1])), faultinject.Spec{Nth: 1, Repeat: true})

	body := matchBody(pats, pats[0])
	for i := 0; i < 4; i++ {
		if code, _, er := postMatch(t, urls[0], body); code != http.StatusOK {
			t.Fatalf("request %d: status %d (%+v)", i, code, er)
		}
	}
	snap := servers[0].Metrics().Snapshot()
	failKey := fmt.Sprintf("bitgen_cluster_forward_errors_total{peer=%q}", hostOf(urls[1]))
	skipKey := fmt.Sprintf("bitgen_cluster_peer_skips_total{peer=%q}", hostOf(urls[1]))
	if got := snap.Counter(failKey); got != 2 {
		t.Errorf("forward errors = %v, want 2 (threshold opens the breaker)", got)
	}
	if got := snap.Counter(skipKey); got != 2 {
		t.Errorf("peer skips = %v, want 2 (remaining requests skip the open peer)", got)
	}

	resp, err := http.Get(urls[0] + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view struct {
		Self  string `json:"self"`
		Nodes []string
		Peers []struct {
			URL   string `json:"url"`
			State string `json:"state"`
		} `json:"peers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Self != urls[0] {
		t.Errorf("cluster view self = %q, want %q", view.Self, urls[0])
	}
	found := false
	for _, p := range view.Peers {
		if p.URL == urls[1] {
			found = true
			if p.State != "open" {
				t.Errorf("dead peer state = %q, want open", p.State)
			}
		}
	}
	if !found {
		t.Errorf("dead peer missing from /v1/cluster view: %+v", view.Peers)
	}
}

// TestClusterEndpointDisabled: without EnableCluster the endpoint 404s
// and requests never consult a router.
func TestClusterEndpointDisabled(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, err := http.Get(hs.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/v1/cluster without cluster mode: %d, want 404", resp.StatusCode)
	}
}
