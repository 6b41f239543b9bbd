package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bitgen/internal/faultinject"
	"bitgen/internal/obs"
)

// fakePeer is an httptest replica that records received forwards.
type fakePeer struct {
	hs       *httptest.Server
	hits     atomic.Int64
	deadline atomic.Value // last HeaderDeadlineMS seen
	delay    atomic.Int64 // nanoseconds to wait before replying
}

func newFakePeer(t *testing.T, reply string, status int) *fakePeer {
	t.Helper()
	p := &fakePeer{}
	p.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.hits.Add(1)
		p.deadline.Store(r.Header.Get(HeaderDeadlineMS))
		time.Sleep(time.Duration(p.delay.Load()))
		if r.Header.Get(HeaderForwarded) != "1" {
			http.Error(w, "missing forwarded header", http.StatusBadRequest)
			return
		}
		w.WriteHeader(status)
		io.WriteString(w, reply)
	}))
	t.Cleanup(p.hs.Close)
	return p
}

func (p *fakePeer) host() string { return strings.TrimPrefix(p.hs.URL, "http://") }

// keyOwnedBy finds a key whose (owner, successor) matches the wanted pair.
func keyOwnedBy(t *testing.T, ring *Ring, owner, successor string) string {
	t.Helper()
	for _, k := range testKeys(4000) {
		o, s := ring.OwnerSuccessor(k)
		if o == owner && (successor == "" || s == successor) {
			return k
		}
	}
	t.Fatalf("no test key with owner %s successor %s", owner, successor)
	return ""
}

func newTestRouter(t *testing.T, cfg Config) (*Router, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	rt, err := New(cfg, &obs.Observer{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return rt, reg
}

// TestRouterForwardsToOwner: a key owned by a remote peer is forwarded
// there with the forwarded marker and a propagated deadline; the local
// and successor peers see nothing, also when the live owner is slow.
func TestRouterForwardsToOwner(t *testing.T) {
	for _, delay := range []time.Duration{0, 60 * time.Millisecond} {
		t.Run(delay.String(), func(t *testing.T) {
			a := newFakePeer(t, `{"ok":1}`, 200)
			a.delay.Store(int64(delay))
			b := newFakePeer(t, `{"ok":2}`, 200)
			self := "http://self.invalid:1"
			rt, reg := newTestRouter(t, Config{
				Self:  self,
				Peers: []string{self, a.hs.URL, b.hs.URL},
			})

			key := keyOwnedBy(t, rt.Ring(), a.hs.URL, b.hs.URL)
			route := rt.Route(key)
			if route.SelfOwner {
				t.Fatal("route should be remote")
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			res, ok := rt.Forward(ctx, route, "/v1/match", "application/json", []byte(`{}`), false)
			if !ok {
				t.Fatal("forward failed")
			}
			if res.Peer != a.hs.URL || string(res.Body) != `{"ok":1}` {
				t.Fatalf("served by %s body %q, want owner a", res.Peer, res.Body)
			}
			if a.hits.Load() != 1 || b.hits.Load() != 0 {
				t.Fatalf("owner hits = %d, successor hits = %d, want 1 and 0", a.hits.Load(), b.hits.Load())
			}
			if dl, _ := a.deadline.Load().(string); dl == "" {
				t.Error("forward carried no propagated deadline")
			}
			snap := reg.Snapshot()
			if got := snap.Counter(obs.MClusterForwards + `{peer="` + a.host() + `"}`); got != 1 {
				t.Errorf("forwards counter = %v, want 1", got)
			}
		})
	}
}

// TestRouterBreakerOpensAndSkips: repeated owner failures open its
// breaker; subsequent forwards skip straight to the successor, and a
// half-open probe after cooldown readmits the recovered owner.
func TestRouterBreakerOpensAndSkips(t *testing.T) {
	owner := newFakePeer(t, `{"ok":1}`, 200)
	succ := newFakePeer(t, `{"ok":2}`, 200)
	self := "http://self.invalid:1"

	now := time.Unix(5000, 0)
	in := faultinject.New(9)
	rt, reg := newTestRouter(t, Config{
		Self:             self,
		Peers:            []string{self, owner.hs.URL, succ.hs.URL},
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Second,
		Inject:           in,
		Now:              func() time.Time { return now },
	})
	// Partition the owner persistently.
	in.Arm(faultinject.PeerPartition.For(owner.host()), faultinject.Spec{Nth: 1, Repeat: true})

	key := keyOwnedBy(t, rt.Ring(), owner.hs.URL, succ.hs.URL)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		res, ok := rt.Forward(ctx, rt.Route(key), "/v1/match", "application/json", []byte(`{}`), false)
		if !ok || res.Peer != succ.hs.URL {
			t.Fatalf("call %d: ok=%v peer=%v, want successor serve", i, ok, res)
		}
	}
	// Two failures opened the breaker; the third call skipped the owner.
	snap := reg.Snapshot()
	ownerLbl := `{peer="` + owner.host() + `"}`
	if got := snap.Counter(obs.MClusterForwardErrors + ownerLbl); got != 2 {
		t.Errorf("owner forward errors = %v, want 2 (breaker opens after threshold)", got)
	}
	if got := snap.Counter(obs.MClusterPeerSkips + ownerLbl); got != 1 {
		t.Errorf("owner skips = %v, want 1", got)
	}
	health := rt.Health()
	var ownerHealth *PeerHealth
	for i := range health {
		if health[i].URL == owner.hs.URL {
			ownerHealth = &health[i]
		}
	}
	if ownerHealth == nil || ownerHealth.State.String() != "open" {
		t.Fatalf("owner breaker state = %+v, want open", ownerHealth)
	}

	// Heal the partition and advance past the (jittered ≤ 1.5x) cooldown:
	// the half-open probe readmits the owner.
	in.Disarm(faultinject.PeerPartition.For(owner.host()))
	now = now.Add(16 * time.Second)
	res, ok := rt.Forward(ctx, rt.Route(key), "/v1/match", "application/json", []byte(`{}`), false)
	if !ok || res.Peer != owner.hs.URL {
		t.Fatalf("post-recovery serve: ok=%v peer=%+v, want owner", ok, res)
	}
}

// TestRouterDegradedAndStandbyAccounting: all remote candidates down →
// ok=false, counted degraded (or standby when self is the successor).
func TestRouterDegradedAndStandbyAccounting(t *testing.T) {
	dead := newFakePeer(t, "", 200)
	other := newFakePeer(t, `{"ok":1}`, 200)
	self := "http://self.invalid:1"
	in := faultinject.New(4).
		Arm(faultinject.PeerPartition.For(dead.host()), faultinject.Spec{Nth: 1, Repeat: true}).
		Arm(faultinject.PeerPartition.For(other.host()), faultinject.Spec{Nth: 1, Repeat: true})
	rt, reg := newTestRouter(t, Config{
		Self:   self,
		Peers:  []string{self, dead.hs.URL, other.hs.URL},
		Inject: in,
	})

	// Key whose owner is dead and successor is self: standby serve.
	standbyKey := keyOwnedBy(t, rt.Ring(), dead.hs.URL, self)
	if _, ok := rt.Forward(context.Background(), rt.Route(standbyKey), "/v1/match", "", []byte(`{}`), false); ok {
		t.Fatal("forward to a dead owner succeeded")
	}
	// Key owned by dead with the other (also partitioned) as successor:
	// degraded serve.
	degradedKey := keyOwnedBy(t, rt.Ring(), dead.hs.URL, other.hs.URL)
	if _, ok := rt.Forward(context.Background(), rt.Route(degradedKey), "/v1/match", "", []byte(`{}`), false); ok {
		t.Fatal("forward with every candidate partitioned succeeded")
	}
	snap := reg.Snapshot()
	if got := snap.Counter(obs.MClusterStandbyServes); got != 1 {
		t.Errorf("standby serves = %v, want 1", got)
	}
	if got := snap.Counter(obs.MClusterDegradedServes); got != 1 {
		t.Errorf("degraded serves = %v, want 1", got)
	}
}

// TestRouterRelaysPeer4xx: a 400 from the owner is the request's answer —
// relayed, not treated as a peer fault.
func TestRouterRelaysPeer4xx(t *testing.T) {
	bad := newFakePeer(t, `{"error":"bad pattern"}`, 400)
	self := "http://self.invalid:1"
	rt, reg := newTestRouter(t, Config{Self: self, Peers: []string{self, bad.hs.URL}})
	key := keyOwnedBy(t, rt.Ring(), bad.hs.URL, "")
	res, ok := rt.Forward(context.Background(), rt.Route(key), "/v1/match", "application/json", []byte(`{}`), false)
	if !ok || res.Status != 400 {
		t.Fatalf("4xx relay: ok=%v res=%+v, want relayed 400", ok, res)
	}
	h := rt.Health()
	if len(h) != 1 || h[0].ConsecutiveFailures != 0 {
		t.Fatalf("peer health = %+v, want zero failures after 4xx relay", h)
	}
	if got := reg.Snapshot().Counter(obs.MClusterForwardErrors + `{peer="` + bad.host() + `"}`); got != 0 {
		t.Errorf("forward errors = %v, want 0 after 4xx relay", got)
	}
}

// TestRouterPeer503FailsOver: a draining owner (503) fails over to the
// successor instead of relaying the 503.
func TestRouterPeer503FailsOver(t *testing.T) {
	draining := newFakePeer(t, `{"error":"draining"}`, 503)
	up := newFakePeer(t, `{"ok":1}`, 200)
	self := "http://self.invalid:1"
	rt, _ := newTestRouter(t, Config{
		Self: self, Peers: []string{self, draining.hs.URL, up.hs.URL},
	})
	key := keyOwnedBy(t, rt.Ring(), draining.hs.URL, up.hs.URL)
	res, ok := rt.Forward(context.Background(), rt.Route(key), "/v1/match", "application/json", []byte(`{}`), false)
	if !ok || res.Peer != up.hs.URL {
		t.Fatalf("503 failover: ok=%v res=%+v, want successor serve", ok, res)
	}
}

// TestRouterStreamForward: streaming forwards hand back the peer's body
// as a stream and release resources on Close.
func TestRouterStreamForward(t *testing.T) {
	lines := "{\"end\":3}\n{\"done\":true,\"matches\":1}\n"
	peer := newFakePeer(t, lines, 200)
	self := "http://self.invalid:1"
	rt, _ := newTestRouter(t, Config{Self: self, Peers: []string{self, peer.hs.URL}})
	key := keyOwnedBy(t, rt.Ring(), peer.hs.URL, "")
	res, ok := rt.Forward(context.Background(), rt.Route(key), "/v1/scan?pattern=ab", "application/octet-stream", []byte("xxabz"), true)
	if !ok {
		t.Fatal("stream forward failed")
	}
	if res.Stream == nil {
		t.Fatal("stream result has no Stream")
	}
	got, err := io.ReadAll(res.Stream)
	if err != nil {
		t.Fatal(err)
	}
	res.Stream.Close()
	if string(got) != lines {
		t.Fatalf("relayed stream = %q, want %q", got, lines)
	}
}
