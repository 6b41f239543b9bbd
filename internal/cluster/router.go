package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"bitgen/internal/faultinject"
	"bitgen/internal/obs"
)

// Config parameterizes a Router. Self and Peers are replica base URLs
// (scheme://host:port); Self must appear in Peers.
type Config struct {
	// Self is this replica's advertised base URL.
	Self string
	// Peers lists every replica's base URL, including Self. Every replica
	// must be configured with the same set (order-independent) so all
	// ring views agree.
	Peers []string
	// BreakerThreshold / BreakerCooldown parameterize the per-peer
	// breakers (defaults 3 failures / 5s; a negative threshold never opens
	// on a failure streak), with cooldowns jittered deterministically from
	// Seed.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Seed drives breaker-cooldown jitter.
	Seed uint64
	// Inject arms deterministic network faults on the transport.
	Inject *faultinject.Injector
	// DropAfter tunes PeerDrop's cut point in response-body bytes.
	DropAfter int64
	// Now is the breaker clock; nil means time.Now.
	Now func() time.Time
}

// forwardTimeout caps one buffered forward attempt or snapshot fetch;
// streaming forwards are bounded by the request deadline instead.
const forwardTimeout = 5 * time.Second

// Route is the ring's placement decision for one key.
type Route struct {
	Key string
	// Owner and Successor are replica base URLs; Successor is "" on a
	// one-node ring.
	Owner, Successor string
	// SelfOwner: this node owns the key — serve locally, no forward.
	// SelfStandby: this node is the key's warm standby.
	SelfOwner, SelfStandby bool
}

// peer is one remote replica: its breaker plus metric handles.
type peer struct {
	url   string
	host  string
	br    *breaker
	fwd   *obs.Counter
	fails *obs.Counter
	skips *obs.Counter
}

// Router places keys on the ring and forwards requests to their owners,
// guarded by per-peer breakers, failing over to the successor. It is safe
// for concurrent use.
type Router struct {
	cfg    Config
	ring   *Ring
	peers  map[string]*peer // keyed by base URL, remote replicas only
	client *http.Client
	ob     *obs.Observer
	now    func() time.Time

	local    *obs.Counter
	degraded *obs.Counter
	standby  *obs.Counter
	received *obs.Counter
}

// New builds a Router. ob carries the serve-layer registry (for the
// cluster.* metric families), the decision ring and the request-span ring
// that record each forward; a nil ob disables all three.
func New(cfg Config, ob *obs.Observer) (*Router, error) {
	if cfg.Self == "" {
		return nil, errors.New("cluster: Self is required")
	}
	if _, err := url.Parse(cfg.Self); err != nil {
		return nil, fmt.Errorf("cluster: bad Self %q: %w", cfg.Self, err)
	}
	ring, err := NewRing(append(append([]string(nil), cfg.Peers...), cfg.Self))
	if err != nil {
		return nil, err
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	// http.DefaultTransport keeps only 2 idle connections per host — a
	// replica forwarding a saturating load to its handful of peers would
	// churn a fresh TCP connection per request. Pool generously: peers are
	// few and long-lived.
	base := &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
		IdleConnTimeout:     90 * time.Second,
	}
	r := &Router{
		cfg:   cfg,
		ring:  ring,
		peers: make(map[string]*peer),
		ob:    ob,
		now:   cfg.Now,
		client: &http.Client{Transport: &Transport{
			Base:      base,
			Inject:    cfg.Inject,
			DropAfter: cfg.DropAfter,
		}},
	}
	reg := ob.Reg()
	reg.Gauge(obs.MClusterPeers, obs.HClusterPeers).Set(float64(len(ring.Nodes())))
	r.local = reg.Counter(obs.MClusterLocalServes, obs.HClusterLocalServes)
	r.degraded = reg.Counter(obs.MClusterDegradedServes, obs.HClusterDegradedServes)
	r.standby = reg.Counter(obs.MClusterStandbyServes, obs.HClusterStandbyServes)
	r.received = reg.Counter(obs.MClusterReceivedForwards, obs.HClusterReceivedForwards)
	for _, n := range ring.Nodes() {
		if n == cfg.Self {
			continue
		}
		u, err := url.Parse(n)
		if err != nil || u.Host == "" {
			return nil, fmt.Errorf("cluster: bad peer URL %q", n)
		}
		host := u.Host
		p := &peer{
			url:   n,
			host:  host,
			fwd:   reg.Counter(obs.MClusterForwards, obs.HClusterForwards, obs.L("peer", host)),
			fails: reg.Counter(obs.MClusterForwardErrors, obs.HClusterForwardErrors, obs.L("peer", host)),
			skips: reg.Counter(obs.MClusterPeerSkips, obs.HClusterPeerSkips, obs.L("peer", host)),
		}
		for _, to := range []BreakerState{breakerClosed, breakerOpen, breakerHalfOpen} {
			reg.Counter(obs.MClusterPeerFlips, obs.HClusterPeerFlips,
				obs.L("peer", host), obs.L("to", to.String()))
		}
		p.br = &breaker{
			threshold:  cfg.BreakerThreshold,
			cooldown:   cfg.BreakerCooldown,
			jitterSeed: cfg.Seed ^ hashKey(n),
			onState: func(_, to BreakerState) {
				reg.Counter(obs.MClusterPeerFlips, obs.HClusterPeerFlips,
					obs.L("peer", host), obs.L("to", to.String())).Inc()
			},
		}
		r.peers[n] = p
	}
	return r, nil
}

// Close drops the idle peer connections, whose read and write loops
// would otherwise outlive a drained server until the peers hang up.
func (r *Router) Close() { r.client.CloseIdleConnections() }

// Ring exposes the router's ring (read-only).
func (r *Router) Ring() *Ring { return r.ring }

// Self returns this replica's advertised URL.
func (r *Router) Self() string { return r.cfg.Self }

// Route places a key.
func (r *Router) Route(key string) Route {
	owner, succ := r.ring.OwnerSuccessor(key)
	return Route{
		Key:         key,
		Owner:       owner,
		Successor:   succ,
		SelfOwner:   owner == r.cfg.Self,
		SelfStandby: succ == r.cfg.Self,
	}
}

// NoteLocal counts a locally-served key this node owns.
func (r *Router) NoteLocal() { r.local.Inc() }

// NoteReceivedForward counts a forwarded request received from a peer.
func (r *Router) NoteReceivedForward() { r.received.Inc() }

// PeerHealth is one peer's breaker snapshot.
type PeerHealth struct {
	URL string
	// Name is the peer's host, the label its metrics carry.
	Name                string
	State               BreakerState
	ConsecutiveFailures int
	// LastFailure is the most recent failure's error text.
	LastFailure string
}

// Health snapshots every remote peer's breaker, in ring order.
func (r *Router) Health() []PeerHealth {
	var out []PeerHealth
	for _, n := range r.ring.Nodes() {
		p := r.peers[n]
		if p == nil {
			continue
		}
		h := p.br.snapshot()
		h.URL, h.Name = n, p.host
		out = append(out, h)
	}
	return out
}

// ForwardResult carries a peer's response back to the serving layer.
type ForwardResult struct {
	Status      int
	ContentType string
	// Body holds a buffered response; Stream a streaming one (exactly
	// one is set). The caller must Close a Stream.
	Body   []byte
	Stream io.ReadCloser
	Peer   string // base URL of the replica that served
}

// relayable reports whether a peer status is an answer to relay to the
// client (2xx and request-shaped 4xx) rather than a sign the peer cannot
// serve right now (429 overload, 503 draining, any 5xx).
func relayable(status int) bool {
	return status < 500 && status != http.StatusTooManyRequests &&
		status != http.StatusServiceUnavailable
}

// errPeerStatus is a non-relayable peer response.
type errPeerStatus struct {
	peer   string
	status int
}

func (e *errPeerStatus) Error() string {
	return fmt.Sprintf("cluster: peer %s answered %d", e.peer, e.status)
}

// Forward routes one request for key to its owner replica, failing over
// to the successor when the owner is breaker-blocked or fails. A slow but
// live owner is waited for: a buffered attempt up to forwardTimeout, a
// streaming one up to the request's deadline. body must be the complete
// request payload (it is replayed on failover); stream selects a
// streaming response (the caller relays and closes res.Stream) versus a
// buffered one.
//
// ok=false means no remote candidate could serve: the caller must
// execute locally. Forward has already counted the outcome (standby
// serve when this node is the key's warm standby, degraded serve
// otherwise) — graceful degradation is the contract, so Forward never
// returns an error.
func (r *Router) Forward(ctx context.Context, route Route, path, contentType string, body []byte, stream bool) (res *ForwardResult, ok bool) {
	tc, _ := obs.TraceContextFrom(ctx)
	start := r.now()
	defer func() {
		outcome := "degraded-local"
		if res != nil {
			outcome = "served"
		} else if route.SelfStandby {
			outcome = "standby-local"
		}
		sp := obs.Span{
			Trace: tc.Trace, ID: obs.NewSpanID(), Parent: tc.Span, Name: "forward", Node: r.cfg.Self,
			Start: obs.SpanTime(start), Dur: int64(r.now().Sub(start)),
			Args: []obs.Arg{{Key: "key", Val: short(route.Key)}, {Key: "owner", Val: route.Owner},
				{Key: "path", Val: path}, {Key: "outcome", Val: outcome}},
		}
		if res != nil {
			sp.Status = res.Status
			sp.Args = append(sp.Args, obs.A("served_by", res.Peer))
		}
		r.ob.RecordSpan(sp)
	}()

	r.walk(ctx, route, func(p *peer) (bool, error) {
		p.fwd.Inc()
		var err error
		res, err = r.attempt(ctx, p, path, contentType, body, stream)
		return true, err
	}, func(p *peer, err error) {
		p.fails.Inc()
		r.ob.Event(obs.LevelWarn, "forward-error", tc.Trace,
			obs.A("peer", p.host), obs.A("error", err.Error()))
	})
	if res != nil {
		return res, true
	}
	if route.SelfStandby {
		r.standby.Inc()
		r.ob.Event(obs.LevelInfo, "standby-serve", tc.Trace,
			obs.A("key", short(route.Key)))
	} else {
		r.degraded.Inc()
		r.ob.Event(obs.LevelWarn, "degraded-serve", tc.Trace,
			obs.A("key", short(route.Key)), obs.A("owner", route.Owner))
	}
	return nil, false
}

// walk tries a route's remote replicas in order, owner then successor,
// each under its breaker; a breaker-blocked peer is skipped. try runs one
// attempt, and done=true on a nil error ends the walk. A failed attempt
// counts against the peer's breaker, is reported to failed, and the walk
// moves on; if the caller has given up, the probe is released without a
// verdict and the walk stops. walk returns the last attempt's error.
func (r *Router) walk(ctx context.Context, route Route, try func(*peer) (done bool, err error), failed func(*peer, error)) error {
	var last error
	for _, n := range [...]string{route.Owner, route.Successor} {
		p := r.peers[n] // nil for this node and for "" (no successor)
		if p == nil {
			continue
		}
		if !p.br.allow(r.now()) {
			p.skips.Inc()
			continue
		}
		done, err := try(p)
		if err == nil {
			p.br.success()
			if done {
				return nil
			}
			continue
		}
		if ctx.Err() != nil {
			p.br.abandon()
			return err
		}
		p.br.failure(r.now(), err)
		failed(p, err)
		last = err
	}
	return last
}

// maxSnapshotFetchBytes bounds one peer snapshot transfer; anything
// larger than this is not a plausible engine snapshot.
const maxSnapshotFetchBytes = 64 << 20

// FetchSnapshot asks the key's ring owner (then its successor) for a
// persisted engine snapshot, under the same per-peer breaker rules as
// request forwarding. data == nil with err == nil means no remote
// candidate had one — every candidate is this node, breaker-blocked, or
// answered 404 — which is a normal cache miss, not a fault. A non-nil err
// means attempts were made and all failed; the caller decides whether
// that is worth a metric. The returned bytes are NOT verified here: the
// serve layer decodes and checksums them before trusting anything. The
// snapshot-fetch span records which peer answered.
func (r *Router) FetchSnapshot(ctx context.Context, key string) (data []byte, err error) {
	tc, _ := obs.TraceContextFrom(ctx)
	start := r.now()
	var from string
	defer func() {
		args := []obs.Arg{{Key: "key", Val: short(key)}, {Key: "from", Val: from}}
		if err != nil {
			args = append(args, obs.A("error", err.Error()))
		}
		r.ob.RecordSpan(obs.Span{
			Trace: tc.Trace, ID: obs.NewSpanID(), Parent: tc.Span, Name: "snapshot-fetch", Node: r.cfg.Self,
			Start: obs.SpanTime(start), Dur: int64(r.now().Sub(start)), Args: args,
		})
	}()
	err = r.walk(ctx, r.Route(key), func(p *peer) (bool, error) {
		b, status, err := r.fetchSnapshotFrom(ctx, p, key)
		if status == http.StatusOK {
			data, from = b, p.url
		}
		// A 404 is a healthy miss: the walk goes on to the next peer.
		return status == http.StatusOK, err
	}, func(p *peer, err error) {
		r.ob.Event(obs.LevelWarn, "snapshot-fetch-error", tc.Trace,
			obs.A("peer", p.host), obs.A("error", err.Error()))
	})
	return data, err
}

// fetchSnapshotFrom executes one snapshot GET against one peer. A 404 is
// a successful answer (status returned, nil error); anything else
// non-200 is a peer fault.
func (r *Router) fetchSnapshotFrom(ctx context.Context, p *peer, key string) ([]byte, int, error) {
	actx, cancel := context.WithTimeout(ctx, forwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, p.url+"/v1/snapshot?set="+url.QueryEscape(key), nil)
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set(HeaderForwarded, "1")
	if tc, ok := obs.TraceContextFrom(actx); ok {
		req.Header.Set(obs.TraceHeader, tc.Header())
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		b, err := io.ReadAll(io.LimitReader(resp.Body, maxSnapshotFetchBytes+1))
		if err != nil {
			return nil, 0, err
		}
		if len(b) > maxSnapshotFetchBytes {
			return nil, 0, fmt.Errorf("cluster: peer %s snapshot for %s exceeds %d bytes", p.host, short(key), maxSnapshotFetchBytes)
		}
		return b, resp.StatusCode, nil
	case http.StatusNotFound:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return nil, resp.StatusCode, nil
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return nil, 0, &errPeerStatus{peer: p.host, status: resp.StatusCode}
	}
}

// attempt executes one forward to one peer: a buffered one under
// forwardTimeout, a streaming one under the request context alone.
func (r *Router) attempt(ctx context.Context, p *peer, path, contentType string, body []byte, stream bool) (*ForwardResult, error) {
	if !stream {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, forwardTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set(HeaderForwarded, "1")
	if tc, ok := obs.TraceContextFrom(ctx); ok {
		req.Header.Set(obs.TraceHeader, tc.Header())
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	if !relayable(resp.StatusCode) {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		return nil, &errPeerStatus{peer: p.host, status: resp.StatusCode}
	}
	res := &ForwardResult{
		Status:      resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		Peer:        p.url,
	}
	if stream {
		res.Stream = resp.Body
		return res, nil
	}
	defer resp.Body.Close()
	res.Body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, err // mid-read drop: transient, candidate failed
	}
	return res, nil
}

// short abbreviates a pattern-set key for span attributes and events.
func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
