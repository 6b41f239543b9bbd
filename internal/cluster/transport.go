package cluster

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"bitgen/internal/bgerr"
	"bitgen/internal/faultinject"
)

// Forwarding headers. Forwarded marks a request as already routed once —
// the receiving replica serves it locally, never re-forwards (no routing
// loops). DeadlineMS carries the sender's remaining deadline budget in
// milliseconds so the owner's work is bounded by the originating
// request's deadline, not restarted from a fresh default.
const (
	HeaderForwarded  = "X-Bitgen-Forwarded"
	HeaderDeadlineMS = "X-Bitgen-Deadline-Ms"
)

// Transport wraps an http.RoundTripper with deterministic network-level
// fault injection (internal/faultinject's peer points) and automatic
// deadline propagation. The zero value works: nil Base means
// http.DefaultTransport, nil Inject never fires.
type Transport struct {
	Base   http.RoundTripper
	Inject *faultinject.Injector
	// DropAfter is how many response-body bytes pass before a fired
	// PeerDrop cuts the stream (default 256).
	DropAfter int64
}

// fire consults both the peer-scoped and unscoped variants of a point.
func (t *Transport) fire(p faultinject.Point, peer string) bool {
	return t.Inject.Fire(p.For(peer)) || t.Inject.Fire(p)
}

// RoundTrip sends the request, applying armed faults for the target peer
// (req.URL.Host). Injected network failures are transient-class
// (errors.Is(err, bgerr.ErrTransient)), so the router's failover treats
// them exactly like real connection failures.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	peer := req.URL.Host
	if t.fire(faultinject.PeerPartition, peer) {
		return nil, bgerr.Transient(fmt.Errorf("cluster: partitioned from %s: %w",
			peer, faultinject.ErrInjected))
	}
	if t.fire(faultinject.PeerRefuse, peer) {
		return nil, bgerr.Transient(fmt.Errorf("cluster: connection refused by %s: %w",
			peer, faultinject.ErrInjected))
	}
	if dl, ok := req.Context().Deadline(); ok && req.Header.Get(HeaderDeadlineMS) == "" {
		remain := time.Until(dl).Milliseconds()
		if remain < 1 {
			remain = 1
		}
		req.Header.Set(HeaderDeadlineMS, strconv.FormatInt(remain, 10))
	}
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	resp, err := base.RoundTrip(req)
	if err != nil {
		// Real dial/transport failures are environmental: transient.
		return nil, bgerr.Transient(err)
	}
	if t.fire(faultinject.PeerDrop, peer) {
		after := t.DropAfter
		if after <= 0 {
			after = 256
		}
		resp.Body = &droppingBody{rc: resp.Body, remaining: after, peer: peer}
	}
	return resp, nil
}

// CloseIdleConnections lets http.Client.CloseIdleConnections reach Base.
func (t *Transport) CloseIdleConnections() {
	if c, ok := t.Base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// droppingBody cuts a response stream after a fixed number of bytes,
// modeling a connection reset mid-relay.
type droppingBody struct {
	rc        io.ReadCloser
	remaining int64
	peer      string
}

func (d *droppingBody) Read(p []byte) (int, error) {
	if d.remaining <= 0 {
		return 0, bgerr.Transient(fmt.Errorf("cluster: connection to %s dropped mid-stream: %w",
			d.peer, faultinject.ErrInjected))
	}
	if int64(len(p)) > d.remaining {
		p = p[:d.remaining]
	}
	n, err := d.rc.Read(p)
	d.remaining -= int64(n)
	return n, err
}

func (d *droppingBody) Close() error { return d.rc.Close() }
