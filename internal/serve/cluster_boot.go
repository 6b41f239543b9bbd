package serve

import (
	"context"
	"net"
	"net/http"

	"bitgen/internal/cluster"
)

// ClusterNode is one in-process bitgend replica booted by BootCluster.
type ClusterNode struct {
	Server *Server
	URL    string

	hs *http.Server
	ln net.Listener
}

// Kill terminates the replica abruptly — listener and live connections
// close without draining, the shape of a crashed process. Safe to call
// more than once.
func (n *ClusterNode) Kill() {
	n.hs.Close()
	n.Server.Close()
}

// Shutdown drains the replica gracefully, then closes the listener.
func (n *ClusterNode) Shutdown(ctx context.Context) error {
	err := n.Server.Drain(ctx)
	if serr := n.hs.Shutdown(ctx); serr != nil {
		n.hs.Close()
		if err == nil {
			err = serr
		}
	}
	return err
}

// BootCluster starts n replicas on loopback listeners with cluster
// routing enabled between them. Listeners are bound first so every
// replica's Config can name the complete peer set; mutate (optional)
// adjusts each node's cluster.Config before EnableCluster — tests use it
// to wire injectors and shrink breaker windows. Callers own the nodes:
// Kill or Shutdown each one.
func BootCluster(n int, cfg Config, mutate func(i int, cc *cluster.Config)) ([]*ClusterNode, error) {
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*ClusterNode, n)
	for i := range nodes {
		s, err := New(cfg)
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			for _, nd := range nodes[:i] {
				nd.Server.Close()
			}
			return nil, err
		}
		cc := cluster.Config{Self: urls[i], Peers: urls}
		if mutate != nil {
			mutate(i, &cc)
		}
		if err := s.EnableCluster(cc); err != nil {
			for _, l := range lns {
				l.Close()
			}
			for _, nd := range nodes[:i] {
				nd.Server.Close()
			}
			return nil, err
		}
		nodes[i] = &ClusterNode{
			Server: s,
			URL:    urls[i],
			hs:     &http.Server{Handler: s.Handler()},
			ln:     lns[i],
		}
	}
	for _, nd := range nodes {
		go nd.hs.Serve(nd.ln)
	}
	return nodes, nil
}
