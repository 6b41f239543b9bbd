// Command bitgend serves multi-pattern regex matching over HTTP/JSON:
// a multi-tenant front end over the bitgen engine with a compiled-engine
// LRU cache, bounded admission, and graceful drain on SIGTERM.
//
// Endpoints:
//
//	POST /v1/match   {"patterns":[...],"input":"..."} → matches JSON
//	POST /v1/scan    ?pattern=...&chunk=N, body streamed → NDJSON matches
//	GET  /v1/snapshot ?set=<key> persisted engine snapshot bytes (peers)
//	GET  /v1/cluster ring membership + per-peer breaker health
//	GET  /healthz    200 ok / 503 draining
//	GET  /metrics    Prometheus exposition (serve, snapshot, cluster families)
//	GET  /v1/trace/  <trace-id>: this replica's spans and events of one request
//	                 (with the engine's spans when the caller tagged it)
//
// Cluster mode: pass -peers with every replica's base URL (the same set,
// in any order, on every replica) and -advertise with this replica's own
// URL. Pattern-set keys route across replicas on a consistent-hash ring;
// each key has a deterministic owner plus its ring successor as a warm
// standby. A forward goes to the owner and fails over to the successor,
// each guarded by a per-peer circuit breaker. When neither is reachable
// the replica compiles locally and serves (degraded, never down).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bitgen"
	"bitgen/internal/cli"
	"bitgen/internal/cluster"
	"bitgen/internal/serve"
	"bitgen/internal/snapshot"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8377", "listen address")
		cacheSize  = flag.Int("cache", 32, "max cached compiled engines (LRU)")
		maxQueue   = flag.Int("queue", 64, "max requests waiting for an execution slot")
		maxConc    = flag.Int("concurrency", 0, "max requests executing at once (0 = 2*GOMAXPROCS)")
		timeout    = flag.Duration("timeout", 10*time.Second, "default per-request deadline")
		maxTimeout = flag.Duration("max-timeout", 30*time.Second, "cap on client-requested (and peer-propagated) deadlines")
		maxBody    = flag.Int64("max-body", 8<<20, "max /v1/match body bytes")
		device     = flag.String("device", "", "GPU profile for the cost model (default RTX 3090)")
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")

		snapDir = flag.String("snapshot-dir", "", "directory for compiled-engine snapshots: engines persist there write-behind and a cache miss loads from it before compiling (created if missing; empty disables persistence)")

		peers        = flag.String("peers", "", "comma-separated replica base URLs (every replica, same set everywhere) — enables cluster mode")
		advertise    = flag.String("advertise", "", "this replica's base URL as peers reach it (default http://<addr>)")
		brkThreshold = flag.Int("breaker-threshold", 3, "consecutive peer failures before its breaker opens")
		brkCooldown  = flag.Duration("breaker-cooldown", 5*time.Second, "open-breaker cooldown before a half-open probe (jittered)")

		stitch    = flag.String("stitch", "", "trace ID to stitch: fetch /v1/trace/<id> from every -peers replica, merge into one Chrome trace, exit")
		stitchOut = flag.String("o", "", "output file for -stitch (default stdout)")
	)
	flag.Parse()

	if *stitch != "" {
		if err := runStitch(*peers, *stitch, *stitchOut); err != nil {
			fmt.Fprintln(os.Stderr, "bitgend: stitch:", err)
			os.Exit(1)
		}
		return
	}

	if *snapDir != "" {
		// Fail fast at boot: a server that cannot persist where it was told
		// to should not come up and discover that on the first write-behind.
		if err := snapshot.ValidateDir(*snapDir); err != nil {
			fmt.Fprintln(os.Stderr, "bitgend:", cli.Describe(err))
			os.Exit(2)
		}
	}

	srv, err := serve.New(serve.Config{
		MaxCachedEngines: *cacheSize,
		MaxQueue:         *maxQueue,
		MaxConcurrent:    *maxConc,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		MaxBodyBytes:     *maxBody,
		Engine:           bitgen.Options{Device: *device},
		SnapshotDir:      *snapDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bitgend:", cli.Describe(err))
		os.Exit(2)
	}
	if *peers != "" {
		self := *advertise
		if self == "" {
			self = "http://" + *addr
		}
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		err := srv.EnableCluster(cluster.Config{
			Self:             self,
			Peers:            peerList,
			BreakerThreshold: *brkThreshold,
			BreakerCooldown:  *brkCooldown,
			Seed:             uint64(time.Now().UnixNano()),
		})
		if err != nil {
			log.Fatalf("cluster: %v", err)
		}
		log.Printf("cluster mode: %d replicas, self %s", len(srv.Cluster().Ring().Nodes()), self)
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("bitgend listening on %s", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case got := <-sig:
		log.Printf("received %s, draining (up to %s)", got, *drainWait)
	}

	// Drain first: /healthz flips to 503 so load balancers stop routing,
	// in-flight matches and scans run to completion. Then shut the
	// listener down.
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "drain incomplete: %v\n", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
	}
	log.Printf("bitgend stopped")
}

// runStitch fetches one trace's fragments from every -peers replica and
// writes the merged Chrome trace to out (stdout when empty). Unreachable
// replicas are reported but tolerated — stitching exists to debug
// partially-failed clusters.
func runStitch(peers, traceID, out string) error {
	var nodes []string
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			nodes = append(nodes, p)
		}
	}
	if len(nodes) == 0 {
		return fmt.Errorf("-stitch needs -peers with at least one replica URL")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := serve.StitchTrace(ctx, &http.Client{Timeout: 10 * time.Second}, nodes, traceID)
	if err != nil {
		return err
	}
	for _, e := range st.Errors {
		fmt.Fprintln(os.Stderr, "bitgend: stitch: unreachable:", e)
	}
	chrome, err := st.Chrome()
	if err != nil {
		return err
	}
	if out == "" {
		_, err = os.Stdout.Write(append(chrome, '\n'))
		return err
	}
	if err := os.WriteFile(out, chrome, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bitgend: stitched %d spans from %d/%d replicas -> %s\n",
		st.SpanCount(), len(st.Fragments), len(nodes), out)
	return nil
}
