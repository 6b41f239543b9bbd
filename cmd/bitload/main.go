// Command bitload is the bitgend cluster load generator: it drives many
// concurrent closed-loop clients of mixed /v1/match and /v1/scan traffic
// and reports latency percentiles, saturation throughput, and — when a
// replica is killed mid-run — the recovery time until the error rate
// returns to zero.
//
// Two modes:
//
//	bitload -targets http://a:8377,http://b:8377   # external cluster
//	bitload -selfcluster -out results/BENCH_serve.json
//
// -selfcluster boots in-process replicas on loopback listeners and runs
// the full benchmark matrix: a 1-node baseline phase, then a 3-node
// phase that kills one replica at the midpoint. The JSON report contrasts
// the two so routing overhead and failover cost are visible side by side.
// After writing it, bitload exits 1 if any request sent to a surviving
// replica after the kill failed (failures_via_survivors > 0): failover
// must hide a dead replica from every request that reaches a live one.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bitgen/internal/obs"
	"bitgen/internal/serve"
)

type phaseStats struct {
	Requests      int64   `json:"requests"`
	Served        int64   `json:"served"`
	Rejected      int64   `json:"rejected"` // 429/503 admission pushback
	Failed        int64   `json:"failed"`   // transport errors and 5xx
	P50MS         float64 `json:"p50_ms"`
	P99MS         float64 `json:"p99_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// LatencyHist is the served-request latency histogram (cumulative
	// counts per upper bound, +Inf last), the same classic-histogram shape
	// the server's bitgen_serve_request_seconds family exposes — so a bench
	// report and a scrape are directly comparable.
	LatencyHist []latencyBucket `json:"latency_hist,omitempty"`
	// SLO is the client-observed compliance against the match/scan latency
	// objectives.
	SLO *sloCompliance `json:"slo,omitempty"`
}

// latencyBucket is one cumulative histogram bucket; LEMS 0 marks +Inf.
type latencyBucket struct {
	LEMS  float64 `json:"le_ms"`
	Count int64   `json:"count"`
}

// latencyBounds are the bucket upper bounds in milliseconds: the server's
// obs.RequestSecondsBuckets scaled to ms, so the two histograms line up.
var latencyBounds = func() []float64 {
	ms := make([]float64, len(obs.RequestSecondsBuckets))
	for i, b := range obs.RequestSecondsBuckets {
		ms[i] = b * 1000
	}
	return ms
}()

// sloCompliance is the client-side view of the serve SLO: a request is
// good when it was served (2xx) within its endpoint's latency objective.
// Failures are bad; admission rejections (429/503) are policy, not SLO
// spend, and are excluded from the denominator.
type sloCompliance struct {
	MatchObjectiveMS float64 `json:"match_objective_ms"`
	ScanObjectiveMS  float64 `json:"scan_objective_ms"`
	Good             int64   `json:"good"`
	Total            int64   `json:"total"`
	Compliance       float64 `json:"compliance"`
}

// killStats reports the kill. FailuresAfterKill counts every failed
// request that completed after it, most of them sent to the killed
// replica itself before the modeled load balancer stops routing there.
// FailuresViaSurvivors counts only those sent to a live replica: the
// router's contract is that it is 0.
type killStats struct {
	RecoveryMS           float64 `json:"recovery_ms"`
	FailuresAfterKill    int64   `json:"failures_after_kill"`
	FailuresViaSurvivors int64   `json:"failures_via_survivors"`
	DegradedServes       float64 `json:"degraded_serves"`
	StandbyServes        float64 `json:"standby_serves"`
	ReceivedForwards     float64 `json:"received_forwards"`
}

// warmStats contrasts a cold boot (every set compiled) against a restart
// on the same snapshot directory (every set's first request loads its
// snapshot, zero compiles). Times are measured from just before boot.
type warmStats struct {
	Sets           int     `json:"sets"`
	ColdFirst200MS float64 `json:"cold_first_200_ms"`
	ColdAllSetsMS  float64 `json:"cold_all_sets_ms"`
	ColdCompiles   float64 `json:"cold_compiles"`
	WarmFirst200MS float64 `json:"warm_first_200_ms"`
	WarmAllSetsMS  float64 `json:"warm_all_sets_ms"`
	WarmCompiles   float64 `json:"warm_compiles"`
	WarmLoads      float64 `json:"warm_loads"`
}

type report struct {
	Generated string      `json:"generated"`
	Clients   int         `json:"clients"`
	DurationS float64     `json:"duration_s"`
	ScanFrac  float64     `json:"scan_frac"`
	OneNode   *phaseStats `json:"one_node,omitempty"`
	ThreeNode *phaseStats `json:"three_node,omitempty"`
	Kill      *killStats  `json:"kill,omitempty"`
	WarmStart *warmStats  `json:"warm_start,omitempty"`
	External  *phaseStats `json:"external,omitempty"`
	Targets   []string    `json:"targets,omitempty"`
}

// workload is the fixed request mix: precomputed match bodies and scan
// payloads over a spread of pattern sets, so every phase (and every run)
// issues identical traffic.
type workload struct {
	matchBodies []string
	scanPaths   []string
	scanBody    []byte
	scanFrac    float64
}

func newWorkload(sets int, scanFrac float64) *workload {
	w := &workload{scanFrac: scanFrac}
	for i := 0; i < sets; i++ {
		pat := fmt.Sprintf("load%dset", i)
		input := strings.Repeat("x"+pat+"y", 4)
		body, _ := json.Marshal(map[string]any{
			"patterns": []string{pat, "zz" + pat},
			"input":    input,
		})
		w.matchBodies = append(w.matchBodies, string(body))
		w.scanPaths = append(w.scanPaths, "/v1/scan?pattern="+pat)
	}
	w.scanBody = bytes.Repeat([]byte("abcload0setdef"), 256) // ~3.5 KiB
	return w
}

// sample is one request outcome: latency, wall-clock completion time and
// the replica it was sent to.
type sample struct {
	lat    time.Duration
	done   time.Time
	target string
	kind   byte // 's' served, 'r' rejected, 'f' failed
	scan   bool // streaming /v1/scan rather than /v1/match
}

// attachObs fills a phase's latency histogram and SLO compliance from its
// raw samples.
func attachObs(st *phaseStats, samples []sample, matchP99, scanP99 time.Duration) {
	counts := make([]int64, len(latencyBounds))
	slo := &sloCompliance{
		MatchObjectiveMS: float64(matchP99) / float64(time.Millisecond),
		ScanObjectiveMS:  float64(scanP99) / float64(time.Millisecond),
	}
	for _, s := range samples {
		switch s.kind {
		case 'r':
			continue
		case 'f':
			slo.Total++
			continue
		}
		ms := float64(s.lat) / float64(time.Millisecond)
		for i, b := range latencyBounds {
			if ms <= b {
				counts[i]++
				break
			}
		}
		obj := matchP99
		if s.scan {
			obj = scanP99
		}
		slo.Total++
		if obj <= 0 || s.lat <= obj {
			slo.Good++
		}
	}
	var cum int64
	for i, b := range latencyBounds {
		cum += counts[i]
		st.LatencyHist = append(st.LatencyHist, latencyBucket{LEMS: b, Count: cum})
	}
	st.LatencyHist = append(st.LatencyHist, latencyBucket{LEMS: 0, Count: st.Served})
	if slo.Total > 0 {
		slo.Compliance = float64(slo.Good) / float64(slo.Total)
	}
	st.SLO = slo
}

// run drives clients closed-loop against targets for d. onMid (optional)
// fires once when half the duration has elapsed — the replica-kill hook.
// Dead targets are dropped from rotation when markDead reports them.
func run(w *workload, targets []string, clients int, d time.Duration, onMid func() (deadTarget string)) (phaseStats, []sample) {
	var (
		alive   atomic.Value // []string
		samples = make([][]sample, clients)
		wg      sync.WaitGroup
	)
	alive.Store(targets)
	stop := make(chan struct{})
	time.AfterFunc(d, func() { close(stop) })
	if onMid != nil {
		time.AfterFunc(d/2, func() {
			dead := onMid()
			if dead == "" {
				return
			}
			var next []string
			for _, t := range targets {
				if t != dead {
					next = append(next, t)
				}
			}
			// Model a load balancer noticing the dead health check: stop
			// routing to the victim a moment after the kill.
			time.AfterFunc(150*time.Millisecond, func() { alive.Store(next) })
		})
	}

	client := &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients},
	}
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mine := samples[c][:0]
			for i := 0; ; i++ {
				select {
				case <-stop:
					samples[c] = mine
					return
				default:
				}
				ts := alive.Load().([]string)
				target := ts[(c+i)%len(ts)]
				set := (c*7 + i) % len(w.matchBodies)
				scan := w.scanFrac > 0 && float64(i%100)/100 < w.scanFrac

				t0 := time.Now()
				var resp *http.Response
				var err error
				if scan {
					resp, err = client.Post(target+w.scanPaths[set],
						"application/octet-stream", bytes.NewReader(w.scanBody))
				} else {
					resp, err = client.Post(target+"/v1/match",
						"application/json", strings.NewReader(w.matchBodies[set]))
				}
				s := sample{lat: time.Since(t0), done: time.Now(), target: target, kind: 'f', scan: scan}
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					switch {
					case resp.StatusCode == http.StatusOK:
						s.kind = 's'
					case resp.StatusCode == http.StatusTooManyRequests ||
						resp.StatusCode == http.StatusServiceUnavailable:
						s.kind = 'r'
						// Honor Retry-After (capped so a drain hint does
						// not idle the generator).
						if ra, _ := strconv.Atoi(resp.Header.Get("Retry-After")); ra > 0 {
							back := time.Duration(ra) * time.Second
							if back > 100*time.Millisecond {
								back = 100 * time.Millisecond
							}
							time.Sleep(back)
						}
					}
				}
				s.lat = time.Since(t0)
				mine = append(mine, s)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []sample
	st := phaseStats{}
	var lats []time.Duration
	for _, ms := range samples {
		for _, s := range ms {
			st.Requests++
			switch s.kind {
			case 's':
				st.Served++
				lats = append(lats, s.lat)
			case 'r':
				st.Rejected++
			default:
				st.Failed++
			}
			all = append(all, s)
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	st.P50MS = pctMS(lats, 0.50)
	st.P99MS = pctMS(lats, 0.99)
	st.ThroughputRPS = float64(st.Served) / elapsed.Seconds()
	return st, all
}

func pctMS(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i]) / float64(time.Millisecond)
}

func main() {
	var (
		targets     = flag.String("targets", "", "comma-separated bitgend base URLs (external mode)")
		selfcluster = flag.Bool("selfcluster", false, "boot in-process replicas and run the 1-node vs 3-node benchmark matrix")
		clients     = flag.Int("clients", 128, "concurrent closed-loop clients")
		duration    = flag.Duration("duration", 2*time.Second, "duration of each phase")
		scanFrac    = flag.Float64("scan-frac", 0.15, "fraction of requests that are streaming scans")
		sets        = flag.Int("sets", 12, "distinct pattern sets in the mix")
		sloP99      = flag.Duration("slo-p99", 250*time.Millisecond, "/v1/match latency objective for the report's SLO compliance (0 disables)")
		sloScanP99  = flag.Duration("slo-scan-p99", 2*time.Second, "/v1/scan latency objective (0 disables)")
		out         = flag.String("out", "", "write the JSON report here (default stdout)")
	)
	flag.Parse()
	if !*selfcluster && *targets == "" {
		log.Fatal("pass -targets or -selfcluster")
	}

	w := newWorkload(*sets, *scanFrac)
	rep := report{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Clients:   *clients,
		DurationS: duration.Seconds(),
		ScanFrac:  *scanFrac,
	}

	if *targets != "" {
		var ts []string
		for _, t := range strings.Split(*targets, ",") {
			if t = strings.TrimSpace(t); t != "" {
				ts = append(ts, t)
			}
		}
		rep.Targets = ts
		st, samples := run(w, ts, *clients, *duration, nil)
		attachObs(&st, samples, *sloP99, *sloScanP99)
		rep.External = &st
		log.Printf("external: %d served, p50 %.2fms p99 %.2fms, %.0f rps, %d failed",
			st.Served, st.P50MS, st.P99MS, st.ThroughputRPS, st.Failed)
	}

	if *selfcluster {
		// Phase 1: single replica baseline.
		one, err := serve.BootCluster(1, serve.Config{}, nil)
		if err != nil {
			log.Fatal(err)
		}
		st1, samples1 := run(w, []string{one[0].URL}, *clients, *duration, nil)
		one[0].Kill()
		attachObs(&st1, samples1, *sloP99, *sloScanP99)
		rep.OneNode = &st1
		log.Printf("1-node: %d served, p50 %.2fms p99 %.2fms, %.0f rps, %d failed, %d rejected",
			st1.Served, st1.P50MS, st1.P99MS, st1.ThroughputRPS, st1.Failed, st1.Rejected)

		// Phase 2: three replicas; kill one at the midpoint and measure
		// how long failures persist afterwards.
		nodes, err := serve.BootCluster(3, serve.Config{}, nil)
		if err != nil {
			log.Fatal(err)
		}
		urls := []string{nodes[0].URL, nodes[1].URL, nodes[2].URL}
		var killedAt atomic.Int64
		st3, samples := run(w, urls, *clients, *duration, func() string {
			killedAt.Store(time.Now().UnixNano())
			nodes[2].Kill()
			log.Printf("killed replica %s", nodes[2].URL)
			return nodes[2].URL
		})
		attachObs(&st3, samples, *sloP99, *sloScanP99)
		rep.ThreeNode = &st3

		kt := time.Unix(0, killedAt.Load())
		ks := killStats{}
		for _, s := range samples {
			if s.kind == 'f' && s.done.After(kt) {
				ks.FailuresAfterKill++
				if s.target != nodes[2].URL {
					ks.FailuresViaSurvivors++
				}
				if ms := float64(s.done.Sub(kt)) / float64(time.Millisecond); ms > ks.RecoveryMS {
					ks.RecoveryMS = ms
				}
			}
		}
		for _, nd := range nodes[:2] {
			snap := nd.Server.Metrics().Snapshot()
			ks.DegradedServes += snap.Counter("bitgen_cluster_degraded_serves_total")
			ks.StandbyServes += snap.Counter("bitgen_cluster_standby_serves_total")
			ks.ReceivedForwards += snap.Counter("bitgen_cluster_received_forwards_total")
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			nd.Shutdown(ctx)
			cancel()
		}
		rep.Kill = &ks
		log.Printf("3-node: %d served, p50 %.2fms p99 %.2fms, %.0f rps, %d failed, %d rejected",
			st3.Served, st3.P50MS, st3.P99MS, st3.ThroughputRPS, st3.Failed, st3.Rejected)
		log.Printf("kill: recovery %.0fms, %d failures after kill (%d via survivors), standby %.0f degraded %.0f",
			ks.RecoveryMS, ks.FailuresAfterKill, ks.FailuresViaSurvivors, ks.StandbyServes, ks.DegradedServes)

		// Phase 3: cold vs warm restart. Boot a replica on a snapshot
		// directory and drive every set once (cold: all compiled,
		// persisted write-behind); restart it on the same directory and
		// drive again (warm: each miss loads its snapshot, zero compiles).
		snapDir, err := os.MkdirTemp("", "bitload-snap-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(snapDir)
		scfg := serve.Config{SnapshotDir: snapDir}
		drive := func() (first200, allSets time.Duration, compiles, warmLoads float64) {
			t0 := time.Now()
			nodes, err := serve.BootCluster(1, scfg, nil)
			if err != nil {
				log.Fatal(err)
			}
			client := &http.Client{Timeout: 10 * time.Second}
			for i, body := range w.matchBodies {
				resp, err := client.Post(nodes[0].URL+"/v1/match", "application/json", strings.NewReader(body))
				if err != nil {
					log.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					log.Fatalf("restart phase: status %d", resp.StatusCode)
				}
				if i == 0 {
					first200 = time.Since(t0)
				}
			}
			allSets = time.Since(t0)
			snap := nodes[0].Server.Metrics().Snapshot()
			compiles = snap.Counter("bitgen_serve_engine_compiles_total")
			warmLoads = snap.Counter("bitgen_snapshot_loads_total")
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			nodes[0].Shutdown(ctx)
			cancel()
			return first200, allSets, compiles, warmLoads
		}
		cf, ca, cc, _ := drive()
		wf, wa, wc, wl := drive()
		ws := warmStats{
			Sets:           len(w.matchBodies),
			ColdFirst200MS: float64(cf) / float64(time.Millisecond),
			ColdAllSetsMS:  float64(ca) / float64(time.Millisecond),
			ColdCompiles:   cc,
			WarmFirst200MS: float64(wf) / float64(time.Millisecond),
			WarmAllSetsMS:  float64(wa) / float64(time.Millisecond),
			WarmCompiles:   wc,
			WarmLoads:      wl,
		}
		rep.WarmStart = &ws
		log.Printf("restart: cold first-200 %.1fms (%.0f compiles), warm first-200 %.1fms (%.0f compiles, %.0f loaded)",
			ws.ColdFirst200MS, ws.ColdCompiles, ws.WarmFirst200MS, ws.WarmCompiles, ws.WarmLoads)
	}

	enc, _ := json.MarshalIndent(rep, "", "  ")
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else {
		if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *out)
	}
	// The failover contract, checked after the report is out so a failing
	// run still leaves its numbers.
	if rep.Kill != nil && rep.Kill.FailuresViaSurvivors > 0 {
		log.Printf("kill: %d failed requests were sent to a live replica; the failover contract is 0",
			rep.Kill.FailuresViaSurvivors)
		os.Exit(1)
	}
}
