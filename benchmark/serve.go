package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"time"

	"bitgen"
	"bitgen/internal/obs"
	"bitgen/internal/serve"
	"bitgen/internal/workload"
)

// The serve_mixed traffic: serveSets pattern sets of servePatterns
// Bro217-style patterns; each set owns matchWindows 4 KiB /v1/match inputs
// and scanWindows 16 KiB /v1/scan bodies cut from its generated traffic.
const (
	serveSets     = 8
	servePatterns = 9
	matchWindows  = 8
	matchBytes    = 4 << 10
	scanWindows   = 2
	scanBytes     = 16 << 10
	scanShare     = 0.15
	// serveClients closed-loop clients each wait for their reply before
	// posting again: bitgend callers are synchronous posters. Two matches
	// the reference box's core count and stays fixed so hosts compare.
	serveClients = 2
)

// request is one precomputed HTTP request and the index of its expected
// matches in job.expected.
type request struct {
	scan   bool
	url    string
	body   []byte
	set    int
	expect int
}

// serveSession is a booted server and the client side of the closed loop.
type serveSession struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	j      *job
	match  [][]request // [set][window]
	scans  [][]request
}

func genServeMixed(seed int64, sz sizes) (*job, error) {
	j := &job{name: "serve_mixed", clients: serveClients, tailPct: 0.99}
	t0 := time.Now()
	var inputs [][]byte
	match := make([][]request, serveSets)
	scans := make([][]request, serveSets)
	for set := 0; set < serveSets; set++ {
		app, err := workload.Load("Bro217", workload.Options{
			RegexScale: float64(servePatterns) / 227,
			InputBytes: matchWindows*matchBytes + scanWindows*scanBytes,
			Seed:       seed*serveSets + int64(set),
		})
		if err != nil {
			return nil, err
		}
		if len(app.Patterns) != servePatterns {
			return nil, fmt.Errorf("serve_mixed: set %d has %d patterns, want %d", set, len(app.Patterns), servePatterns)
		}
		j.sets = append(j.sets, app.Patterns)
		inputs = append(inputs, app.Input)
		oracle, err := newOracle(app.Patterns, nil)
		if err != nil {
			return nil, err
		}
		q := url.Values{"pattern": app.Patterns}
		for w, off := 0, 0; w < matchWindows+scanWindows; w++ {
			r := request{set: set, expect: len(j.expected)}
			if w < matchWindows {
				in := app.Input[off : off+matchBytes]
				off += matchBytes
				r.url = "/v1/match"
				if r.body, err = json.Marshal(map[string]any{"patterns": app.Patterns, "input": string(in)}); err != nil {
					return nil, err
				}
				want, err := oracle(in)
				if err != nil {
					return nil, err
				}
				j.expected = append(j.expected, want)
				match[set] = append(match[set], r)
				continue
			}
			r.scan, r.url, r.body = true, "/v1/scan?"+q.Encode(), app.Input[off:off+scanBytes]
			off += scanBytes
			want, err := oracle(r.body)
			if err != nil {
				return nil, err
			}
			j.expected = append(j.expected, want)
			scans[set] = append(scans[set], r)
		}
	}
	j.verifyS = time.Since(t0).Seconds()
	j.digest = digest(j.sets, inputs...)
	j.sample = inputs[0]
	j.start = func() (*session, bool, error) {
		srv, err := serve.New(serve.Config{})
		if err != nil {
			return nil, false, err
		}
		ss := &serveSession{srv: srv, ts: httptest.NewServer(srv.Handler()), j: j, match: match, scans: scans}
		ss.client = &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
		s := &session{serve: ss}
		s.close = func() {
			ss.client.CloseIdleConnections()
			ss.ts.Close()
			srv.Close()
		}
		s.op = func(_ int, rng *rand.Rand) (int64, bool) {
			set := rng.Intn(serveSets)
			r := match[set][rng.Intn(matchWindows)]
			if rng.Float64() < scanShare {
				r = scans[set][rng.Intn(scanWindows)]
			}
			return int64(len(r.body)), !ss.roundTrip(r)
		}
		s.resident = func() int64 {
			return int64(srv.Metrics().Snapshot().Gauges[obs.MServeResidentBytes])
		}
		// Warm the registry: the first request of each set compiles it.
		failed := false
		for set := 0; set < serveSets; set++ {
			if !ss.roundTrip(match[set][0]) || !ss.roundTrip(scans[set][0]) {
				failed = true
			}
		}
		return s, failed, nil
	}
	return j, nil
}

// matchReply and scanLine are the fields of the wire format the check
// reads. A scan streams one scanLine per match and ends with a trailer
// that carries Done.
type matchReply struct {
	Matches []wireMatch `json:"matches"`
}

type wireMatch struct {
	Pattern string `json:"pattern"`
	Index   int    `json:"index"`
	End     int    `json:"end"`
}

type scanLine struct {
	wireMatch
	Done    *bool  `json:"done"`
	Matches int    `json:"matches"`
	Error   string `json:"error"`
}

// roundTrip posts r over loopback, waits for the whole reply and checks it
// against the oracle. A refusal (429/503), a transport error or a wrong
// match all count as failed.
func (ss *serveSession) roundTrip(r request) bool {
	ctype := "application/json"
	if r.scan {
		ctype = "application/octet-stream"
	}
	resp, err := ss.client.Post(ss.ts.URL+r.url, ctype, bytes.NewReader(r.body))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return false
	}
	return ss.check(r, resp.Body)
}

func (ss *serveSession) check(r request, body io.Reader) bool {
	var got []wireMatch
	if r.scan {
		done := false
		sc := bufio.NewScanner(body)
		for sc.Scan() {
			var line scanLine
			if json.Unmarshal(sc.Bytes(), &line) != nil {
				return false
			}
			if line.Done != nil {
				done = *line.Done && line.Error == "" && line.Matches == len(got)
				break
			}
			got = append(got, line.wireMatch)
		}
		if !done {
			return false
		}
	} else {
		var reply matchReply
		if json.NewDecoder(body).Decode(&reply) != nil {
			return false
		}
		got = reply.Matches
	}
	want := ss.j.expected[r.expect]
	if len(got) != len(want) {
		return false
	}
	patterns := ss.j.sets[r.set]
	for i, m := range got {
		if int64(m.End) != want[i].End || m.Index != want[i].Index || m.Pattern != patterns[m.Index] {
			return false
		}
	}
	return true
}

// ledger measures the serve rows: the handler without TCP, the loopback
// round trip of a match and of a streaming scan, the engine alone on the
// match's input, and a cold first request.
func (ss *serveSession) ledger(rec *recorder, parent, reps int) (map[string]float64, error) {
	r := ss.match[0][0]
	n := 40 * reps
	handler := ss.srv.Handler()
	var handlerUS, loopUS, scanUS, engineUS []float64
	ok := true
	for i := 0; i < n; i++ {
		req := httptest.NewRequest(http.MethodPost, r.url, bytes.NewReader(r.body))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		d := rec.timed("serve.Handler.ServeHTTP", parent, func() { handler.ServeHTTP(w, req) })
		handlerUS = append(handlerUS, micros(d))
		ok = ok && w.Code == http.StatusOK && ss.check(r, w.Body)
		d = rec.timed("http.Post /v1/match", parent, func() { ok = ss.roundTrip(r) && ok })
		loopUS = append(loopUS, micros(d))
		d = rec.timed("http.Post /v1/scan", parent, func() { ok = ss.roundTrip(ss.scans[0][0]) && ok })
		scanUS = append(scanUS, micros(d))
	}
	// The engine alone, on the same 4 KiB input, compiled as the server does.
	eng, err := bitgen.Compile(ss.j.sets[0], &bitgen.Options{Observability: &bitgen.ObservabilityOptions{Metrics: true, Trace: true}})
	if err != nil {
		return nil, err
	}
	var in struct {
		Input string `json:"input"`
	}
	if err := json.Unmarshal(r.body, &in); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		d := rec.timed("bitgen.Engine.Run", parent, func() {
			_, err = eng.Run([]byte(in.Input))
		})
		if err != nil {
			return nil, err
		}
		engineUS = append(engineUS, micros(d))
	}
	// A pattern set the registry has never seen: compile on the request path.
	cold := request{url: "/v1/match", set: 0, expect: r.expect}
	fresh := append([]string{"neverseen[0-9]{3}"}, ss.j.sets[0]...)
	if cold.body, err = json.Marshal(map[string]any{"patterns": fresh, "input": "x"}); err != nil {
		return nil, err
	}
	coldD := rec.timed("http.Post /v1/match cold", parent, func() {
		resp, perr := ss.client.Post(ss.ts.URL+cold.url, "application/json", bytes.NewReader(cold.body))
		if perr != nil {
			ok = false
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ok = ok && resp.StatusCode == http.StatusOK
	})
	if !ok {
		return nil, fmt.Errorf("serve ledger: a reply was refused or differed from the oracle")
	}
	h, l, e := summarize(handlerUS).Median, summarize(loopUS).Median, summarize(engineUS).Median
	snap := ss.srv.Metrics().Snapshot()
	out := map[string]float64{
		"serve.handler_us":        h,
		"serve.http_overhead_us":  l - h,
		"serve.scan_roundtrip_us": summarize(scanUS).Median,
		"serve.engine_share":      e / h,
		"serve.cold_first_ms":     coldD.Seconds() * 1e3,
		"serve.cache_hits":        snap.Counters[obs.MServeCacheHits],
		"serve.compiles":          snap.Counters[obs.MServeCompiles],
		"serve.rejected":          snap.Counters[obs.MServeRejected],
	}
	if b := snap.Counters[obs.MServeBatches]; b > 0 {
		out["serve.batch_mean"] = snap.Counters[obs.MServeBatchedRequests] / b
	}
	return out, nil
}
