package obs

import (
	"math/rand"
	"testing"
	"time"
)

func newTestSLO(clk *manualClock, onBurn func(string, float64)) *SLO {
	return NewSLO(SLOConfig{
		Objectives: map[string]SLOObjective{
			"match": {LatencyP99: 100 * time.Millisecond, Availability: 0.5},
		},
		BucketDur:         time.Second,
		FastWindow:        4 * time.Second,
		SlowWindow:        12 * time.Second,
		FastBurnThreshold: 1.5,
		MinWindowRequests: 10,
		Now:               clk.now,
		OnFastBurn:        onBurn,
	})
}

func TestSLONilSafe(t *testing.T) {
	var s *SLO
	s.Observe("match", time.Millisecond, false)
	if rep := s.Report(); len(rep.Endpoints) != 0 {
		t.Fatal("nil SLO reported endpoints")
	}
}

// TestSLOBurnRateMath checks the classification and burn arithmetic:
// good = not failed AND within the latency objective; burn =
// (bad/total)/(1-availability). With availability 0.5 the error budget is
// 0.5, so a half-bad window burns at exactly 1.0.
func TestSLOBurnRateMath(t *testing.T) {
	clk := &manualClock{t: time.Unix(5000, 0)}
	s := newTestSLO(clk, nil)
	for i := 0; i < 4; i++ {
		s.Observe("match", 50*time.Millisecond, false) // good
	}
	s.Observe("match", 200*time.Millisecond, false) // slow success: bad
	for i := 0; i < 4; i++ {
		s.Observe("match", 10*time.Millisecond, true) // failed: bad
	}
	s.Observe("match", 300*time.Millisecond, true) // failed and slow: one bad, not two

	rep := s.Report()
	if len(rep.Endpoints) != 1 {
		t.Fatalf("endpoints = %d, want 1", len(rep.Endpoints))
	}
	ep := rep.Endpoints[0]
	if ep.Endpoint != "match" || ep.Total != 10 || ep.Good != 4 {
		t.Fatalf("got %+v, want match total=10 good=4", ep)
	}
	if ep.Compliance != 0.4 {
		t.Fatalf("compliance = %g, want 0.4", ep.Compliance)
	}
	// bad fraction 0.6 against budget 0.5: burn 1.2 over both windows.
	if ep.BurnRateFast != 1.2 || ep.BurnRateSlow != 1.2 {
		t.Fatalf("burn fast/slow = %g/%g, want 1.2/1.2", ep.BurnRateFast, ep.BurnRateSlow)
	}
	// Budget spent: 0.6/0.5 > 1 → remaining clamps at 0.
	if ep.ErrorBudgetRemaining != 0 {
		t.Fatalf("budget remaining = %g, want 0", ep.ErrorBudgetRemaining)
	}
	if ep.ObjectiveP99MS != 100 {
		t.Fatalf("objective = %gms, want 100ms", ep.ObjectiveP99MS)
	}
}

// TestSLOFastBurnEdgeTriggered: OnFastBurn fires once on entering fast
// burn, stays silent while burning, and re-arms only after the burn rate
// drops below the threshold.
func TestSLOFastBurnEdgeTriggered(t *testing.T) {
	clk := &manualClock{t: time.Unix(5000, 0)}
	var fires []float64
	s := newTestSLO(clk, func(ep string, burn float64) {
		if ep != "match" {
			t.Errorf("fired for endpoint %q", ep)
		}
		fires = append(fires, burn)
	})
	// Nine bad requests: window below MinWindowRequests, must not fire.
	for i := 0; i < 9; i++ {
		s.Observe("match", time.Millisecond, true)
	}
	if len(fires) != 0 {
		t.Fatalf("fired below MinWindowRequests: %v", fires)
	}
	// Tenth bad request: burn (10/10)/0.5 = 2.0 ≥ 1.5 → one fire.
	s.Observe("match", time.Millisecond, true)
	if len(fires) != 1 || fires[0] != 2.0 {
		t.Fatalf("fires = %v, want [2]", fires)
	}
	// Still burning: more bad traffic must not re-fire.
	s.Observe("match", time.Millisecond, true)
	s.Observe("match", time.Millisecond, true)
	if len(fires) != 1 {
		t.Fatalf("re-fired while already burning: %v", fires)
	}
	if !s.Report().Endpoints[0].FastBurn {
		t.Fatal("report should flag fast burn")
	}
	// Recover: good traffic until 12 bad / 17 total = 0.706 bad → burn
	// 1.41 < 1.5 re-arms the trigger.
	for i := 0; i < 5; i++ {
		s.Observe("match", time.Millisecond, false)
	}
	if len(fires) != 1 {
		t.Fatalf("recovery fired: %v", fires)
	}
	// Degrade again: 14 bad / 19 total = 0.737 bad → burn 1.47 still
	// below; 15/20 = 0.75 → burn 1.5 hits the threshold → second fire.
	s.Observe("match", time.Millisecond, true)
	s.Observe("match", time.Millisecond, true)
	s.Observe("match", time.Millisecond, true)
	if len(fires) != 2 {
		t.Fatalf("fires = %v, want a second fire at burn 1.5", fires)
	}
	if fires[1] != 1.5 {
		t.Fatalf("second fire burn = %g, want 1.5", fires[1])
	}
}

// TestSLOWindowRotation: idling past the whole slow window empties the
// burn windows while lifetime totals persist.
func TestSLOWindowRotation(t *testing.T) {
	clk := &manualClock{t: time.Unix(5000, 0)}
	s := newTestSLO(clk, nil)
	for i := 0; i < 20; i++ {
		s.Observe("match", time.Millisecond, true)
	}
	if rep := s.Report(); rep.Endpoints[0].BurnRateFast != 2.0 {
		t.Fatalf("burn = %g, want 2.0", rep.Endpoints[0].BurnRateFast)
	}
	clk.advance(13 * time.Second) // beyond the 12s slow window
	s.Observe("match", time.Millisecond, false)
	ep := s.Report().Endpoints[0]
	if ep.BurnRateFast != 0 || ep.BurnRateSlow != 0 {
		t.Fatalf("windows kept stale buckets: fast %g slow %g", ep.BurnRateFast, ep.BurnRateSlow)
	}
	if ep.Total != 21 || ep.Good != 1 {
		t.Fatalf("lifetime totals lost: %+v", ep)
	}
}

// TestSLOUnknownEndpointDefaults: endpoints without a configured
// objective are tracked with the default availability and no latency
// criterion.
func TestSLOUnknownEndpointDefaults(t *testing.T) {
	clk := &manualClock{t: time.Unix(5000, 0)}
	s := newTestSLO(clk, nil)
	s.Observe("scan", time.Hour, false) // slow but no latency objective → good
	var ep SLOEndpointReport
	for _, e := range s.Report().Endpoints {
		if e.Endpoint == "scan" {
			ep = e
		}
	}
	if ep.Endpoint != "scan" || ep.Good != 1 || ep.Availability != DefaultAvailability {
		t.Fatalf("scan endpoint = %+v", ep)
	}
	if ep.ObjectiveP99MS != 0 {
		t.Fatalf("scan picked up a latency objective: %+v", ep)
	}
}

// TestSLOMetricsRegistered: with a registry attached, observations land
// in the bitgen_slo_* families.
func TestSLOMetricsRegistered(t *testing.T) {
	clk := &manualClock{t: time.Unix(5000, 0)}
	reg := NewRegistry()
	s := NewSLO(SLOConfig{
		Objectives: map[string]SLOObjective{"match": {Availability: 0.5}},
		Now:        clk.now,
		Metrics:    reg,
	})
	s.Observe("match", 10*time.Millisecond, false)
	s.Observe("match", 10*time.Millisecond, true)
	snap := reg.Snapshot()
	key := MSLORequests + `{endpoint="match"}`
	if got := snap.Counters[key]; got != 2 {
		t.Fatalf("%s = %g, want 2", key, got)
	}
	if got := snap.Counters[MSLOGood+`{endpoint="match"}`]; got != 1 {
		t.Fatalf("good = %g, want 1", got)
	}
	if got := snap.Counters[MSLOBreaches+`{endpoint="match"}`]; got != 1 {
		t.Fatalf("breaches = %g, want 1", got)
	}
	h, ok := snap.Histograms[MSLOLatency+`{endpoint="match"}`]
	if !ok || h.Count != 2 {
		t.Fatalf("latency histogram = %+v ok=%v", h, ok)
	}
}

// TestSLORunningWindowsMatchResum: the fast and slow sums Observe keeps
// current equal a re-sum of the ring's newest buckets, through rotations past
// both window lengths, idle gaps shorter and longer than either, and with the
// two windows equal (one bucket leaves both at once).
func TestSLORunningWindowsMatchResum(t *testing.T) {
	resum := func(ep *sloEndpoint, n int) (w sloBucket) {
		for i := 0; i < n; i++ {
			b := ep.ring[(ep.head-i+len(ep.ring))%len(ep.ring)]
			w.good += b.good
			w.total += b.total
		}
		return w
	}
	for _, fast := range []time.Duration{3 * time.Second, 12 * time.Second} {
		clk := &manualClock{t: time.Unix(9000, 0)}
		s := NewSLO(SLOConfig{BucketDur: time.Second, FastWindow: fast, SlowWindow: 12 * time.Second, Now: clk.now})
		rng := rand.New(rand.NewSource(int64(fast)))
		for i := 0; i < 2000; i++ {
			switch r := rng.Intn(100); {
			case r < 60: // same bucket
			case r < 97:
				clk.advance(time.Duration(1+rng.Intn(2500)) * time.Millisecond)
			default:
				clk.advance(time.Duration(10+rng.Intn(8)) * time.Second) // around the slow window
			}
			s.Observe("match", time.Millisecond, rng.Intn(3) == 0)
			ep := s.eps["match"]
			if f, w := resum(ep, s.nfast), resum(ep, s.nwin); ep.fast != f || ep.slow != w {
				t.Fatalf("fast window %v, step %d: running sums fast %+v slow %+v, re-sum %+v %+v", fast, i, ep.fast, ep.slow, f, w)
			}
		}
	}
}
