package obs

import (
	"sort"
	"sync"
	"time"
)

// The SLO layer tracks per-endpoint latency/availability objectives the
// way the multi-window burn-rate practice does: every request is "good"
// if it neither errored nor exceeded the endpoint's latency objective;
// the error budget is 1-availability; the burn rate over a window is
// (bad/total)/(1-availability), so burn 1.0 spends the budget exactly at
// the sustainable rate and burn 14.4 over a 5-minute window exhausts a
// 30-day budget in ~2 days (the classic fast-burn page threshold).
// Requests are bucketed into a rolling ring of fixed-duration bins and
// the fast/slow windows are sums over the most recent bins.

// SLOObjective is one endpoint's objective.
type SLOObjective struct {
	// LatencyP99 marks a request "bad" when it takes longer, even if it
	// succeeded. Zero disables the latency criterion.
	LatencyP99 time.Duration
	// Availability is the good-request objective (e.g. 0.999). The error
	// budget is 1-Availability.
	Availability float64
}

// SLOConfig configures NewSLO. Zero values get defaults.
type SLOConfig struct {
	// Objectives maps endpoint name to objective. Endpoints not listed
	// are tracked with DefaultAvailability and no latency criterion.
	Objectives map[string]SLOObjective
	// BucketDur is the rolling-ring resolution (default 5s).
	BucketDur time.Duration
	// FastWindow / SlowWindow are the burn-rate windows (default 5m/1h).
	FastWindow, SlowWindow time.Duration
	// FastBurnThreshold triggers OnFastBurn when the fast-window burn
	// rate reaches it (default 14.4; negative disables).
	FastBurnThreshold float64
	// MinWindowRequests gates burn evaluation: windows with fewer
	// requests are too noisy to page on (default 20).
	MinWindowRequests uint64
	// Now overrides the clock (tests).
	Now func() time.Time
	// Metrics, when set, registers the bitgen_slo_* families.
	Metrics *Registry
	// OnFastBurn fires (edge-triggered, outside the lock) when an
	// endpoint enters fast burn — the flight-recorder anomaly hook.
	OnFastBurn func(endpoint string, burn float64)
}

// DefaultAvailability is the availability objective applied when an
// endpoint has none configured.
const DefaultAvailability = 0.999

// DefaultFastBurnThreshold is the fast-window burn rate that signals an
// anomaly.
const DefaultFastBurnThreshold = 14.4

type sloBucket struct{ good, total uint64 }

type sloEndpoint struct {
	name string
	obj  SLOObjective

	hist     *Histogram
	totalC   *Counter
	goodC    *Counter
	breachC  *Counter
	burnFast *Gauge
	burnSlow *Gauge
	budget   *Gauge

	good, total uint64 // lifetime
	ring        []sloBucket
	fast, slow  sloBucket // sums of the newest nfast buckets and of the whole ring
	head        int       // index of the current bucket
	headStart   time.Time // start of the current bucket
	burning     bool      // inside a fast-burn episode (edge trigger)
}

// SLO is the per-endpoint objective tracker. A nil *SLO is inert.
type SLO struct {
	cfg     SLOConfig
	now     func() time.Time
	nwin    int // ring length: SlowWindow / BucketDur
	nfast   int // buckets in the fast window
	reg     *Registry
	onBurn  func(string, float64)
	mu      sync.Mutex
	eps     map[string]*sloEndpoint
	started time.Time
}

// SLOLatencyBuckets are the histogram bounds for end-to-end request
// latency: 1ms to 30s.
var SLOLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// NewSLO builds an SLO tracker; see SLOConfig.
func NewSLO(cfg SLOConfig) *SLO {
	if cfg.BucketDur <= 0 {
		cfg.BucketDur = 5 * time.Second
	}
	if cfg.FastWindow <= 0 {
		cfg.FastWindow = 5 * time.Minute
	}
	if cfg.SlowWindow <= 0 {
		cfg.SlowWindow = time.Hour
	}
	if cfg.FastBurnThreshold == 0 {
		cfg.FastBurnThreshold = DefaultFastBurnThreshold
	}
	if cfg.MinWindowRequests == 0 {
		cfg.MinWindowRequests = 20
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	nwin := int(cfg.SlowWindow / cfg.BucketDur)
	if nwin < 1 {
		nwin = 1
	}
	nfast := int(cfg.FastWindow / cfg.BucketDur)
	if nfast < 1 {
		nfast = 1
	}
	if nfast > nwin {
		nfast = nwin
	}
	return &SLO{
		cfg:     cfg,
		now:     now,
		nwin:    nwin,
		nfast:   nfast,
		reg:     cfg.Metrics,
		onBurn:  cfg.OnFastBurn,
		eps:     make(map[string]*sloEndpoint),
		started: now(),
	}
}

func (s *SLO) endpointLocked(name string, now time.Time) *sloEndpoint {
	ep := s.eps[name]
	if ep != nil {
		return ep
	}
	obj, ok := s.cfg.Objectives[name]
	if !ok {
		obj = SLOObjective{Availability: DefaultAvailability}
	}
	if obj.Availability <= 0 || obj.Availability >= 1 {
		obj.Availability = DefaultAvailability
	}
	ep = &sloEndpoint{
		name:      name,
		obj:       obj,
		ring:      make([]sloBucket, s.nwin),
		headStart: now,
	}
	if s.reg != nil {
		lbl := L("endpoint", name)
		ep.hist = s.reg.Histogram(MSLOLatency, HSLOLatency, SLOLatencyBuckets, lbl)
		ep.totalC = s.reg.Counter(MSLORequests, HSLORequests, lbl)
		ep.goodC = s.reg.Counter(MSLOGood, HSLOGood, lbl)
		ep.breachC = s.reg.Counter(MSLOBreaches, HSLOBreaches, lbl)
		ep.burnFast = s.reg.Gauge(MSLOBurnFast, HSLOBurnFast, lbl)
		ep.burnSlow = s.reg.Gauge(MSLOBurnSlow, HSLOBurnSlow, lbl)
		ep.budget = s.reg.Gauge(MSLOBudget, HSLOBudget, lbl)
	}
	s.eps[name] = ep
	return ep
}

// rotateLocked advances the endpoint's ring so headStart covers now.
func (s *SLO) rotateLocked(ep *sloEndpoint, now time.Time) {
	steps := 0
	for now.Sub(ep.headStart) >= s.cfg.BucketDur {
		ep.headStart = ep.headStart.Add(s.cfg.BucketDur)
		ep.head = (ep.head + 1) % s.nwin
		// The new head's old contents leave the slow window, the bucket nfast
		// back the fast one (the same bucket when the windows are equal).
		ep.slow.sub(ep.ring[ep.head])
		ep.fast.sub(ep.ring[(ep.head-s.nfast+s.nwin)%s.nwin])
		ep.ring[ep.head] = sloBucket{}
		if steps++; steps > s.nwin {
			// Idle longer than the whole window: the ring is all-zero
			// now, just re-anchor.
			ep.headStart = now
			break
		}
	}
}

func (b *sloBucket) sub(o sloBucket) { b.good, b.total = b.good-o.good, b.total-o.total }

func (b *sloBucket) add(good bool) {
	b.total++
	if good {
		b.good++
	}
}

func burnRate(good, total uint64, availability float64) float64 {
	if total == 0 {
		return 0
	}
	budget := 1 - availability
	if budget <= 0 {
		return 0
	}
	bad := float64(total-good) / float64(total)
	return bad / budget
}

// Observe records one completed request. failed marks server-side
// failure (5xx); the latency objective is applied on top. Nil-safe.
func (s *SLO) Observe(endpoint string, d time.Duration, failed bool) {
	if s == nil {
		return
	}
	now := s.now()
	good := !failed
	var fire float64
	fireBurn := false

	s.mu.Lock()
	ep := s.endpointLocked(endpoint, now)
	if good && ep.obj.LatencyP99 > 0 && d > ep.obj.LatencyP99 {
		good = false
	}
	s.rotateLocked(ep, now)
	ep.ring[ep.head].add(good)
	ep.fast.add(good)
	ep.slow.add(good)
	ep.total++
	if good {
		ep.good++
	}
	ft := ep.fast.total
	fast := burnRate(ep.fast.good, ft, ep.obj.Availability)
	slow := burnRate(ep.slow.good, ep.slow.total, ep.obj.Availability)
	ep.burnFast.Set(fast)
	ep.burnSlow.Set(slow)
	ep.budget.Set(budgetRemaining(ep.good, ep.total, ep.obj.Availability))
	if s.cfg.FastBurnThreshold > 0 && ft >= s.cfg.MinWindowRequests {
		if fast >= s.cfg.FastBurnThreshold && !ep.burning {
			ep.burning = true
			fire, fireBurn = fast, true
		} else if fast < s.cfg.FastBurnThreshold {
			ep.burning = false
		}
	}
	s.mu.Unlock()

	ep.hist.Observe(d.Seconds())
	ep.totalC.Inc()
	if good {
		ep.goodC.Inc()
	} else {
		ep.breachC.Inc()
	}
	if fireBurn && s.onBurn != nil {
		s.onBurn(endpoint, fire)
	}
}

func maxU(v uint64) float64 {
	if v == 0 {
		return 1
	}
	return float64(v)
}

// budgetRemaining returns the fraction of the lifetime error budget left:
// 1 - (observed bad fraction)/(allowed bad fraction), clamped at 0.
func budgetRemaining(good, total uint64, availability float64) float64 {
	if total == 0 {
		return 1
	}
	budget := 1 - availability
	if budget <= 0 {
		return 0
	}
	spent := (float64(total-good) / float64(total)) / budget
	if spent >= 1 {
		return 0
	}
	return 1 - spent
}

// SLOEndpointReport is one endpoint's compliance view.
type SLOEndpointReport struct {
	Endpoint             string  `json:"endpoint"`
	ObjectiveP99MS       float64 `json:"objective_p99_ms,omitempty"`
	Availability         float64 `json:"availability_objective"`
	Total                uint64  `json:"total"`
	Good                 uint64  `json:"good"`
	Compliance           float64 `json:"compliance"`
	ErrorBudgetRemaining float64 `json:"error_budget_remaining"`
	BurnRateFast         float64 `json:"burn_rate_fast"`
	BurnRateSlow         float64 `json:"burn_rate_slow"`
	FastBurn             bool    `json:"fast_burn"`
	ObservedP50MS        float64 `json:"observed_p50_ms"`
	ObservedP99MS        float64 `json:"observed_p99_ms"`
}

// SLOReport is the /v1/slo payload.
type SLOReport struct {
	GeneratedUnixMicro int64               `json:"generated_us"`
	FastWindowSeconds  float64             `json:"fast_window_seconds"`
	SlowWindowSeconds  float64             `json:"slow_window_seconds"`
	FastBurnThreshold  float64             `json:"fast_burn_threshold"`
	Endpoints          []SLOEndpointReport `json:"endpoints"`
}

// Report summarizes every tracked endpoint (sorted by name). Nil-safe.
func (s *SLO) Report() SLOReport {
	if s == nil {
		return SLOReport{}
	}
	now := s.now()
	rep := SLOReport{
		GeneratedUnixMicro: now.UnixMicro(),
		FastWindowSeconds:  s.cfg.FastWindow.Seconds(),
		SlowWindowSeconds:  s.cfg.SlowWindow.Seconds(),
		FastBurnThreshold:  s.cfg.FastBurnThreshold,
	}
	s.mu.Lock()
	names := make([]string, 0, len(s.eps))
	for n := range s.eps {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ep := s.eps[n]
		s.rotateLocked(ep, now)
		er := SLOEndpointReport{
			Endpoint:             n,
			ObjectiveP99MS:       float64(ep.obj.LatencyP99) / float64(time.Millisecond),
			Availability:         ep.obj.Availability,
			Total:                ep.total,
			Good:                 ep.good,
			Compliance:           float64(ep.good) / maxU(ep.total),
			ErrorBudgetRemaining: budgetRemaining(ep.good, ep.total, ep.obj.Availability),
			BurnRateFast:         burnRate(ep.fast.good, ep.fast.total, ep.obj.Availability),
			BurnRateSlow:         burnRate(ep.slow.good, ep.slow.total, ep.obj.Availability),
			FastBurn:             ep.burning,
		}
		if ep.hist != nil {
			hs := ep.hist.snapshot()
			er.ObservedP50MS = hs.Quantile(0.50) * 1000
			er.ObservedP99MS = hs.Quantile(0.99) * 1000
		}
		rep.Endpoints = append(rep.Endpoints, er)
	}
	s.mu.Unlock()
	return rep
}
