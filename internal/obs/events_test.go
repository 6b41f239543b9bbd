package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// manualClock is a hand-advanced clock for rate-limit tests.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *manualClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	l.Emit(LevelError, "x", TraceID{}, A("k", "v"))
	(*Observer)(nil).Event(LevelError, "x", TraceID{})
	(&Observer{}).Event(LevelError, "x", TraceID{})
}

// TestEventLogRingRotation: the decision ring keeps the newest
// decisionCapacity decisions, oldest first.
func TestEventLogRingRotation(t *testing.T) {
	l := NewEventLog(EventLogConfig{})
	for i := 0; i < decisionCapacity+3; i++ {
		l.Emit(LevelWarn, fmt.Sprintf("ev%d", i), TraceID{})
	}
	evs := l.Events()
	if len(evs) != decisionCapacity || l.ring.Dropped() != 3 {
		t.Fatalf("ring holds %d, dropped %d; want %d and 3", len(evs), l.ring.Dropped(), decisionCapacity)
	}
	for i, ev := range []Span{evs[0], evs[len(evs)-1]} {
		if want := fmt.Sprintf("ev%d", 3+i*(decisionCapacity-1)); ev.Name != want || !ev.Instant {
			t.Fatalf("kept %q (instant %v), want %q", ev.Name, ev.Instant, want)
		}
	}
}

// TestEventLogRateLimitSparesWarnings: an Info flood never sheds or evicts a
// Warn decision. The bucket admits a burst and then decisionRate per second;
// Warn and Error bypass it even with no tokens left, and the flood a second
// of refill admits stays far below the ring's capacity.
func TestEventLogRateLimitSparesWarnings(t *testing.T) {
	clk := &manualClock{t: time.Unix(1000, 0)}
	l := NewEventLog(EventLogConfig{Now: clk.now})
	l.Emit(LevelWarn, "anomaly", TraceID{})
	infos := func(n int) {
		for i := 0; i < n; i++ {
			l.Emit(LevelInfo, "chatty", TraceID{})
		}
	}
	count := func(name string) (n int) {
		for _, ev := range l.Events() {
			if ev.Name == name {
				n++
			}
		}
		return n
	}
	infos(10 * decisionBurst)
	if got := count("chatty"); got != decisionBurst {
		t.Fatalf("admitted %d of a 10×burst flood, want the burst %d", got, decisionBurst)
	}
	l.Emit(LevelError, "worse", TraceID{})
	clk.advance(time.Second)
	infos(10 * decisionRate)
	if got := count("chatty"); got != decisionBurst+decisionRate {
		t.Fatalf("after 1 s of refill admitted %d, want %d", got, decisionBurst+decisionRate)
	}
	if count("anomaly") != 1 || count("worse") != 1 {
		t.Fatalf("the flood shed or evicted a Warn+ decision: %d anomaly, %d worse", count("anomaly"), count("worse"))
	}
	if lv := l.Events()[0].Args.Get("level"); lv != "warn" {
		t.Fatalf("first decision's level = %v, want warn", lv)
	}
}

func TestEventLogByTrace(t *testing.T) {
	l := NewEventLog(EventLogConfig{})
	tr := NewTraceID()
	l.Emit(LevelInfo, "other", NewTraceID())
	l.Emit(LevelWarn, "mine1", tr)
	l.Emit(LevelInfo, "untraced", TraceID{})
	l.Emit(LevelWarn, "mine2", tr)
	got := l.ByTrace(tr)
	if len(got) != 2 || got[0].Name != "mine1" || got[1].Name != "mine2" {
		t.Fatalf("ByTrace = %v", got)
	}
	if got[0].ID.IsZero() || got[0].ID == got[1].ID {
		t.Fatalf("traced decisions carry span IDs %v %v, want fresh non-zero ones", got[0].ID, got[1].ID)
	}
}

// TestEventJSONRoundTrip: a decision is written in the one Span JSON form —
// level and details as attrs — and Span → JSON → Span → JSON is
// byte-identical, so stitched remote decisions render like local ones.
func TestEventJSONRoundTrip(t *testing.T) {
	l := NewEventLog(EventLogConfig{})
	l.Emit(LevelWarn, "breaker", NewTraceID(),
		A("peer", "127.0.0.1:9"), A("streak", 3), A("burn", 14.4), A("open", true))
	first, err := json.Marshal(l.Events()[0])
	if err != nil {
		t.Fatal(err)
	}
	var back Span
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip drifted:\n first %s\nsecond %s", first, second)
	}
	if back.Name != "breaker" || !back.Instant || back.Args.Get("level") != "warn" ||
		back.Args.Get("streak") != 3.0 || back.Args.Get("burn") != 14.4 || back.Args.Get("open") != true {
		t.Fatalf("decision came back as %+v", back)
	}
}

// TestEventLogConcurrentEmitAndDump is the -race check: writers hammer the
// ring from many goroutines while readers snapshot, filter, and JSON-dump it
// concurrently (the /v1/trace/{id} path).
func TestEventLogConcurrentEmitAndDump(t *testing.T) {
	l := NewEventLog(EventLogConfig{})
	tr := NewTraceID()
	const writers, readers, perWriter = 8, 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Emit(LevelWarn, "load", tr, A("writer", w), A("seq", i))
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = l.ByTrace(tr)
				if _, err := json.Marshal(l.Events()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := l.ring.Total(); got != writers*perWriter {
		t.Fatalf("total = %d, want %d", got, writers*perWriter)
	}
	if got := len(l.ByTrace(tr)); got != writers*perWriter {
		t.Fatalf("ring holds %d of the trace's decisions, want %d", got, writers*perWriter)
	}
}
