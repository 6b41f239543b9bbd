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
	l.Emit(LevelError, "x", TraceID{}, FStr("k", "v"))
	if l.Events() != nil || l.ByTrace(NewTraceID()) != nil {
		t.Fatal("nil log returned events")
	}
	if l.Total() != 0 || l.Dropped() != 0 {
		t.Fatal("nil log has counts")
	}
}

// TestEventLogDisabledZeroAlloc is the ISSUE's cost contract: emitting
// into a nil (disabled) event log must not allocate — the variadic field
// slice stays on the caller's stack. Guarded here as a test so -race CI
// runs it; BenchmarkEventLogDisabled reports the same number.
func TestEventLogDisabledZeroAlloc(t *testing.T) {
	var l *EventLog
	tr := NewTraceID()
	allocs := testing.AllocsPerRun(1000, func() {
		l.Emit(LevelWarn, "breaker", tr,
			FStr("peer", "p"), FStr("from", "closed"), FStr("to", "open"),
			FInt("streak", 3), FFloat("burn", 1.5), FBool("hedged", true))
	})
	if allocs != 0 {
		t.Fatalf("disabled Emit allocates %v times per call, want 0", allocs)
	}
}

func BenchmarkEventLogDisabled(b *testing.B) {
	var l *EventLog
	tr := NewTraceID()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Emit(LevelWarn, "breaker", tr,
			FStr("peer", "p"), FStr("from", "closed"), FStr("to", "open"),
			FInt("streak", 3))
	}
}

func TestEventLogRingRotation(t *testing.T) {
	l := NewEventLog(EventLogConfig{Capacity: 4, RatePerSec: -1})
	for i := 0; i < 7; i++ {
		l.Emit(LevelInfo, fmt.Sprintf("ev%d", i), TraceID{})
	}
	if l.Total() != 7 {
		t.Fatalf("total = %d, want 7", l.Total())
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := fmt.Sprintf("ev%d", i+3); ev.Type != want {
			t.Fatalf("evs[%d] = %q, want %q (oldest first)", i, ev.Type, want)
		}
	}
}

func TestEventLogMinLevel(t *testing.T) {
	l := NewEventLog(EventLogConfig{Capacity: 8, MinLevel: LevelWarn, RatePerSec: -1})
	l.Emit(LevelDebug, "d", TraceID{})
	l.Emit(LevelInfo, "i", TraceID{})
	l.Emit(LevelWarn, "w", TraceID{})
	l.Emit(LevelError, "e", TraceID{})
	evs := l.Events()
	if len(evs) != 2 || evs[0].Type != "w" || evs[1].Type != "e" {
		t.Fatalf("MinLevel=warn admitted %v", evs)
	}
}

func TestEventLogRateLimitSparesWarnings(t *testing.T) {
	clk := &manualClock{t: time.Unix(1000, 0)}
	l := NewEventLog(EventLogConfig{Capacity: 64, RatePerSec: 2, Burst: 2, Now: clk.now})
	for i := 0; i < 5; i++ {
		l.Emit(LevelInfo, "chatty", TraceID{})
	}
	if got := l.Total(); got != 2 {
		t.Fatalf("admitted %d info events with burst 2, want 2", got)
	}
	if got := l.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	// Warn and Error bypass the limiter even with zero tokens.
	l.Emit(LevelWarn, "anomaly", TraceID{})
	l.Emit(LevelError, "worse", TraceID{})
	if got := l.Total(); got != 4 {
		t.Fatalf("warn/error were shed: total %d, want 4", got)
	}
	// Tokens refill with time: 1s at 2/s admits two more info events.
	clk.advance(time.Second)
	l.Emit(LevelInfo, "later1", TraceID{})
	l.Emit(LevelInfo, "later2", TraceID{})
	l.Emit(LevelInfo, "later3", TraceID{})
	if got := l.Total(); got != 6 {
		t.Fatalf("after refill total = %d, want 6", got)
	}
}

func TestEventLogOnEventFiresWarnAndAbove(t *testing.T) {
	var fired []string
	l := NewEventLog(EventLogConfig{
		Capacity:   8,
		RatePerSec: -1,
		OnEvent:    func(ev LogEvent) { fired = append(fired, ev.Type) },
	})
	l.Emit(LevelDebug, "d", TraceID{})
	l.Emit(LevelInfo, "i", TraceID{})
	l.Emit(LevelWarn, "w", TraceID{})
	l.Emit(LevelError, "e", TraceID{})
	if len(fired) != 2 || fired[0] != "w" || fired[1] != "e" {
		t.Fatalf("OnEvent fired for %v, want [w e]", fired)
	}
}

func TestEventLogByTrace(t *testing.T) {
	l := NewEventLog(EventLogConfig{Capacity: 16, RatePerSec: -1})
	tr := NewTraceID()
	l.Emit(LevelInfo, "other", NewTraceID())
	l.Emit(LevelWarn, "mine1", tr)
	l.Emit(LevelInfo, "untraced", TraceID{})
	l.Emit(LevelWarn, "mine2", tr)
	got := l.ByTrace(tr)
	if len(got) != 2 || got[0].Type != "mine1" || got[1].Type != "mine2" {
		t.Fatalf("ByTrace = %v", got)
	}
	if l.ByTrace(TraceID{}) != nil {
		t.Fatal("ByTrace(zero) should return nothing")
	}
}

func TestEventLogFieldOverflowTruncates(t *testing.T) {
	l := NewEventLog(EventLogConfig{Capacity: 4, RatePerSec: -1})
	fields := make([]Field, MaxEventFields+3)
	for i := range fields {
		fields[i] = FInt(fmt.Sprintf("f%d", i), int64(i))
	}
	l.Emit(LevelInfo, "wide", TraceID{}, fields...)
	evs := l.Events()
	if len(evs) != 1 || int(evs[0].NFields) != MaxEventFields {
		t.Fatalf("wide event kept %d fields, want %d", evs[0].NFields, MaxEventFields)
	}
}

// TestEventJSONRoundTrip: MarshalJSON → UnmarshalJSON → MarshalJSON is
// byte-identical, so stitched fragments from other nodes render the same
// as local events (integral floats come back as ints, field order is
// canonical because the JSON object is rendered from a sorted map).
func TestEventJSONRoundTrip(t *testing.T) {
	l := NewEventLog(EventLogConfig{Capacity: 4, RatePerSec: -1})
	l.Emit(LevelWarn, "breaker", NewTraceID(),
		FStr("peer", "127.0.0.1:9"), FInt("streak", 3),
		FFloat("burn", 14.4), FBool("open", true))
	ev := l.Events()[0]
	first, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var back LogEvent
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
	if v, ok := back.Field("streak"); !ok || v != "3" {
		t.Fatalf("streak came back %q", v)
	}
	if v, ok := back.Field("burn"); !ok || v != "14.4" {
		t.Fatalf("burn came back %q", v)
	}
}

// TestEventLogConcurrentEmitAndDump is the -race satellite: writers
// hammer the ring from many goroutines while readers snapshot, filter,
// and JSON-dump it concurrently (the flight recorder's bundle path).
func TestEventLogConcurrentEmitAndDump(t *testing.T) {
	l := NewEventLog(EventLogConfig{Capacity: 128, RatePerSec: -1})
	tr := NewTraceID()
	const writers, readers, perWriter = 8, 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Emit(LevelWarn, "load", tr,
					FInt("writer", int64(w)), FInt("seq", int64(i)))
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = l.Events()
				_ = l.ByTrace(tr)
				if _, err := json.Marshal(l.Events()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := l.Total(); got != writers*perWriter {
		t.Fatalf("total = %d, want %d", got, writers*perWriter)
	}
	if got := len(l.Events()); got != 128 {
		t.Fatalf("ring holds %d, want capacity 128", got)
	}
}
