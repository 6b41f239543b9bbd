package obs

import (
	"context"
	"strings"
	"testing"
)

func TestTraceHeaderRoundTrip(t *testing.T) {
	tc := NewTraceContext()
	h := tc.Header()
	if len(h) != 49 || h[32] != '-' {
		t.Fatalf("header %q is not <32hex>-<16hex>", h)
	}
	if h != strings.ToLower(h) {
		t.Fatalf("header %q is not lowercase", h)
	}
	back, ok := ParseTraceHeader(h)
	if !ok || back != tc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", back, ok, tc)
	}
	// The deep bit is an optional third field: 51 bytes with it, and the
	// 49-byte form — all a peer from before the field sends — is not deep.
	tc.Deep = true
	deep := tc.Header()
	if deep != h+"-1" {
		t.Fatalf("deep header %q, want %q", deep, h+"-1")
	}
	if back, ok := ParseTraceHeader(deep); !ok || back != tc {
		t.Fatalf("deep round trip: got %+v ok=%v, want %+v", back, ok, tc)
	}
	if back, ok := ParseTraceHeader(h + "-0"); !ok || back.Deep || back.Trace != tc.Trace || back.Span != tc.Span {
		t.Fatalf("explicit shallow form: got %+v ok=%v", back, ok)
	}
	if child := tc.Child(); !child.Deep {
		t.Fatal("a child span of a deep trace is not deep")
	}
}

func TestParseTraceHeaderRejectsMalformed(t *testing.T) {
	valid := NewTraceContext().Header()
	cases := map[string]string{
		"empty":         "",
		"short":         valid[:40],
		"long":          valid + "00",
		"no dash":       strings.Replace(valid, "-", "0", 1),
		"bad trace hex": "zz" + valid[2:],
		"bad span hex":  valid[:47] + "zz",
		"zero trace":    strings.Repeat("0", 32) + "-" + valid[33:],
		"zero span":     valid[:33] + strings.Repeat("0", 16),
		"bad deep bit":  valid + "-2",
		"no deep dash":  valid + "01",
		"deep, short":   valid[:47] + "-1",
		"deep, bad hex": "zz" + valid[2:] + "-1",
		"two deep bits": valid + "-1-1",
	}
	for name, v := range cases {
		if _, ok := ParseTraceHeader(v); ok {
			t.Errorf("%s: ParseTraceHeader(%q) accepted", name, v)
		}
	}
}

func TestParseTraceID(t *testing.T) {
	id := NewTraceID()
	back, ok := ParseTraceID(id.String())
	if !ok || back != id {
		t.Fatalf("round trip failed: %v %v", back, ok)
	}
	for _, bad := range []string{"", "abc", strings.Repeat("0", 32), strings.Repeat("g", 32)} {
		if _, ok := ParseTraceID(bad); ok {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}

func TestTraceIDUniqueness(t *testing.T) {
	seen := make(map[TraceID]bool)
	spans := make(map[SpanID]bool)
	for i := 0; i < 10000; i++ {
		tr := NewTraceID()
		if tr.IsZero() || seen[tr] {
			t.Fatalf("trace ID %s repeated or zero at %d", tr, i)
		}
		seen[tr] = true
		sp := NewSpanID()
		if sp.IsZero() || spans[sp] {
			t.Fatalf("span ID %s repeated or zero at %d", sp, i)
		}
		spans[sp] = true
	}
}

func TestChildKeepsTraceChangesSpan(t *testing.T) {
	tc := NewTraceContext()
	child := tc.Child()
	if child.Trace != tc.Trace {
		t.Fatal("child changed the trace ID")
	}
	if child.Span == tc.Span || child.Span.IsZero() {
		t.Fatal("child must mint a fresh span ID")
	}
}

func TestTraceContextOnContext(t *testing.T) {
	if _, ok := TraceContextFrom(context.Background()); ok {
		t.Fatal("empty context claimed a trace")
	}
	tc := NewTraceContext()
	ctx := WithTraceContext(context.Background(), tc, nil, "")
	back, ok := TraceContextFrom(ctx)
	if !ok || back != tc {
		t.Fatalf("context round trip: %+v ok=%v", back, ok)
	}
	zero := WithTraceContext(context.Background(), TraceContext{}, nil, "")
	if _, ok := TraceContextFrom(zero); ok {
		t.Fatal("zero trace context should read back as absent")
	}
}

func TestZeroIDRendering(t *testing.T) {
	if (TraceID{}).String() != "" || (SpanID{}).String() != "" {
		t.Fatal("zero IDs must render empty")
	}
	if (TraceContext{}).Header() != "" {
		t.Fatal("zero context must render an empty header")
	}
}
