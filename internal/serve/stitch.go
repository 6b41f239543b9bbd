package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"

	"bitgen/internal/obs"
)

// Cross-node trace stitching: each replica serves its fragment of a
// distributed trace at /v1/trace/{traceID} (its flight-recorder spans
// and event-ring entries tagged with that ID); StitchTrace fetches the
// fragment from every ring peer and merges them into one Chrome
// trace_event timeline with a lane per node. `bitgend -stitch` and the
// observability cluster scenario (scenario_test.go) drive it.

// TraceFragment is one node's slice of a distributed trace.
type TraceFragment struct {
	Node    string         `json:"node"`
	TraceID string         `json:"trace_id"`
	Spans   []obs.ReqSpan  `json:"spans"`
	Events  []obs.LogEvent `json:"events"`
}

// StitchedTrace is the merged view of one trace across a cluster.
type StitchedTrace struct {
	TraceID   string
	Fragments []TraceFragment // one per node that answered, request order
	Errors    []string        // nodes that could not be fetched
}

// StitchTrace fetches the trace's fragment from every node and merges
// them. Unreachable nodes are tolerated (recorded in Errors): stitching
// exists precisely to debug partially-failed clusters. It fails only
// when no node answers at all.
func StitchTrace(ctx context.Context, client *http.Client, nodes []string, traceID string) (*StitchedTrace, error) {
	if _, ok := obs.ParseTraceID(traceID); !ok {
		return nil, fmt.Errorf("stitch: trace ID %q is not 32 hex digits", traceID)
	}
	if client == nil {
		client = http.DefaultClient
	}
	st := &StitchedTrace{TraceID: traceID}
	for _, node := range nodes {
		frag, err := fetchFragment(ctx, client, node, traceID)
		if err != nil {
			st.Errors = append(st.Errors, fmt.Sprintf("%s: %v", node, err))
			continue
		}
		st.Fragments = append(st.Fragments, frag)
	}
	if len(st.Fragments) == 0 {
		return nil, fmt.Errorf("stitch: no node answered (%d errors: %v)", len(st.Errors), st.Errors)
	}
	return st, nil
}

func fetchFragment(ctx context.Context, client *http.Client, node, traceID string) (TraceFragment, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/v1/trace/"+traceID, nil)
	if err != nil {
		return TraceFragment{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return TraceFragment{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return TraceFragment{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return TraceFragment{}, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var frag TraceFragment
	if err := json.Unmarshal(body, &frag); err != nil {
		return TraceFragment{}, err
	}
	if frag.Node == "" {
		frag.Node = node
	}
	return frag, nil
}

// NodesWithSpans lists the nodes that recorded at least one span for
// the trace, sorted.
func (st *StitchedTrace) NodesWithSpans() []string {
	seen := map[string]bool{}
	for _, f := range st.Fragments {
		if len(f.Spans) > 0 {
			seen[f.Node] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SpanCount returns the total spans across fragments.
func (st *StitchedTrace) SpanCount() int {
	n := 0
	for _, f := range st.Fragments {
		n += len(f.Spans)
	}
	return n
}

// chromeEvent is one trace_event entry (the subset Chrome's viewer and
// cmd/obscheck read).
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// Chrome renders the stitched trace as Chrome trace_event JSON: one
// process lane per node (pid = fragment index + 1, named by a
// process_name metadata record), complete spans as ph "X", events as
// ph "i" instants. Timestamps are wall-clock microseconds normalized to
// the earliest span so the viewer opens at t=0.
func (st *StitchedTrace) Chrome() ([]byte, error) {
	var t0 int64 = -1
	for _, f := range st.Fragments {
		for _, sp := range f.Spans {
			if t0 < 0 || sp.StartUnixMicro < t0 {
				t0 = sp.StartUnixMicro
			}
		}
		for _, ev := range f.Events {
			if t0 < 0 || ev.TimeUnixMicro < t0 {
				t0 = ev.TimeUnixMicro
			}
		}
	}
	if t0 < 0 {
		t0 = 0
	}
	var events []chromeEvent
	for i, f := range st.Fragments {
		pid := i + 1
		events = append(events, chromeEvent{
			Name: "process_name", Phase: "M", PID: pid, TID: 0,
			Args: map[string]any{"name": f.Node},
		})
		for _, sp := range f.Spans {
			args := map[string]any{
				"trace": sp.Trace,
				"span":  sp.Span,
			}
			if sp.Parent != "" {
				args["parent"] = sp.Parent
			}
			if sp.Status != 0 {
				args["status"] = sp.Status
			}
			for k, v := range sp.Attrs {
				args[k] = v
			}
			events = append(events, chromeEvent{
				Name: sp.Name, Phase: "X", PID: pid, TID: 1,
				TS: sp.StartUnixMicro - t0, Dur: sp.DurMicro, Args: args,
			})
		}
		for _, ev := range f.Events {
			args := map[string]any{"level": ev.Level.String()}
			if !ev.Trace.IsZero() {
				args["trace"] = ev.Trace.String()
			}
			for j := 0; j < int(ev.NFields); j++ {
				args[ev.Fields[j].Key] = ev.Fields[j].Value()
			}
			events = append(events, chromeEvent{
				Name: ev.Type, Phase: "i", PID: pid, TID: 1,
				TS: ev.TimeUnixMicro - t0, Scope: "p", Args: args,
			})
		}
	}
	return json.MarshalIndent(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	}, "", " ")
}
