package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"

	"bitgen/internal/obs"
)

// Cross-node trace stitching: each replica serves its fragment of a
// distributed trace at /v1/trace/{traceID} (the spans in its ring and the
// decisions tagged with that ID); StitchTrace fetches the
// fragment from every ring peer and obs.WriteChromeTrace draws them as one
// timeline with a process per node. `bitgend -stitch` and the observability
// cluster scenario (scenario_test.go) drive it.

// StitchedTrace is the merged view of one trace across a cluster.
type StitchedTrace struct {
	TraceID   string
	Fragments []obs.Fragment // one per node that answered, request order
	Errors    []string       // nodes that could not be fetched
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

func fetchFragment(ctx context.Context, client *http.Client, node, traceID string) (obs.Fragment, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/v1/trace/"+traceID, nil)
	if err != nil {
		return obs.Fragment{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return obs.Fragment{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return obs.Fragment{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return obs.Fragment{}, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var frag obs.Fragment
	if err := json.Unmarshal(body, &frag); err != nil {
		return obs.Fragment{}, err
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

// Chrome renders the stitched trace as Chrome trace_event JSON.
func (st *StitchedTrace) Chrome() ([]byte, error) {
	var buf bytes.Buffer
	err := obs.WriteChromeTrace(&buf, st.Fragments)
	return buf.Bytes(), err
}
