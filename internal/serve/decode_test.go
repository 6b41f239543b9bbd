package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bitgen"
)

// jsonDecode is /v1/match's decode as encoding/json alone does it: the
// reference decodeMatch must agree with on every body.
func jsonDecode(body []byte) (matchRequest, []byte, error) {
	var req matchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return req, nil, fmt.Errorf("invalid JSON body: %w", err)
	}
	if len(req.Patterns) == 0 {
		return req, nil, errors.New("patterns must be non-empty")
	}
	input := []byte(req.Input)
	if req.InputBase64 != "" {
		var err error
		if input, err = base64.StdEncoding.DecodeString(req.InputBase64); err != nil {
			return req, nil, fmt.Errorf("invalid input_base64: %w", err)
		}
	}
	return req, input, nil
}

// sameRequest reports how two decoded requests differ, or "" when they
// carry the same patterns, input bytes, input_base64, flags and timeout.
func sameRequest(got matchRequest, gotIn []byte, want matchRequest, wantIn []byte) string {
	switch {
	case len(got.Patterns) != len(want.Patterns):
		return fmt.Sprintf("patterns %q, want %q", got.Patterns, want.Patterns)
	case !bytes.Equal(gotIn, wantIn):
		return fmt.Sprintf("input %q, want %q", gotIn, wantIn)
	case got.InputBase64 != want.InputBase64 || got.FoldCase != want.FoldCase ||
		got.TimeoutMS != want.TimeoutMS || got.CountOnly != want.CountOnly:
		return fmt.Sprintf("request %+v, want %+v", got, want)
	}
	for i := range got.Patterns {
		if got.Patterns[i] != want.Patterns[i] {
			return fmt.Sprintf("patterns %q, want %q", got.Patterns, want.Patterns)
		}
	}
	return ""
}

// checkDecode holds decodeMatch to encoding/json on one body: a body the
// one-pass decoder accepts decodes to the same request under encoding/json,
// and every body gets the same request or the same error either way.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	want, wantIn, wantErr := jsonDecode(body)
	if req, in, ok := decodeCanonical(body); ok {
		var ref matchRequest
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatalf("one-pass decoder accepted %q, encoding/json refuses it: %v", body, err)
		}
		if diff := sameRequest(req, in, ref, []byte(ref.Input)); diff != "" {
			t.Fatalf("one-pass decode of %q: %s", body, diff)
		}
	}
	got, gotIn, err := decodeMatch(body)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("decodeMatch(%q) error %v, want %v", body, err, wantErr)
	}
	if err == nil {
		if diff := sameRequest(got, gotIn, want, wantIn); diff != "" {
			t.Fatalf("decodeMatch(%q): %s", body, diff)
		}
	}
}

// TestSpecialMatchesPlain: the eight-byte test agrees with the byte table
// for every byte value in every lane, beside every byte value in the lane
// below, the one a borrow would come from.
func TestSpecialMatchesPlain(t *testing.T) {
	for lane := 0; lane < 8; lane++ {
		for c := 0; c < 256; c++ {
			for below := 0; below < 256; below++ {
				w := []byte("xxxxxxxx")
				w[lane] = byte(c)
				want := !plain(byte(c))
				if lane > 0 {
					w[lane-1] = byte(below)
					want = want || !plain(byte(below))
				}
				if got := special(binary.LittleEndian.Uint64(w)); got != want {
					t.Fatalf("special(%q) = %v, want %v", w, got, want)
				}
			}
		}
	}
}

type decodeCase struct {
	name      string
	body      string
	canonical bool // the one-pass decoder takes it
	status    int  // /v1/match's answer
}

func decodeCases(t testing.TB) []decodeCase {
	pats, in := bro9(t)
	mixed, err := json.Marshal(map[string]any{"patterns": pats, "input": string(in)})
	if err != nil {
		t.Fatal(err)
	}
	html, err := json.Marshal(map[string]any{"patterns": []string{"a<b", "c&d"}, "input": "<a<b> & c&d"})
	if err != nil {
		t.Fatal(err)
	}
	return []decodeCase{
		{"serve_mixed", string(mixed), true, 200},
		{"html escapes", string(html), true, 200},
		{"every key", " {\"patterns\" : [\"a\\/b\", \"\\u00e9\"], \"input\":\"a/b \\u00e9\\t\\\"\",\n\"input_base64\":\"\", \"fold_case\":true,\"count_only\":false,\"timeout_ms\":250}\r\n", true, 200},
		{"base64", `{"patterns":["ab"],"input":"zz","input_base64":"YWI="}`, true, 200},
		{"bad base64", `{"patterns":["ab"],"input_base64":"!!"}`, true, 400},
		{"empty patterns", `{"patterns":[],"input":"x"}`, true, 400},
		{"empty object", `{}`, true, 400},
		{"surrogate pair", `{"patterns":["a"],"input":"\ud83d\ude00 a"}`, false, 200},
		{"invalid utf-8", "{\"patterns\":[\"a\"],\"input\":\"\xff a\"}", false, 200},
		{"control byte", "{\"patterns\":[\"a\"],\"input\":\"a\x01\"}", false, 400},
		{"key case", `{"Patterns":["a"],"input":"a"}`, false, 200},
		{"unknown key", `{"patterns":["a"],"input":"a","extra":[1,{}]}`, false, 200},
		{"null", `{"patterns":["a"],"input":null}`, false, 200},
		{"duplicate key", `{"patterns":["b","c"],"patterns":["a"],"input":"b","input":"a","fold_case":true,"fold_case":false}`, true, 200},
		{"trailing bytes", `{"patterns":["a"],"input":"a"} x`, false, 400},
		{"timeout -1", `{"patterns":["a"],"input":"a","timeout_ms":-1}`, false, 200},
		{"timeout 1.0", `{"patterns":["a"],"input":"a","timeout_ms":1.0}`, false, 400},
		{"timeout 1e3", `{"patterns":["a"],"input":"a","timeout_ms":1e3}`, false, 400},
		{"timeout 01", `{"patterns":["a"],"input":"a","timeout_ms":01}`, false, 400},
		{"timeout 1e13 ms", `{"patterns":["a"],"input":"a","timeout_ms":10000000000000}`, false, 200},
		{"not json", `not json`, false, 400},
	}
}

// TestDecodeMatchRequest runs the fuzz target's seeds as a table: which
// bodies take the one-pass decoder, that each decodes as encoding/json
// decodes it, and what /v1/match answers.
func TestDecodeMatchRequest(t *testing.T) {
	s := mustNew(t, Config{})
	defer s.Close()
	h := s.Handler()
	for _, c := range decodeCases(t) {
		t.Run(c.name, func(t *testing.T) {
			if _, _, ok := decodeCanonical([]byte(c.body)); ok != c.canonical {
				t.Errorf("one-pass decoder took it: %v, want %v", ok, c.canonical)
			}
			checkDecode(t, []byte(c.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/match", strings.NewReader(c.body)))
			if rec.Code != c.status {
				t.Errorf("status %d (%s), want %d", rec.Code, rec.Body, c.status)
			}
		})
	}
}

func FuzzDecodeMatchRequest(f *testing.F) {
	for _, c := range decodeCases(f) {
		f.Add([]byte(c.body))
	}
	f.Fuzz(checkDecode)
}

// TestMatchBodyLimit: a body of MaxBodyBytes is read and one byte more gets
// 413, whether its length is declared or it arrives chunked.
func TestMatchBodyLimit(t *testing.T) {
	body := `{"patterns":["ab"],"input":"xab"}`
	s := mustNew(t, Config{MaxBodyBytes: int64(len(body))})
	defer s.Close()
	for _, c := range []struct {
		body    string
		chunked bool
		status  int
	}{{body, false, 200}, {body, true, 200}, {body + " ", false, 413}, {body + " ", true, 413}} {
		r := httptest.NewRequest(http.MethodPost, "/v1/match", strings.NewReader(c.body))
		if c.chunked {
			r.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, r)
		if rec.Code != c.status {
			t.Errorf("%d-byte body, chunked %v: status %d (%s), want %d", len(c.body), c.chunked, rec.Code, rec.Body, c.status)
		}
	}
}

// TestHugeTimeoutClampsToMaxTimeout: a timeout_ms whose nanoseconds
// overflow an int64 gets MaxTimeout, not an expired deadline, on both
// endpoints (TestMaxTimeoutClamp checks the deadline the scan's query value
// gets).
func TestHugeTimeoutClampsToMaxTimeout(t *testing.T) {
	const huge = "10000000000000"
	const maxTimeout = 5 * time.Second
	s, hs := newTestServer(t, Config{MaxTimeout: maxTimeout})
	budget := make(chan time.Duration, 1)
	s.matchRun = func(ctx context.Context, eng *bitgen.Engine, input []byte) (*bitgen.Result, error) {
		dl, _ := ctx.Deadline()
		budget <- time.Until(dl)
		return eng.RunContext(ctx, input)
	}

	code, mr, er := postMatch(t, hs.URL, `{"patterns":["error"],"input":"an error","timeout_ms":`+huge+`}`)
	if code != http.StatusOK || mr.Counts["error"] != 1 {
		t.Fatalf("match: status %d %+v %+v, want 200 with one match", code, mr, er)
	}
	if d := <-budget; d < maxTimeout-time.Second || d > maxTimeout {
		t.Errorf("match: deadline in %v, want ~%v", d, maxTimeout)
	}

	resp, err := http.Post(hs.URL+"/v1/scan?pattern=error&timeout_ms="+huge, "application/octet-stream", strings.NewReader("an error"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(buf.String(), `"done":true,"matches":1`) {
		t.Fatalf("scan: status %d %s, want 200 with one match", resp.StatusCode, buf.String())
	}
}

// BenchmarkServeMatch is the repo benchmark's serve_mixed match op in
// process: one /v1/match of nine Bro217-style patterns over a 4 KiB input
// through Handler, the registry warm. The decode sub-benchmarks time its
// body's decode alone, one-pass and by encoding/json.
func BenchmarkServeMatch(b *testing.B) {
	pats, in := bro9(b)
	body, err := json.Marshal(map[string]any{"patterns": pats, "input": string(in)})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("handler", func(b *testing.B) {
		s := mustNew(b, Config{})
		defer s.Close()
		h := s.Handler()
		post := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/match", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
		post()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post()
		}
	})
	for _, dec := range []struct {
		name   string
		decode func([]byte) (matchRequest, []byte, error)
	}{{"decode/one_pass", decodeMatch}, {"decode/encoding_json", jsonDecode}} {
		b.Run(dec.name, func(b *testing.B) {
			if _, _, ok := decodeCanonical(body); !ok {
				b.Fatal("the serve_mixed body is not canonical")
			}
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := dec.decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
