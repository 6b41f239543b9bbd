package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"bitgen"
	"bitgen/internal/obs"
	"bitgen/internal/snapshot"
)

// This file is the server's persistence layer: buildEngine is the cache's
// miss path (local snapshot, then peer snapshot, then compile with
// write-behind) and the only way a snapshot enters the cache. A file that
// rotted while resting is verified, refused and quarantined the first time
// a request reads it.

// buildEngine produces the engine for one cache miss. The ladder is
// cheapest-first: a verified local snapshot, a verified snapshot fetched
// from the key's ring owner, and only then a compile — whose result is
// persisted write-behind so the next boot (or peer) skips the work. Every
// rung that fails falls through; a request never fails because a snapshot
// was bad, only because the compile itself did.
func (s *Server) buildEngine(ctx context.Context, key string, patterns []string, foldCase bool) (*bitgen.Engine, error) {
	opts := s.engineOptions(foldCase)
	if eng, ok := s.loadLocalSnapshot(key, &opts); ok {
		return eng, nil
	}
	if eng, ok := s.fetchPeerSnapshot(ctx, key, &opts); ok {
		return eng, nil
	}
	s.reg.Counter(obs.MServeCompiles, obs.HServeCompiles).Inc()
	eng, err := bitgen.CompileContext(ctx, patterns, &opts)
	if err != nil {
		return nil, err
	}
	if s.snap != nil {
		// Write-behind: a failed save is counted by the store and the
		// request proceeds on the compiled engine regardless.
		_ = s.snap.Save(key, bitgen.EncodeEngine(eng))
	}
	return eng, nil
}

// loadLocalSnapshot tries the on-disk snapshot for key. A snapshot that
// fails verification for a file-condemning reason is quarantined; a
// negotiation refusal (options or key mismatch) leaves the file in place
// for whoever it does fit.
func (s *Server) loadLocalSnapshot(key string, opts *bitgen.Options) (*bitgen.Engine, bool) {
	if s.snap == nil {
		return nil, false
	}
	data, err := s.snap.Load(key)
	if err != nil {
		return nil, false // missing or unreadable: fall through to compile
	}
	eng, err := s.decodeSnapshot(key, data, opts)
	if err != nil {
		if s.noteVerifyFailure(err) {
			s.snap.Quarantine(key)
		}
		return nil, false
	}
	s.reg.Counter(obs.MSnapLoads, obs.HSnapLoads).Inc()
	return eng, true
}

// fetchPeerSnapshot asks the cluster for the key's snapshot and, on a
// verified hit, persists it locally so the next restart loads it from
// disk without asking again.
func (s *Server) fetchPeerSnapshot(ctx context.Context, key string, opts *bitgen.Options) (*bitgen.Engine, bool) {
	if s.cluster == nil {
		return nil, false
	}
	data, err := s.cluster.FetchSnapshot(ctx, key)
	if err != nil {
		s.reg.Counter(obs.MSnapPeerFetchErrors, obs.HSnapPeerFetchErrors).Inc()
		return nil, false
	}
	if data == nil {
		return nil, false // no remote candidate had one
	}
	eng, err := s.decodeSnapshot(key, data, opts)
	if err != nil {
		// A peer shipped bytes we refuse: count both the refusal reason
		// and the failed fetch, but there is no local file to quarantine.
		s.noteVerifyFailure(err)
		s.reg.Counter(obs.MSnapPeerFetchErrors, obs.HSnapPeerFetchErrors).Inc()
		return nil, false
	}
	s.reg.Counter(obs.MSnapPeerFetches, obs.HSnapPeerFetches).Inc()
	if s.snap != nil {
		_ = s.snap.Save(key, data)
	}
	return eng, true
}

// decodeSnapshot decodes and fully verifies snapshot bytes for one
// addressed key: framing and checksums via DecodeEngine, then the
// content-address check — the decoded pattern set must hash back to the
// key it was stored under, so a renamed or cross-wired snapshot can never
// serve the wrong patterns.
func (s *Server) decodeSnapshot(key string, data []byte, opts *bitgen.Options) (*bitgen.Engine, error) {
	eng, err := bitgen.DecodeEngine(data, opts)
	if err != nil {
		return nil, err
	}
	if got := bitgen.PatternSetKey(eng.Patterns(), opts); got != key {
		return nil, &bitgen.SnapshotError{
			Reason: snapshot.ReasonKey,
			Detail: fmt.Sprintf("snapshot content hashes to set %.12s, addressed as %.12s", got, key),
		}
	}
	return eng, nil
}

// noteVerifyFailure counts one snapshot refusal under its reason label and
// reports whether the reason condemns the file itself (corrupt, truncated,
// wrong format version) as opposed to a negotiation refusal that leaves
// the file valid for a differently-configured loader.
func (s *Server) noteVerifyFailure(err error) (condemned bool) {
	reason := snapshot.ReasonStoreIO
	var se *bitgen.SnapshotError
	if errors.As(err, &se) {
		reason = se.Reason
	}
	s.reg.Counter(obs.MSnapVerifyFailures, obs.HSnapVerifyFailures, obs.L("reason", reason)).Inc()
	return reason == snapshot.ReasonCorrupt || reason == snapshot.ReasonTruncate ||
		reason == snapshot.ReasonVersion
}

// handleSnapshot serves a pattern set's snapshot bytes to cluster peers
// (GET /v1/snapshot?set=<key>). A cached engine is the authority and is
// re-encoded fresh; otherwise verified on-disk bytes are served. Disk
// bytes that fail verification are quarantined and reported as absent —
// a peer is never handed a snapshot this replica would itself refuse.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET required", Class: "bad_request"})
		return
	}
	key := r.URL.Query().Get("set")
	if err := snapshot.KeyPattern(key); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error(), Class: "bad_request"})
		return
	}
	if e := s.cache.lookup(key); e != nil {
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(bitgen.EncodeEngine(e.eng))
		return
	}
	if s.snap != nil {
		if data, err := s.snap.Load(key); err == nil {
			if verr := snapshot.Verify(data); verr == nil {
				w.Header().Set("Content-Type", "application/octet-stream")
				_, _ = w.Write(data)
				return
			} else if s.noteVerifyFailure(verr) {
				s.snap.Quarantine(key)
			}
		}
	}
	writeJSON(w, http.StatusNotFound, errorResponse{Error: "no snapshot for set " + key, Class: "not_found"})
}
