package snapshot

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"bitgen/internal/bgerr"
	"bitgen/internal/faultinject"
	"bitgen/internal/obs"
)

// Ext is the snapshot file extension; BadExt marks quarantined files.
const (
	Ext    = ".bgsnap"
	BadExt = ".bad"
)

// ValidateDir ensures dir exists (creating it if missing) and is writable,
// returning a typed store-io error otherwise. bitgend calls it at boot so
// an unusable -snapshot-dir fails fast instead of surfacing on the first
// write-behind.
func ValidateDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return &bgerr.SnapshotError{Reason: ReasonStoreIO, Path: dir, Detail: err.Error()}
	}
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return &bgerr.SnapshotError{Reason: ReasonStoreIO, Path: dir, Detail: "not writable: " + err.Error()}
	}
	name := probe.Name()
	probe.Close()
	os.Remove(name)
	return nil
}

// Store is an atomic, self-verifying snapshot directory. Save writes to a
// temp file and renames into place, so a concurrent Load observes either
// the old or the new snapshot, never a torn one. Load re-verifies framing
// and checksums on every read; anything that fails verification can be
// quarantined to a .bad sidecar and is never returned as valid data.
//
// The store consults an optional fault injector at each persistence
// boundary (torn-write, bit-flip, stale-version on save; short-read on
// load) so every corruption path is deterministically testable.
type Store struct {
	dir string
	inj *faultinject.Injector

	saves       *obs.Counter
	saveErrors  *obs.Counter
	quarantines *obs.Counter
	scrubRuns   *obs.Counter
}

// NewStore opens (creating if needed) a snapshot directory. The registry
// may be nil (counters become no-ops via obs nil-safety); the injector may
// be nil (no faults).
func NewStore(dir string, reg *obs.Registry, inj *faultinject.Injector) (*Store, error) {
	if err := ValidateDir(dir); err != nil {
		return nil, err
	}
	return &Store{
		dir:         dir,
		inj:         inj,
		saves:       reg.Counter(obs.MSnapSaves, obs.HSnapSaves),
		saveErrors:  reg.Counter(obs.MSnapSaveErrors, obs.HSnapSaveErrors),
		quarantines: reg.Counter(obs.MSnapQuarantines, obs.HSnapQuarantines),
		scrubRuns:   reg.Counter(obs.MSnapScrubRuns, obs.HSnapScrubRuns),
	}, nil
}

// Path returns the snapshot path for a pattern-set key.
func (s *Store) Path(key string) string {
	return filepath.Join(s.dir, key+Ext)
}

func (s *Store) storeIO(path string, err error) error {
	s.saveErrors.Inc()
	return &bgerr.SnapshotError{Reason: ReasonStoreIO, Path: path, Detail: err.Error()}
}

// Save persists data under key atomically: temp file in the same
// directory, fsync, rename. Injected faults corrupt the written bytes the
// way a real crash or flaky medium would — after which Save still
// "succeeds" (the corruption is silent, exactly the case the loader's
// verification exists for), except for torn-write, which models a crash
// before rename and leaves no file at the final path.
func (s *Store) Save(key string, data []byte) error {
	final := s.Path(key)

	// Apply write-side faults to a copy so the caller's buffer is intact.
	torn := false
	if s.inj.Fire(faultinject.SnapTornWrite) || s.inj.Fire(faultinject.SnapTornWrite.For(key)) {
		data = data[:len(data)/2]
		torn = true
	}
	if s.inj.Fire(faultinject.SnapBitFlip) || s.inj.Fire(faultinject.SnapBitFlip.For(key)) {
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/2] ^= 0x40
		data = flipped
	}
	if s.inj.Fire(faultinject.SnapStaleVersion) || s.inj.Fire(faultinject.SnapStaleVersion.For(key)) {
		stamped := append([]byte(nil), data...)
		if len(stamped) >= 12 {
			stamped[8] = byte(FormatVersion + 1)
		}
		data = stamped
	}

	tmp, err := os.CreateTemp(s.dir, "."+key+".tmp-*")
	if err != nil {
		return s.storeIO(s.dir, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return s.storeIO(tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return s.storeIO(tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return s.storeIO(tmpName, err)
	}
	if torn {
		// A torn write is a crash before the rename: the partial temp file
		// is abandoned (as crash leftovers are) and the final path keeps
		// whatever was there before.
		os.Remove(tmpName)
		s.saveErrors.Inc()
		return &bgerr.SnapshotError{Reason: ReasonStoreIO, Path: final, Detail: "torn write (injected): crashed before rename"}
	}
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return s.storeIO(final, err)
	}
	// Fsync the directory so the rename itself survives power loss — the
	// temp-file sync above only makes the contents durable, not the
	// directory entry. Best-effort: some filesystems refuse to sync
	// directories, and the fallout of a lost entry is an old snapshot or
	// a recompile, never corruption.
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
	s.saves.Inc()
	return nil
}

// Load reads the raw snapshot bytes for key. It does NOT verify them —
// callers decode (which verifies) or Verify explicitly, then Quarantine on
// failure. A missing snapshot returns fs.ErrNotExist.
func (s *Store) Load(key string) ([]byte, error) {
	path := s.Path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		return nil, &bgerr.SnapshotError{Reason: ReasonStoreIO, Path: path, Detail: err.Error()}
	}
	if s.inj.Fire(faultinject.SnapShortRead) || s.inj.Fire(faultinject.SnapShortRead.For(key)) {
		data = data[:len(data)/2]
	}
	return data, nil
}

// Quarantine renames the snapshot for key to a .bad sidecar so it is never
// loaded again but remains available for forensics. Quarantining a missing
// file is a no-op.
func (s *Store) Quarantine(key string) {
	path := s.Path(key)
	if err := os.Rename(path, path+BadExt); err == nil {
		s.quarantines.Inc()
	}
}

// Keys lists the pattern-set keys of every (non-quarantined) snapshot.
func (s *Store) Keys() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, &bgerr.SnapshotError{Reason: ReasonStoreIO, Path: s.dir, Detail: err.Error()}
	}
	var keys []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, Ext) {
			continue
		}
		keys = append(keys, strings.TrimSuffix(name, Ext))
	}
	return keys, nil
}

// ScrubResult summarizes one integrity pass.
type ScrubResult struct {
	Checked     int
	Quarantined int
}

// Scrub re-verifies every resident snapshot's framing and checksums,
// quarantining any that fail — the background defense against silent
// on-disk corruption between writes and reads. Version-mismatched files
// are quarantined too: this store will never be able to serve them.
func (s *Store) Scrub() (ScrubResult, error) {
	keys, err := s.Keys()
	if err != nil {
		return ScrubResult{}, err
	}
	var res ScrubResult
	for _, key := range keys {
		path := s.Path(key)
		before, err := os.Stat(path)
		if err != nil {
			continue // racing an eviction/replacement; next pass re-checks
		}
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		res.Checked++
		if err := Verify(data); err != nil {
			// A concurrent Save may have renamed a fresh, valid snapshot
			// into place between our read and this verdict; quarantining
			// now would discard that work. Only quarantine if the file is
			// still the one we read — otherwise let the next pass judge it.
			after, statErr := os.Stat(path)
			if statErr != nil || !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
				continue
			}
			s.Quarantine(key)
			res.Quarantined++
		}
	}
	s.scrubRuns.Inc()
	return res, nil
}

// KeyPattern loosely validates that a string looks like a pattern-set key
// (hex sha256) before it is used to build a file path — the serve layer
// checks untrusted ?set= values with it so a request can never traverse
// outside the snapshot dir.
func KeyPattern(key string) error {
	if len(key) != 64 {
		return fmt.Errorf("snapshot: key must be 64 hex chars, got %d", len(key))
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("snapshot: key contains non-hex byte %q", c)
		}
	}
	return nil
}
