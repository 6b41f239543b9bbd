package snapshot

import (
	"encoding/binary"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bitgen/internal/bgerr"
	"bitgen/internal/faultinject"
	"bitgen/internal/obs"
)

// testKey is a plausible 64-hex pattern-set key.
var testKey = strings.Repeat("ab12", 16)

// testSnapshot builds a small but structurally real snapshot container.
func testSnapshot() []byte {
	var meta enc
	meta.strs([]string{"abc", "a?"})
	meta.boolean(false)
	meta.str("deadbeef")
	meta.varint(3)
	meta.strs([]string{"a?"})
	meta.strs(nil)
	var passes enc
	for i := 0; i < 5; i++ {
		passes.varint(int64(i))
	}
	var groups enc
	groups.count(0)
	return container([]section{
		{name: sectionMeta, payload: meta.b},
		{name: sectionPasses, payload: passes.b},
		{name: sectionGroups, payload: groups.b},
	})
}

func reason(t *testing.T, err error, want string) {
	t.Helper()
	var se *bgerr.SnapshotError
	if !errors.As(err, &se) {
		t.Fatalf("want *SnapshotError(%s), got %v", want, err)
	}
	if se.Reason != want {
		t.Fatalf("want reason %q, got %q (%v)", want, se.Reason, err)
	}
	if !errors.Is(err, bgerr.ErrSnapshot) {
		t.Fatalf("error does not match ErrSnapshot: %v", err)
	}
}

func TestVerifyFramingFaults(t *testing.T) {
	data := testSnapshot()
	if err := Verify(data); err != nil {
		t.Fatalf("pristine snapshot failed verify: %v", err)
	}
	// Version mismatch is reported before any CRC verdict.
	stale := append([]byte(nil), data...)
	stale[8] = FormatVersion + 1
	reason(t, Verify(stale), ReasonVersion)
	// Bad magic.
	noMagic := append([]byte(nil), data...)
	noMagic[0] = 'X'
	reason(t, Verify(noMagic), ReasonCorrupt)
	// Every truncation refuses.
	for _, n := range []int{0, 7, 15, 16, 40, len(data) - 1} {
		if n >= len(data) {
			continue
		}
		if err := Verify(data[:n]); !errors.Is(err, bgerr.ErrSnapshot) {
			t.Fatalf("truncate to %d: want ErrSnapshot, got %v", n, err)
		}
	}
	// Every single-byte flip past the version field is corruption.
	for _, off := range []int{13, 17, 25, len(data) / 2, len(data) - 3} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x08
		if err := Verify(bad); !errors.Is(err, bgerr.ErrSnapshot) {
			t.Fatalf("flip at %d: want ErrSnapshot, got %v", off, err)
		}
	}
}

// TestVerifyOverflowPayLen crafts section payload lengths near MaxUint64:
// a bounds check written as payLen+4 would wrap for payLen in
// [MaxUint64-3, MaxUint64], pass, and panic on the slice. Every such
// length must be refused as truncated instead.
func TestVerifyOverflowPayLen(t *testing.T) {
	data := testSnapshot()
	// First section starts at 16: nameLen uint16, name, then payLen uint64.
	nameLen := int(binary.LittleEndian.Uint16(data[16:18]))
	payOff := 18 + nameLen
	for _, payLen := range []uint64{math.MaxUint64, math.MaxUint64 - 1, math.MaxUint64 - 3, math.MaxUint64 - 4, uint64(len(data))} {
		bad := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(bad[payOff:], payLen)
		reason(t, Verify(bad), ReasonTruncate)
	}
}

func newTestStore(t *testing.T, inj *faultinject.Injector) (*Store, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	st, err := NewStore(t.TempDir(), reg, inj)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return st, reg
}

func counter(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	return reg.Snapshot().Counter(name)
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	st, reg := newTestStore(t, nil)
	data := testSnapshot()
	if err := st.Save(testKey, data); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := st.Load(testKey)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if string(got) != string(data) {
		t.Fatalf("Load returned different bytes")
	}
	if err := Verify(got); err != nil {
		t.Fatalf("Verify after store round-trip: %v", err)
	}
	if c := counter(t, reg, obs.MSnapSaves); c != 1 {
		t.Fatalf("saves counter = %v, want 1", c)
	}
	if fi, err := os.Stat(st.Path(testKey)); err != nil || fi.Size() != int64(len(data)) {
		t.Fatalf("snapshot file after Save: %v, %v", fi, err)
	}
}

func TestStoreMissingIsNotExist(t *testing.T) {
	st, _ := newTestStore(t, nil)
	if _, err := st.Load(testKey); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing snapshot: want fs.ErrNotExist, got %v", err)
	}
}

// TestStorePersistenceFaults arms each injected persistence fault and
// asserts the corruption is always caught at verification — a faulted
// snapshot is never loadable as valid.
func TestStorePersistenceFaults(t *testing.T) {
	data := testSnapshot()

	t.Run("torn-write", func(t *testing.T) {
		inj := faultinject.New(1).ArmNth(faultinject.SnapTornWrite, 1)
		st, reg := newTestStore(t, inj)
		err := st.Save(testKey, data)
		reason(t, err, ReasonStoreIO)
		// Crash-before-rename: no file at the final path.
		if _, err := st.Load(testKey); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("torn write left a file: %v", err)
		}
		if c := counter(t, reg, obs.MSnapSaveErrors); c != 1 {
			t.Fatalf("save_errors = %v, want 1", c)
		}
		// And a prior good snapshot survives a later torn replacement.
		if err := st.Save(testKey, data); err != nil {
			t.Fatalf("second Save: %v", err)
		}
		inj.ArmNth(faultinject.SnapTornWrite, 3)
		if err := st.Save(testKey, data); err == nil {
			t.Fatalf("armed torn write did not fire")
		}
		got, err := st.Load(testKey)
		if err != nil || Verify(got) != nil {
			t.Fatalf("old snapshot lost after torn replacement: %v", err)
		}
	})

	t.Run("bit-flip", func(t *testing.T) {
		inj := faultinject.New(1).ArmNth(faultinject.SnapBitFlip, 1)
		st, _ := newTestStore(t, inj)
		if err := st.Save(testKey, data); err != nil {
			t.Fatalf("Save with silent bit flip should succeed: %v", err)
		}
		got, err := st.Load(testKey)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		reason(t, Verify(got), ReasonCorrupt)
	})

	t.Run("stale-version", func(t *testing.T) {
		inj := faultinject.New(1).ArmNth(faultinject.SnapStaleVersion, 1)
		st, _ := newTestStore(t, inj)
		if err := st.Save(testKey, data); err != nil {
			t.Fatalf("Save: %v", err)
		}
		got, err := st.Load(testKey)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		reason(t, Verify(got), ReasonVersion)
	})

	t.Run("short-read", func(t *testing.T) {
		inj := faultinject.New(1).ArmNth(faultinject.SnapShortRead, 1)
		st, _ := newTestStore(t, inj)
		if err := st.Save(testKey, data); err != nil {
			t.Fatalf("Save: %v", err)
		}
		got, err := st.Load(testKey)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		reason(t, Verify(got), ReasonTruncate)
		// The fault was transient (read-side): the next load verifies.
		got, err = st.Load(testKey)
		if err != nil || Verify(got) != nil {
			t.Fatalf("second load still bad: %v", err)
		}
	})
}

func TestQuarantine(t *testing.T) {
	st, reg := newTestStore(t, nil)
	if err := st.Save(testKey, testSnapshot()); err != nil {
		t.Fatalf("Save: %v", err)
	}
	st.Quarantine(testKey)
	if _, err := st.Load(testKey); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("quarantined snapshot still loads: %v", err)
	}
	if _, err := os.Stat(st.Path(testKey) + BadExt); err != nil {
		t.Fatalf(".bad sidecar missing: %v", err)
	}
	if c := counter(t, reg, obs.MSnapQuarantines); c != 1 {
		t.Fatalf("quarantines = %v, want 1", c)
	}
	if _, err := os.Stat(st.Path(testKey)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("quarantined snapshot still at its path: %v", err)
	}
	// Idempotent on missing files.
	st.Quarantine(testKey)
	if c := counter(t, reg, obs.MSnapQuarantines); c != 1 {
		t.Fatalf("double quarantine counted: %v", c)
	}
}

// TestConcurrentSaveLoad is the torn-file race test: writers replace the
// snapshot under key while readers load and verify it. Atomic
// write-rename means every read observes a fully-formed snapshot — one of
// the two versions, never a hybrid. Run under -race.
func TestConcurrentSaveLoad(t *testing.T) {
	st, _ := newTestStore(t, nil)
	dataA := testSnapshot()
	// A second, structurally different but valid snapshot.
	var meta enc
	meta.strs([]string{"zzz", "q+", "zzz"})
	meta.boolean(true)
	meta.str("feedface")
	meta.varint(9)
	meta.strs(nil)
	meta.strs([]string{"q+"})
	var passes enc
	for i := 0; i < 5; i++ {
		passes.varint(100)
	}
	var groups enc
	groups.count(0)
	dataB := container([]section{
		{name: sectionMeta, payload: meta.b},
		{name: sectionPasses, payload: passes.b},
		{name: sectionGroups, payload: groups.b},
	})
	if err := st.Save(testKey, dataA); err != nil {
		t.Fatalf("seed Save: %v", err)
	}

	const writers, readers, rounds = 2, 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				data := dataA
				if (i+w)%2 == 0 {
					data = dataB
				}
				if err := st.Save(testKey, data); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds*2; i++ {
				got, err := st.Load(testKey)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if err := Verify(got); err != nil {
					t.Errorf("reader %d observed a torn snapshot: %v", r, err)
					return
				}
				if string(got) != string(dataA) && string(got) != string(dataB) {
					t.Errorf("reader %d observed bytes that are neither version", r)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestValidateDir(t *testing.T) {
	// Creates missing directories.
	dir := filepath.Join(t.TempDir(), "a", "b")
	if err := ValidateDir(dir); err != nil {
		t.Fatalf("ValidateDir(create): %v", err)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("dir not created: %v", err)
	}
	// Refuses an unwritable directory with a typed store-io error.
	ro := filepath.Join(t.TempDir(), "ro")
	if err := os.MkdirAll(ro, 0o555); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if os.Geteuid() != 0 { // root bypasses mode bits
		reason(t, ValidateDir(ro), ReasonStoreIO)
	}
	// Refuses a path whose parent is a file.
	f := filepath.Join(t.TempDir(), "file")
	os.WriteFile(f, []byte("x"), 0o644)
	reason(t, ValidateDir(filepath.Join(f, "sub")), ReasonStoreIO)
}

func TestKeyPattern(t *testing.T) {
	if err := KeyPattern(testKey); err != nil {
		t.Fatalf("valid key refused: %v", err)
	}
	for _, bad := range []string{"", "short", strings.Repeat("g", 64), strings.Repeat("A", 64), "../" + strings.Repeat("a", 61)} {
		if err := KeyPattern(bad); err == nil {
			t.Fatalf("bad key %q accepted", bad)
		}
	}
}
