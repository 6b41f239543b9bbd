// Package snapshot persists compiled engine state: a versioned,
// checksummed binary format for the lowered bitstream programs and
// compile-time metadata of a bitgen.Engine, plus an atomic on-disk store
// with corruption quarantine.
//
// The format is defensive by construction. Every section carries its own
// CRC-32C, the whole file carries a trailing CRC, and the header carries
// a magic plus format version, so a loader can distinguish (and report
// with a typed *bgerr.SnapshotError) a truncated file from a bit-flipped
// one from a snapshot written by an incompatible build — and never serve
// any of them. Negotiation order matters: magic and version are checked
// before any CRC, so a snapshot from a newer format is refused as
// "version-mismatch" rather than misdiagnosed as corruption.
//
// File layout (all integers little-endian):
//
//	magic   [8]byte  "BGENSNAP"
//	version uint32   FormatVersion
//	count   uint32   number of sections
//	section × count:
//	    nameLen uint16, name []byte
//	    payLen  uint64, payload []byte
//	    crc32c  uint32 (over payload)
//	fileCRC uint32   crc32c over everything before it
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"bitgen/internal/bgerr"
)

// FormatVersion is the snapshot format this build writes and reads.
// Loaders refuse any other version: snapshot compatibility is negotiated,
// never guessed. v2 stored each group's program as its packed byte blob
// (the same bytes the engine keeps resident) and added the shared
// character-class program; v3 stores the shared classes as their 32-byte
// membership sets instead of that program.
const FormatVersion = 3

var magic = [8]byte{'B', 'G', 'E', 'N', 'S', 'N', 'A', 'P'}

// Failure-reason tokens carried by *bgerr.SnapshotError.Reason.
const (
	ReasonCorrupt  = "corrupt"
	ReasonTruncate = "truncated"
	ReasonVersion  = "version-mismatch"
	ReasonOptions  = "options-mismatch"
	ReasonKey      = "key-mismatch"
	ReasonStoreIO  = "store-io"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func corrupt(format string, args ...any) error {
	return &bgerr.SnapshotError{Reason: ReasonCorrupt, Detail: fmt.Sprintf(format, args...)}
}

func truncated(format string, args ...any) error {
	return &bgerr.SnapshotError{Reason: ReasonTruncate, Detail: fmt.Sprintf(format, args...)}
}

// section is one named, individually-checksummed payload.
type section struct {
	name    string
	payload []byte
}

// container assembles the outer framing around encoded sections.
func container(sections []section) []byte {
	size := 8 + 4 + 4 + 4 // magic + version + count + file CRC
	for _, s := range sections {
		size += 2 + len(s.name) + 8 + len(s.payload) + 4
	}
	out := make([]byte, 0, size)
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, FormatVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(sections)))
	for _, s := range sections {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(s.name)))
		out = append(out, s.name...)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s.payload)))
		out = append(out, s.payload...)
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(s.payload, castagnoli))
	}
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
	return out
}

// checkHeader validates magic and version (in that order, before any CRC)
// and returns the declared section count.
func checkHeader(data []byte) (uint32, error) {
	if len(data) < 8+4+4+4 {
		return 0, truncated("%d bytes is shorter than the fixed header", len(data))
	}
	if [8]byte(data[:8]) != magic {
		return 0, corrupt("bad magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != FormatVersion {
		return 0, &bgerr.SnapshotError{
			Reason: ReasonVersion,
			Detail: fmt.Sprintf("snapshot format v%d, this build reads v%d", v, FormatVersion),
		}
	}
	return binary.LittleEndian.Uint32(data[12:16]), nil
}

// readSection frames and CRC-checks the section starting at off, returning
// it and the offset past its trailing CRC.
func readSection(data []byte, off int, i uint32) (section, int, error) {
	if len(data)-off < 2 {
		return section{}, 0, truncated("section %d header past end of file", i)
	}
	nameLen := int(binary.LittleEndian.Uint16(data[off:]))
	off += 2
	if len(data)-off < nameLen+8 {
		return section{}, 0, truncated("section %d name past end of file", i)
	}
	name := string(data[off : off+nameLen])
	off += nameLen
	payLen := binary.LittleEndian.Uint64(data[off:])
	off += 8
	// Compare against the remaining bytes by subtraction, never payLen+4:
	// a crafted payLen near MaxUint64 would wrap the addition, pass the
	// check, and panic the slice below. The payLen <= rem bound also makes
	// the int(payLen) conversions safe on 32-bit platforms.
	if rem := uint64(len(data) - off); payLen > rem || rem-payLen < 4 {
		return section{}, 0, truncated("section %q: %d payload bytes declared, %d remain", name, payLen, len(data)-off)
	}
	payload := data[off : off+int(payLen)]
	off += int(payLen)
	want := binary.LittleEndian.Uint32(data[off:])
	off += 4
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return section{}, 0, corrupt("section %q CRC mismatch: %08x != %08x", name, got, want)
	}
	return section{name: name, payload: payload}, off, nil
}

// splitContainer validates the framing — magic, version, per-section CRCs
// and the whole-file CRC — and returns the sections. Every decode and
// every Verify goes through here.
func splitContainer(data []byte) ([]section, error) {
	count, err := checkHeader(data)
	if err != nil {
		return nil, err
	}
	off := 16
	sections := make([]section, 0, min(int(count), 16))
	for i := uint32(0); i < count; i++ {
		var s section
		s, off, err = readSection(data, off, i)
		if err != nil {
			return nil, err
		}
		sections = append(sections, s)
	}
	if len(data)-off != 4 {
		return nil, corrupt("%d trailing bytes after sections, want exactly the file CRC", len(data)-off)
	}
	if got, want := crc32.Checksum(data[:off], castagnoli), binary.LittleEndian.Uint32(data[off:]); got != want {
		return nil, corrupt("file CRC mismatch: %08x != %08x", got, want)
	}
	return sections, nil
}

// Verify checks the snapshot's framing integrity — magic, version, every
// section CRC, the file CRC — without decoding engine state. The serve
// layer checks disk bytes with it before handing them to a peer.
func Verify(data []byte) error {
	_, err := splitContainer(data)
	return err
}

// ---- payload primitives ----

// enc is an appending payload writer.
type enc struct{ b []byte }

func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) count(n int)      { e.uvarint(uint64(n)) }
func (e *enc) boolean(v bool)   { e.b = append(e.b, b2u(v)) }

func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *enc) strs(ss []string) {
	e.count(len(ss))
	for _, s := range ss {
		e.str(s)
	}
}

func (e *enc) blob(b []byte) {
	e.uvarint(uint64(len(b)))
	e.b = append(e.b, b...)
}

func b2u(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// dec is a consuming payload reader: the first malformed field latches an
// error and every later read returns zero values, so decoders can read
// straight through and check err once per structure.
type dec struct {
	b       []byte
	section string
	err     error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = corrupt("section %q: malformed %s", d.section, what)
	}
}

func (d *dec) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) varint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads an element count for items of at least minBytes encoded
// bytes each, bounding it by the remaining payload so a corrupted count
// can never drive a huge allocation.
func (d *dec) count(what string, minBytes int) int {
	v := d.uvarint(what + " count")
	if d.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if v > uint64(len(d.b)/minBytes) {
		d.fail(what + " count exceeds payload")
		return 0
	}
	return int(v)
}

func (d *dec) boolean(what string) bool {
	if d.err != nil {
		return false
	}
	if len(d.b) < 1 {
		d.fail(what)
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	if v > 1 {
		d.fail(what)
		return false
	}
	return v == 1
}

func (d *dec) str(what string) string {
	n := d.uvarint(what + " length")
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail(what + " length exceeds payload")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *dec) blob(what string) []byte {
	n := d.uvarint(what + " length")
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail(what + " length exceeds payload")
		return nil
	}
	out := append([]byte(nil), d.b[:n]...)
	d.b = d.b[n:]
	return out
}

func (d *dec) strs(what string) []string {
	n := d.count(what, 1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str(what)
	}
	return out
}

// done asserts the payload was consumed exactly.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return corrupt("section %q: %d undecoded trailing bytes", d.section, len(d.b))
	}
	return nil
}
