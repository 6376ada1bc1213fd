package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// On-disk layout of a WAL segment:
//
//	8 bytes  magic "RVWAL001"
//	8 bytes  start LSN (little endian) of the segment's first record
//	frames:  [4 bytes payload length][4 bytes CRC32-C of payload][payload]
//
// A segment is named wal-<startLSN as 16 hex digits>.log, so a sorted
// directory listing is the log in order. The CRC covers the payload
// only; the length prefix is validated against maxPayload, which is far
// below any legal torn-write garbage a crashed append could leave.

const (
	segMagic     = "RVWAL001"
	segHeaderLen = 8 + 8
	frameHeader  = 4 + 4
	segPrefix    = "wal-"
	segSuffix    = ".log"
	snapPrefix   = "snap-"
	snapSuffix   = ".snap"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32-C (Castagnoli) of b: the checksum of every
// WAL frame, and the trailer of the engine's snapshot images.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// errTorn marks an invalid frame at the end of a segment: the canonical
// signature of a crash mid-append. Scanning stops cleanly at the last
// valid frame.
var errTorn = errors.New("store: torn record")

func segName(start LSN) string { return fmt.Sprintf("%s%016x%s", segPrefix, uint64(start), segSuffix) }
func snapName(lsn LSN) string  { return fmt.Sprintf("%s%016x%s", snapPrefix, uint64(lsn), snapSuffix) }

// parseSeq extracts the LSN from a wal-/snap- file name; ok is false
// for foreign files (including temp files), which the store ignores.
func parseSeq(name, prefix, suffix string) (LSN, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if len(hex) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return LSN(n), true
}

// writeSegHeader writes a fresh segment header.
func writeSegHeader(w io.Writer, start LSN) error {
	var hdr [segHeaderLen]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(start))
	_, err := w.Write(hdr[:])
	return err
}

// readSegHeader validates a segment header and returns its start LSN.
func readSegHeader(r io.Reader) (LSN, error) {
	var hdr [segHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("store: segment header: %w", err)
	}
	if string(hdr[:8]) != segMagic {
		return 0, fmt.Errorf("store: bad segment magic %q", hdr[:8])
	}
	return LSN(binary.LittleEndian.Uint64(hdr[8:])), nil
}

// appendFrame encodes one framed payload onto buf.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, Checksum(payload))
	return append(buf, payload...)
}

// readFrame reads one frame from r. It returns errTorn for every way a
// crashed append can truncate or corrupt the tail — short header,
// absurd length, short payload, checksum mismatch — but passes real
// I/O errors (a disk returning EIO is not a torn write) through
// verbatim so callers fail loudly instead of truncating good data.
func readFrame(r io.Reader, buf []byte) (payload []byte, frameLen int64, err error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		switch {
		case errors.Is(err, io.EOF):
			return nil, 0, io.EOF // clean end exactly at a frame boundary
		case errors.Is(err, io.ErrUnexpectedEOF):
			return nil, 0, errTorn // partial header
		}
		return nil, 0, fmt.Errorf("store: read frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	want := binary.LittleEndian.Uint32(hdr[4:])
	if n == 0 || n > maxPayload {
		return nil, 0, errTorn
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, 0, errTorn // payload cut short
		}
		return nil, 0, fmt.Errorf("store: read frame payload: %w", err)
	}
	if Checksum(buf) != want {
		return nil, 0, errTorn
	}
	return buf, frameHeader + int64(n), nil
}

// segment is one on-disk log segment known to the store.
type segment struct {
	start LSN    // LSN of the first record
	path  string //
	// count is the number of valid records, known after a scan (or
	// derived from the next segment's start); -1 means not yet scanned.
	count int64
}

func (s segment) String() string { return filepath.Base(s.path) }

// scanSegment walks every frame of the segment at path, calling fn (if
// non-nil) with each record and its LSN. It returns the record count,
// the byte offset just past the last valid frame, and whether the
// segment ends in a torn tail. Decode failures of a CRC-valid payload
// are real corruption and are returned as errors.
func scanSegment(path string, fn func(LSN, Record) error) (count int64, validEnd int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	// Buffer underneath the byte counter: frames are ~25 bytes, so raw
	// file reads would cost two syscalls per record on every boot scan.
	// The counter sits on top and counts logical consumption, keeping
	// validEnd an exact file offset.
	br := newCountingReader(bufio.NewReaderSize(f, 1<<16))
	start, err := readSegHeader(br)
	if err != nil {
		return 0, 0, false, fmt.Errorf("store: %s: %w", filepath.Base(path), err)
	}
	// The header start and the filename always agree when written by
	// this package; a mismatch means header corruption, and trusting
	// the header would silently shift every record's LSN — replaying
	// already-snapshotted records or skipping live ones. Fail loudly.
	if nameLSN, ok := parseSeq(filepath.Base(path), segPrefix, segSuffix); ok && nameLSN != start {
		return 0, 0, false, fmt.Errorf("store: %s: header start LSN %d does not match filename", filepath.Base(path), start)
	}
	validEnd = segHeaderLen
	var buf [maxPayload]byte
	for {
		payload, _, err := readFrame(br, buf[:0])
		if errors.Is(err, io.EOF) {
			return count, validEnd, false, nil
		}
		if errors.Is(err, errTorn) {
			return count, validEnd, true, nil
		}
		if err != nil {
			return count, validEnd, false, err
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			// The frame checksummed clean but the payload is not a record
			// we understand: not a torn write, a format problem.
			return count, validEnd, false, fmt.Errorf("store: %s record %d: %w", filepath.Base(path), count, err)
		}
		if fn != nil {
			if err := fn(start+LSN(count), rec); err != nil {
				return count, validEnd, false, err
			}
		}
		count++
		validEnd = br.n
	}
}

// countingReader tracks how many bytes have been consumed, so the scan
// knows the exact offset of the last valid frame boundary.
type countingReader struct {
	r io.Reader
	n int64
}

func newCountingReader(r io.Reader) *countingReader { return &countingReader{r: r} }

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// listDir partitions the directory into sorted segments and snapshot
// LSNs. With clean set (Open, which owns the directory), leftover temp
// files from interrupted atomic writes are deleted; read-only callers
// (DirHasState) must not, or a probe could unlink a live store's
// in-flight snapshot write out from under its rename.
func listDir(dir string, clean bool) (segs []segment, snaps []LSN, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		if strings.HasSuffix(name, ".tmp") {
			if clean {
				os.Remove(filepath.Join(dir, name)) // interrupted atomic write
			}
			continue
		}
		if start, ok := parseSeq(name, segPrefix, segSuffix); ok {
			segs = append(segs, segment{start: start, path: filepath.Join(dir, name), count: -1})
			continue
		}
		if lsn, ok := parseSeq(name, snapPrefix, snapSuffix); ok {
			snaps = append(snaps, lsn)
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].start < segs[b].start })
	sort.Slice(snaps, func(a, b int) bool { return snaps[a] < snaps[b] })
	return segs, snaps, nil
}
