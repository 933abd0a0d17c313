// Package journal is the append-only record file under both durable
// stores — the verdict-cache warm-start log (vcache.PersistLog) and the
// intake journal (workqueue). It owns the file discipline the stores share
// and nothing else; record bodies, headers and compaction sources belong to
// the owner.
//
// File layout: one header line, then frames (little-endian)
//
//	u32 len | body | u32 crc32(IEEE, body)
//
// The discipline:
//
//   - The header and every rewrite land via WriteFile (temp file + rename),
//     so a crashed writer never leaves a half-written header or image.
//   - Each frame is appended with one write syscall on an O_APPEND
//     descriptor: frames never interleave, and a crash tears at most the
//     last one.
//   - Replay stops at the first bad frame — short, CRC mismatch, a length
//     prefix longer than the rest of the file, or a body the owner's codec
//     rejects — and truncates the file back to the good prefix, so the next
//     append lands on a frame boundary.
//   - The file is compacted once it outgrows max(1 MiB, 4x the last image).
//
// Durability: nothing calls Sync. A journal survives the process being
// killed at any byte (the page cache outlives it) but not power loss.
//
// A Log has no lock: its owner serialises every call.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Compaction is due once the file grows past compactFactor times the last
// image, with compactFloor so small journals never churn.
const (
	compactFactor = 4
	compactFloor  = 1 << 20
)

// frameOverhead is the length prefix plus the CRC trailer.
const frameOverhead = 8

// maxScratch bounds the frame buffer Append keeps between calls, so one
// huge record does not pin its size for the life of the log.
const maxScratch = 1 << 20

// errBadHeader marks a missing or foreign header: Open starts fresh.
var errBadHeader = errors.New("journal: unrecognised header")

// WriteFile writes data to path via a temp file + rename in the same
// directory, so readers and crashed writers never observe a partial file.
func WriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Log is one open journal file.
type Log struct {
	path   string
	header string // without the trailing newline
	f      *os.File
	buf    []byte // frame scratch, reused by Append

	// size is the current file length; lastCompact the length of the last
	// rewritten (or freshly opened) image — together they drive Due.
	size, lastCompact int64
}

// Open opens the journal at path, creating its directory if needed, and
// replays it. header is the whole header line without its newline. When the
// file is missing or its header differs, Open starts a fresh header-only
// file and replays nothing. Otherwise replay receives every good body in
// append order; the body is the callee's to keep. A frame that is torn,
// fails its CRC, or whose body replay rejects ends the replay: it counts as
// skipped (0 or 1) and the file is truncated back to the frames before it.
func Open(path, header string, replay func(body []byte) error) (l *Log, skipped int, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, 0, fmt.Errorf("journal: dir: %w", err)
	}
	l = &Log{path: path, header: header}
	good, skipped, err := l.replay(replay)
	switch {
	case err != nil:
		if err := WriteFile(path, l.image(nil)); err != nil {
			return nil, 0, err
		}
		good = int64(len(header) + 1)
	case skipped > 0:
		if err := os.Truncate(path, good); err != nil {
			return nil, 0, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	if l.f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0); err != nil {
		return nil, 0, fmt.Errorf("journal: open: %w", err)
	}
	l.size, l.lastCompact = good, good
	return l, skipped, nil
}

// replay streams the good frames of the existing file through fn and
// returns the length of the good prefix (header included). An error means
// the file has no usable header.
func (l *Log) replay(fn func(body []byte) error) (good int64, skipped int, err error) {
	f, err := os.Open(l.path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	r := bufio.NewReaderSize(f, 64<<10)
	head := make([]byte, len(l.header)+1)
	if _, err := io.ReadFull(r, head); err != nil || string(head) != l.header+"\n" {
		return 0, 0, errBadHeader
	}
	good = int64(len(head))
	for good < st.Size() {
		body, err := readFrame(r, st.Size()-good)
		if err == nil {
			err = fn(body)
		}
		if err != nil {
			return good, 1, nil
		}
		good += int64(len(body) + frameOverhead)
	}
	return good, 0, nil
}

// readFrame decodes one frame with left bytes remaining in the file. A
// length prefix that overruns the file is rejected before allocating, so
// replay never allocates more than the file holds.
func readFrame(r *bufio.Reader, left int64) ([]byte, error) {
	var word [4]byte
	if left < frameOverhead {
		return nil, io.ErrUnexpectedEOF
	}
	if _, err := io.ReadFull(r, word[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(word[:])
	if int64(n) > left-frameOverhead {
		return nil, fmt.Errorf("journal: frame length %d overruns the file", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r, word[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(word[:]) != crc32.ChecksumIEEE(body) {
		return nil, errors.New("journal: frame CRC mismatch")
	}
	return body, nil
}

// appendFrame appends to dst one frame whose body is the concatenation
// of parts.
func appendFrame(dst []byte, parts ...[]byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	body := dst[start+4:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
}

// image builds a whole file: the header line, then one frame per body
// bodies emits (nil for a header-only file).
func (l *Log) image(bodies func(add func(parts ...[]byte))) []byte {
	img := append([]byte(l.header), '\n')
	if bodies != nil {
		bodies(func(parts ...[]byte) { img = appendFrame(img, parts...) })
	}
	return img
}

// Append writes one frame, whose body is the concatenation of parts, with
// one write syscall. Passing a large payload as its own part spares the
// caller from copying it into a body first.
func (l *Log) Append(parts ...[]byte) error {
	l.buf = appendFrame(l.buf[:0], parts...)
	n, err := l.f.Write(l.buf)
	if cap(l.buf) > maxScratch {
		l.buf = nil
	}
	l.size += int64(n)
	if err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	return nil
}

// Due reports whether the file has outgrown max(1 MiB, 4x its last image).
// Call it only once the owner's in-memory state includes every appended
// record, so the compaction that follows cannot drop one.
func (l *Log) Due() bool {
	return l.size > max(compactFloor, compactFactor*l.lastCompact)
}

// Compact rewrites the file to the header plus the bodies live emits (each
// add call is one body, given in parts as for Append). On failure the due
// threshold backs off to the current size, so a rewrite that keeps failing
// (read-only dir, full disk) is not retried on every append.
func (l *Log) Compact(live func(add func(parts ...[]byte))) error {
	if err := l.rewrite(l.image(live)); err != nil {
		l.lastCompact = l.size
		return err
	}
	return nil
}

// Reset rewrites the file to a header-only image under a new header.
func (l *Log) Reset(header string) error {
	l.header = header
	return l.rewrite(l.image(nil))
}

// rewrite replaces the file with img (temp file + rename: a crash leaves
// either the old file or the complete new one), then swaps the append
// descriptor to the new file.
func (l *Log) rewrite(img []byte) error {
	if err := WriteFile(l.path, img); err != nil {
		return err
	}
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return fmt.Errorf("journal: reopen: %w", err)
	}
	l.f.Close()
	l.f = f
	l.size, l.lastCompact = int64(len(img)), int64(len(img))
	return nil
}

// Close closes the file. Appends after Close fail.
func (l *Log) Close() error {
	return l.f.Close()
}
