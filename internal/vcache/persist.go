// Persistent verdict-cache tier: an append-log of flat cache entries so a
// restarted serving node warm-starts its hit rate instead of re-emulating
// everything it had already memoized.
//
// The file discipline (temp+rename header, CRC frames, torn-tail
// truncation, compaction) is internal/journal's; this file is the record
// codec and the policy. The log is keyed by a generation key (the serving
// model identity): a snapshot recorded under one model is worthless —
// actively wrong — under another, so the key is part of the header, Open
// discards the file wholesale on key mismatch, and lifecycle swaps Reset it
// exactly like the in-memory epoch bump drops the live entries.
//
// Record body (little-endian); the value length comes from the frame:
//
//	u32 keyLen | key bytes | val bytes
package vcache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"apichecker/internal/journal"
)

// persistFile is the log's name inside the persist directory.
const persistFile = "vcache.log"

// persistMagic versions the header; bump on layout changes.
const persistMagic = "vcachelog/2 "

// errBadRecord marks a CRC-valid body that does not decode.
var errBadRecord = errors.New("vcache: malformed persist record")

// PersistLog is the file-backed warm-start tier for a Cache[[]byte].
// One writer (the serving process) appends entries as they are stored;
// OpenPersist replays them on the next start if the generation key still
// matches. Safe for concurrent use.
type PersistLog struct {
	mu     sync.Mutex
	genKey string
	epoch  uint64 // cache epoch appends must match (see AppendCurrent)
	log    *journal.Log
	closed bool
	// snapshot (EnableCompaction) emits the live entries a compaction
	// rewrites the log to; nil disables compaction and the log grows
	// unbounded within a generation.
	snapshot func(emit func(key string, val []byte))

	appends, resets, compactions, compactErrors uint64
}

// OpenPersist opens (or creates) the persist log in dir. genKey is the
// serving model's identity (artifact digest or equivalent fingerprint);
// epoch is the live cache's current epoch, which appends are gated on.
//
// When the existing log carries the same genKey, its records are replayed
// through restore (good records only, in append order) and appending
// continues where the log left off. Any mismatch — different key, missing
// file, unparseable header — starts a fresh log; restored reports how many
// entries were replayed and skipped reports records dropped as torn or
// corrupt.
func OpenPersist(dir, genKey string, epoch uint64, restore func(key string, val []byte)) (p *PersistLog, restored, skipped int, err error) {
	if genKey == "" {
		return nil, 0, 0, fmt.Errorf("vcache: persist requires a non-empty generation key")
	}
	log, skipped, err := journal.Open(filepath.Join(dir, persistFile), persistMagic+genKey, func(body []byte) error {
		key, val, err := decodeRecord(body)
		if err != nil {
			return err
		}
		if restore != nil {
			restore(key, val)
		}
		restored++
		return nil
	})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("vcache: persist: %w", err)
	}
	return &PersistLog{genKey: genKey, epoch: epoch, log: log}, restored, skipped, nil
}

// recordHead encodes a record body up to the value, which the journal
// appends after it as-is.
func recordHead(key string) []byte {
	buf := make([]byte, 0, 4+len(key))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	return append(buf, key...)
}

// decodeRecord splits a record body; val aliases body.
func decodeRecord(body []byte) (key string, val []byte, err error) {
	if len(body) < 4 {
		return "", nil, errBadRecord
	}
	n := binary.LittleEndian.Uint32(body)
	if uint64(n) > uint64(len(body)-4) {
		return "", nil, errBadRecord
	}
	return string(body[4 : 4+n]), body[4+n:], nil
}

// EnableCompaction installs the live-snapshot source compaction rewrites
// the log from — typically the owning cache's current-generation entries.
// snapshot runs with the log lock held and must not call back into this
// PersistLog. Without it the log is never compacted.
func (p *PersistLog) EnableCompaction(snapshot func(emit func(key string, val []byte))) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.snapshot = snapshot
}

// AppendCurrent appends one entry if epoch still matches the log's —
// the on-disk analogue of TryPut's epoch condition. An append racing a
// Reset (model swap) is either rejected here or lands in the old file
// before the rename replaces it; a stale entry can never reach the log
// that survives. The owning cache already holds the entry, so a
// compaction triggered here keeps it.
func (p *PersistLog) AppendCurrent(key string, val []byte, epoch uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || epoch != p.epoch {
		return nil
	}
	if err := p.log.Append(recordHead(key), val); err != nil {
		return fmt.Errorf("vcache: persist: %w", err)
	}
	p.appends++
	if p.snapshot != nil && p.log.Due() {
		err := p.log.Compact(func(add func(...[]byte)) {
			p.snapshot(func(key string, val []byte) { add(recordHead(key), val) })
		})
		if err != nil {
			p.compactErrors++
		} else {
			p.compactions++
		}
	}
	return nil
}

// Reset discards every persisted entry and re-keys the log — the
// on-disk mirror of BumpEpoch, called by lifecycle swaps with the new
// model's key and the post-bump epoch.
func (p *PersistLog) Reset(genKey string, epoch uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.genKey, p.epoch = genKey, epoch
	p.resets++
	if err := p.log.Reset(persistMagic + genKey); err != nil {
		return fmt.Errorf("vcache: persist reset: %w", err)
	}
	return nil
}

// GenKey returns the generation key the log is currently recording under.
func (p *PersistLog) GenKey() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.genKey
}

// PersistCounters is the persist-tier activity snapshot Counters returns
// (the persist rows of the service metrics dump).
type PersistCounters struct {
	Appends uint64 // records written through since open
	Resets  uint64 // lifecycle re-keys
	// Compactions counts log rewrites that bounded on-disk growth;
	// CompactErrors counts failed rewrite attempts (the log keeps
	// appending, just unbounded until one succeeds).
	Compactions   uint64
	CompactErrors uint64
}

// Counters reports persist-tier activity since open.
func (p *PersistLog) Counters() PersistCounters {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PersistCounters{
		Appends:       p.appends,
		Resets:        p.resets,
		Compactions:   p.compactions,
		CompactErrors: p.compactErrors,
	}
}

// Close closes the log; further appends are silently dropped (the
// in-memory cache remains authoritative).
func (p *PersistLog) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	return p.log.Close()
}
