// Durable intake journal: an append-log of enqueue/settle records so a
// killed serving node replays every submission it accepted but never
// acknowledged. The file discipline (temp+rename header, CRC frames,
// torn-tail truncation, compaction) is internal/journal's; this file is the
// record codec and the fold.
//
// Two record bodies (little-endian); the payload length comes from the
// frame:
//
//	enqueue: u8 1 | u64 seq | u32 keyLen | key | payload
//	settle:  u8 2 | u64 seq
//
// Replay folds the log into the set of enqueued-but-never-settled items:
// exactly the submissions a restart must re-vet. A settle for an unknown
// seq is ignored (its enqueue record was dropped by a compaction).
package workqueue

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sort"

	"apichecker/internal/journal"
)

// logFile is the journal's name inside the queue directory.
const logFile = "workqueue.log"

// logMagic versions the header; bump on layout changes.
const logMagic = "workqueuelog/2"

// Record type tags.
const (
	recEnqueue = 1
	recSettle  = 2
)

// Fixed body prefixes: kind + seq, and enqueue's key length after it.
const (
	settleLen    = 1 + 8
	enqueueFixed = settleLen + 4
)

// errBadRecord marks a CRC-valid body that does not decode.
var errBadRecord = errors.New("workqueue: malformed journal record")

// openLog opens (or creates) the journal in dir and replays it: items
// returns every enqueued-but-unsettled submission in seq order, maxSeq the
// highest seq the log has ever recorded (settled or not, so the caller can
// advance its seq source past numbers a previous life consumed), and
// skipped the records dropped as torn or corrupt. An unparseable header
// starts a fresh log.
func openLog(dir string) (l *journal.Log, items []Item, maxSeq int64, skipped int, err error) {
	live := make(map[int64]Item)
	l, skipped, err = journal.Open(filepath.Join(dir, logFile), logMagic, func(body []byte) error {
		it, settled, err := decodeRecord(body)
		if err != nil {
			return err
		}
		maxSeq = max(maxSeq, it.Seq)
		if settled {
			delete(live, it.Seq)
		} else {
			it.Replayed = true
			live[it.Seq] = it
		}
		return nil
	})
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("workqueue: %w", err)
	}
	items = make([]Item, 0, len(live))
	for _, it := range live {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Seq < items[j].Seq })
	return l, items, maxSeq, skipped, nil
}

// decodeRecord decodes one record body; an enqueue's Payload aliases body.
func decodeRecord(body []byte) (it Item, settled bool, err error) {
	if len(body) < settleLen {
		return Item{}, false, errBadRecord
	}
	it.Seq = int64(binary.LittleEndian.Uint64(body[1:]))
	switch body[0] {
	case recSettle:
		if len(body) != settleLen {
			return Item{}, false, errBadRecord
		}
		return it, true, nil
	case recEnqueue:
		if len(body) < enqueueFixed {
			return Item{}, false, errBadRecord
		}
		n := binary.LittleEndian.Uint32(body[settleLen:])
		if uint64(n) > uint64(len(body)-enqueueFixed) {
			return Item{}, false, errBadRecord
		}
		it.Key = string(body[enqueueFixed : enqueueFixed+n])
		it.Payload = body[enqueueFixed+n:]
		return it, false, nil
	default:
		return Item{}, false, errBadRecord
	}
}

// enqueueHead encodes an enqueue body up to the payload, which the journal
// appends after it as-is.
func enqueueHead(it Item) []byte {
	buf := make([]byte, 0, enqueueFixed+len(it.Key))
	buf = append(buf, recEnqueue)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(it.Seq))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(it.Key)))
	return append(buf, it.Key...)
}

// encodeSettle flattens one settle into its body.
func encodeSettle(seq int64) []byte {
	buf := make([]byte, 0, settleLen)
	buf = append(buf, recSettle)
	return binary.LittleEndian.AppendUint64(buf, uint64(seq))
}

// journalSettleLocked journals one settled (acked or dead-lettered) item so
// it never replays, then compacts if the log has outgrown its live set.
// Compaction runs only here, never on the enqueue path: an enqueue is
// journaled before insertLocked, so a snapshot taken there would miss the
// new item. A failed settle is counted, not returned — the item merely
// replays and re-vets after a restart.
func (q *Queue) journalSettleLocked(it Item) {
	if q.log == nil || q.released || it.Payload == nil {
		return
	}
	if err := q.log.Append(encodeSettle(it.Seq)); err != nil {
		q.appendErrors.Inc()
		return
	}
	if !q.log.Due() {
		return
	}
	err := q.log.Compact(func(add func(...[]byte)) {
		for _, it := range q.liveLocked() {
			if it.Payload != nil { // memory-only items are never journaled
				add(enqueueHead(it), it.Payload)
			}
		}
	})
	if err != nil {
		q.compactErrors.Inc()
	} else {
		q.compactions.Inc()
	}
}
