package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

const testHeader = "testlog/1 gen"

// openCollect opens path and returns every replayed body.
func openCollect(t testing.TB, path string) (*Log, [][]byte, int) {
	t.Helper()
	var got [][]byte
	l, skipped, err := Open(path, testHeader, func(body []byte) error {
		got = append(got, body)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, got, skipped
}

func fileSize(t testing.TB, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func equalBodies(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestCrashAtEveryByte cuts a three-record journal at every offset from the
// header end to EOF — the file a kill -9 mid-append can leave — and checks
// that reopening keeps exactly the whole records before the cut, truncates
// the torn remainder, and appends cleanly after it.
func TestCrashAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.log")
	records := [][]byte{[]byte("first"), bytes.Repeat([]byte{0xab}, 37), []byte("third record")}
	l, _, _ := openCollect(t, path)
	headerEnd := fileSize(t, path)
	ends := []int64{headerEnd}
	for _, r := range records {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, ends[len(ends)-1]+int64(len(r)+frameOverhead))
	}
	l.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != ends[len(ends)-1] {
		t.Fatalf("file is %d bytes, frames end at %d", len(full), ends[len(ends)-1])
	}

	for cut := headerEnd; cut <= int64(len(full)); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		whole, boundary := 0, false
		for i, end := range ends {
			if end <= cut {
				whole, boundary = i, end == cut
			}
		}
		wantSkipped := 1
		if boundary {
			wantSkipped = 0
		}

		l, got, skipped := openCollect(t, path)
		if !equalBodies(got, records[:whole]) {
			t.Fatalf("cut %d: replayed %d bodies, want the %d whole records", cut, len(got), whole)
		}
		if skipped != wantSkipped {
			t.Fatalf("cut %d: skipped %d, want %d", cut, skipped, wantSkipped)
		}
		if size := fileSize(t, path); size != ends[whole] {
			t.Fatalf("cut %d: file %d bytes after open, want good prefix %d", cut, size, ends[whole])
		}
		if err := l.Append([]byte("after")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		l, got, skipped = openCollect(t, path)
		l.Close()
		want := append(append([][]byte{}, records[:whole]...), []byte("after"))
		if !equalBodies(got, want) || skipped != 0 {
			t.Fatalf("cut %d: after append replayed %d bodies (skipped %d), want %d (skipped 0)", cut, len(got), skipped, len(want))
		}
	}
}

func TestHeaderMismatchStartsFresh(t *testing.T) {
	for name, content := range map[string]string{
		"other-header": "testlog/1 other\n",
		"old-version":  "testlog/0 gen\n",
		"no-newline":   "garbage",
		"empty":        "",
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.log")
			if err := os.WriteFile(path, []byte(content+"\x05\x00\x00\x00trailing"), 0o644); err != nil {
				t.Fatal(err)
			}
			l, got, skipped := openCollect(t, path)
			defer l.Close()
			if len(got) != 0 || skipped != 0 {
				t.Fatalf("foreign file replayed %d bodies, skipped %d", len(got), skipped)
			}
			if data, _ := os.ReadFile(path); string(data) != testHeader+"\n" {
				t.Fatalf("fresh file = %q, want the header alone", data)
			}
		})
	}
}

func TestRejectedBodyEndsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	l, _, _ := openCollect(t, path)
	for _, b := range []string{"ok", "bad", "ok-after"} {
		if err := l.Append([]byte(b)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	var got []string
	l, skipped, err := Open(path, testHeader, func(body []byte) error {
		if string(body) == "bad" {
			return errors.New("codec rejects it")
		}
		got = append(got, string(body))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if len(got) != 1 || got[0] != "ok" || skipped != 1 {
		t.Fatalf("replayed %q skipped %d, want [ok] skipped 1", got, skipped)
	}
	if size := fileSize(t, path); size != int64(len(testHeader)+1+len("ok")+frameOverhead) {
		t.Fatalf("file not truncated before the rejected body: %d bytes", size)
	}
}

func TestCompactFailureBacksOff(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.log")
	l, _, _ := openCollect(t, path)
	defer l.Close()
	for !l.Due() {
		if err := l.Append(make([]byte, 64<<10)); err != nil {
			t.Fatal(err)
		}
	}
	// With the directory gone the rewrite cannot create its temp file.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(func(add func(...[]byte)) { add([]byte("live")) }); err == nil {
		t.Fatal("compaction into a removed directory succeeded")
	}
	if l.Due() {
		t.Fatal("failed compaction is due again on the next append")
	}
	if err := l.Append([]byte("still appending")); err != nil {
		t.Fatal(err)
	}
}

// frame is a test-side encoder for seed corpora.
func frame(bodies ...[]byte) []byte {
	var out []byte
	for _, b := range bodies {
		out = appendFrame(out, b)
	}
	return out
}

// FuzzJournalReplay replays the header plus arbitrary bytes. Replay must
// not panic, must keep a good prefix no longer than the input, and the
// truncated file must replay to the same bodies with nothing skipped. The
// seeds are frames both stores write: vcache key/value records and
// workqueue enqueue/settle records.
func FuzzJournalReplay(f *testing.F) {
	vcacheBody := binary.LittleEndian.AppendUint32(nil, 6)
	vcacheBody = append(append(vcacheBody, "digest"...), "entry-bytes"...)
	enqueue := append([]byte{1}, binary.LittleEndian.AppendUint64(nil, 7)...)
	enqueue = binary.LittleEndian.AppendUint32(enqueue, 3)
	enqueue = append(append(enqueue, "app"...), "apk-payload"...)
	settle := append([]byte{2}, binary.LittleEndian.AppendUint64(nil, 7)...)

	f.Add([]byte{})
	f.Add(frame(vcacheBody))
	f.Add(frame(vcacheBody, vcacheBody)[:20])
	f.Add(frame(enqueue, settle))
	f.Add(append(frame(enqueue), 0xde, 0xad, 0xbe, 0xef))
	f.Add(frame([]byte{0xff, 1, 2}, settle))

	path := filepath.Join(f.TempDir(), "j.log")
	f.Fuzz(func(t *testing.T, data []byte) {
		input := append([]byte(testHeader+"\n"), data...)
		if err := os.WriteFile(path, input, 0o644); err != nil {
			t.Fatal(err)
		}
		// The replay callback stands in for a codec that rejects some
		// CRC-valid bodies, so the reject path is fuzzed too.
		replay := func(got *[][]byte) func([]byte) error {
			return func(body []byte) error {
				if len(body) > 0 && body[0] == 0xff {
					return errors.New("rejected")
				}
				*got = append(*got, body)
				return nil
			}
		}
		var first, second [][]byte
		l, _, err := Open(path, testHeader, replay(&first))
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		if l.size > int64(len(input)) {
			t.Fatalf("good prefix %d longer than the %d-byte input", l.size, len(input))
		}
		if size := fileSize(t, path); size != l.size {
			t.Fatalf("file %d bytes after open, good prefix %d", size, l.size)
		}
		l, skipped, err := Open(path, testHeader, replay(&second))
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		if skipped != 0 || !equalBodies(first, second) {
			t.Fatalf("truncated file replayed %d bodies (skipped %d), first pass %d", len(second), skipped, len(first))
		}
	})
}
