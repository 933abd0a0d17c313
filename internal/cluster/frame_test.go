package cluster

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unicode/utf8"
)

// frameResponse wraps raw frame bytes as a claim response declaring
// declared bytes of body (-1: no Content-Length).
func frameResponse(frame []byte, declared int64) *http.Response {
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        http.Header{"Content-Type": {claimContentType}},
		ContentLength: declared,
		Body:          io.NopCloser(bytes.NewReader(frame)),
	}
}

// encodeClaim runs writeClaim against a recorder and returns its frame.
func encodeClaim(t testing.TB, cl *claimResponse) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	writeClaim(rec, cl)
	if rec.Code != http.StatusOK {
		t.Fatalf("writeClaim: status %d", rec.Code)
	}
	return rec.Body.Bytes()
}

// rawFrame assembles a frame by hand: header, meta, payload.
func rawFrame(metaLen uint32, meta, payload string) []byte {
	b := binary.BigEndian.AppendUint32(nil, metaLen)
	return append(append(b, meta...), payload...)
}

func sampleClaim() *claimResponse {
	return &claimResponse{
		Seq:              42,
		Key:              strings.Repeat("ab", 32),
		Payload:          []byte("PK\x03\x04 archive bytes \x00\xff"),
		Attempts:         2,
		Token:            7,
		LeaseTTLMS:       5000,
		DeadlineUnixNano: 1_700_000_000_000_000_000,
		ModelDigest:      strings.Repeat("cd", 32),
		Generation:       3,
	}
}

// TestReadClaimRejects: every malformed or out-of-bounds frame is an
// error, never a panic, and is refused without a frame-sized allocation.
func TestReadClaimRejects(t *testing.T) {
	good := encodeClaim(t, sampleClaim())
	meta := `{"seq":1,"key":"` + strings.Repeat("k", maxClaimMeta) + `"}`
	bigMeta := rawFrame(uint32(len(meta)), meta, "x")
	for _, tc := range []struct {
		name string
		resp *http.Response
	}{
		{"content type", func() *http.Response {
			r := frameResponse(good, int64(len(good)))
			r.Header.Set("Content-Type", "application/json")
			return r
		}()},
		{"no content length", frameResponse(good, -1)},
		{"shorter than header", frameResponse(good[:2], 2)},
		{"over the frame bound", frameResponse(good, maxClaimFrame+1)},
		{"truncated body", frameResponse(good[:len(good)-3], int64(len(good)))},
		{"meta over the cap", frameResponse(bigMeta, int64(len(bigMeta)))},
		{"meta past the body", frameResponse(rawFrame(100, "{}", "x"), 7)},
		{"bad meta json", frameResponse(rawFrame(5, "{bad}", "x"), 10)},
		{"claim without payload", frameResponse(rawFrame(10, `{"seq":12}`, ""), 14)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readClaim(tc.resp)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: rejecting allocated %d bytes", tc.name, grew)
		}
	}
	cl, err := readClaim(frameResponse(rawFrame(16, `{"drained":true}`, ""), 20))
	if err != nil || !cl.Drained || cl.Payload != nil {
		t.Fatalf("drained frame: %+v, %v", cl, err)
	}
}

// FuzzClaimFrame: readClaim never panics and never allocates past the
// frame bound on arbitrary bytes under an arbitrary declared length, and
// every frame writeClaim produces within the bounds decodes back to the
// same fields and a byte-identical payload.
func FuzzClaimFrame(f *testing.F) {
	work := encodeClaim(f, sampleClaim())
	drained := encodeClaim(f, &claimResponse{Drained: true})
	oversized := append(binary.BigEndian.AppendUint32(nil, 0xffffffff), work[4:]...)
	badJSON := rawFrame(5, "{bad}", "payload")
	for _, frame := range [][]byte{work, drained, work[:len(work)/2], oversized, badJSON} {
		f.Add(frame, int64(len(frame)), int64(1), "ab12", false)
	}
	f.Add(work[:len(work)/2], int64(len(work)), int64(9), "", true)
	f.Add(work, int64(-1), int64(0), "", false)

	const slack = 1 << 20 // meta decode, fuzz-engine bookkeeping
	f.Fuzz(func(t *testing.T, frame []byte, declared, seq int64, key string, drained bool) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cl, err := readClaim(frameResponse(frame, declared))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > maxClaimFrame+slack {
			t.Fatalf("decoding a %d-byte frame (declared %d) allocated %d bytes", len(frame), declared, grew)
		}
		if err == nil && !cl.Drained && len(cl.Payload) == 0 {
			t.Fatal("accepted a work claim without payload")
		}

		if !utf8.ValidString(key) {
			return // JSON replaces invalid UTF-8; real keys are hex
		}
		want := claimResponse{
			Drained:          drained,
			Seq:              seq,
			Key:              key,
			Payload:          frame,
			Attempts:         int(seq % 16),
			Token:            uint64(declared),
			LeaseTTLMS:       declared,
			DeadlineUnixNano: -seq,
			ModelDigest:      key + "/model",
			Generation:       uint64(seq),
		}
		enc := encodeClaim(t, &want)
		got, err := readClaim(frameResponse(enc, int64(len(enc))))
		metaLen := binary.BigEndian.Uint32(enc)
		switch {
		case metaLen > maxClaimMeta || len(enc) > maxClaimFrame || (!drained && len(frame) == 0):
			if err == nil {
				t.Fatal("accepted a frame outside the bounds")
			}
			return
		case err != nil:
			t.Fatalf("round trip: %v", err)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("payload %x, want %x", got.Payload, want.Payload)
		}
		got.Payload, want.Payload = nil, nil
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("meta %+v, want %+v", *got, want)
		}
	})
}
