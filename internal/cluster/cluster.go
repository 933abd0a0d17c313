// Package cluster is the multi-node half of the vet-cluster protocol:
// the network layer that turns the in-process queue/claim/execute
// decomposition (internal/workqueue + internal/worker) into the fleet
// the paper actually operates — one coordinator owning the durable
// submission queue, N worker nodes claiming work over HTTP, and lease
// heartbeats making node death just another reclaim (the
// taskcluster-worker shape). A worker node's lanes are internal/worker's
// executor over an HTTP lease (the claim frame plus the node), so remote
// and local lanes share one loop, one heartbeat rule and one panic guard.
//
// The wire protocol is four POSTs plus one GET, mounted on the
// coordinator's gateway mux:
//
//   - POST /v1/cluster/claim — long-poll for the lowest-seq pending
//     submission this node may take (digest-affinity routing: repeat
//     submissions land on the node whose verdict cache already holds
//     them). The 200 response is a claim frame, not JSON:
//     u32 big-endian metaLen | meta | payload, where meta is the JSON
//     claimResponse (seq, lease token + TTL, the coordinator's current
//     model digest, ...) and payload is the raw archive bytes, not
//     encoded; the worker vets them in place in its one read buffer. A
//     drained answer is a frame with meta only. Coordinator and workers upgrade together: the
//     frame has no version negotiation and no JSON fallback, so an older
//     worker fails to decode a claim, backs off, and the lease TTL
//     reclaims the item.
//   - POST /v1/cluster/heartbeat — extend the lease mid-emulation;
//     410 means the lease was reclaimed and the node must abandon the
//     vet (workqueue.ErrLeaseLost semantics, over the wire).
//   - POST /v1/cluster/ack — report the verdict. The coordinator
//     settles the first-wins verdict record before settling the lease,
//     exactly like a local lane: a verdict computed under a lost lease
//     is still correct (content determinism) and is absorbed by
//     first-wins, never double-booked.
//   - POST /v1/cluster/nack — return the claim for another attempt
//     (node shutting down, model pull failed).
//   - GET /v1/model/{digest} — the encoded APKMODEL artifact, content-
//     addressed, so a stale node hot-swaps to the advertised generation
//     before vetting. No node ever serves a stale generation.
//
// Every other body — the claim request, heartbeat, ack and nack — is
// small JSON, bounded by maxRequestBody on the coordinator (413 past it).
//
// Bit-identity discipline: verdicts derive from submission content
// alone, the coordinator pins sequence numbers at admission, and the
// first-wins record absorbs at-least-once delivery — so N remote nodes
// produce exactly the verdict set one serial Vet loop would.
package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"apichecker/internal/apk"
	"apichecker/internal/core"
	"apichecker/internal/vcache"
)

// Wire paths. PathModel is a prefix; the digest is the final segment.
const (
	PathClaim     = "/v1/cluster/claim"
	PathHeartbeat = "/v1/cluster/heartbeat"
	PathAck       = "/v1/cluster/ack"
	PathNack      = "/v1/cluster/nack"
	PathModel     = "/v1/model/"
)

// claimRequest asks for one unit of work.
type claimRequest struct {
	// Node is the worker node's stable name — its affinity and liveness
	// identity. Required.
	Node string `json:"node"`
	// WaitMS is the long-poll budget in milliseconds; the coordinator
	// answers 204 when nothing became claimable within it (capped by the
	// coordinator's MaxPoll).
	WaitMS int64 `json:"wait_ms"`
}

// claimResponse is one leased submission (or the drained signal).
type claimResponse struct {
	// Drained reports that the coordinator's queue has settled everything
	// and will never hand out work again; lanes exit.
	Drained bool `json:"drained,omitempty"`

	Seq      int64  `json:"seq"`
	Key      string `json:"key,omitempty"` // content digest
	Payload  []byte `json:"-"`             // raw archive bytes (the frame's tail)
	Attempts int    `json:"attempts"`

	// Token is the lease token; every heartbeat/ack/nack must echo it.
	Token uint64 `json:"token"`
	// LeaseTTLMS is the lease TTL in milliseconds (0: never expires).
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
	// DeadlineUnixNano is the submission's absolute vet deadline
	// (0: unbounded).
	DeadlineUnixNano int64 `json:"deadline_unix_nano,omitempty"`

	// ModelDigest is the coordinator's current serving generation — the
	// artifact the node must be running before it vets this claim.
	ModelDigest string `json:"model_digest"`
	// Generation is the coordinator's generation swap counter (logging
	// aid; verdict identity rides the digest).
	Generation uint64 `json:"generation"`
}

// Claim frame bounds. The payload bound is the apk decode bound, which is
// also the gateway's default upload bound, so no admitted archive is
// refused on the wire.
const (
	claimContentType = "application/vnd.apichecker.claim"
	maxClaimMeta     = 64 << 10
	maxClaimFrame    = 4 + maxClaimMeta + apk.MaxDecodedBytes
)

// maxRequestBody bounds every coordinator request body (claim request,
// heartbeat, ack, nack): the largest, an ack, carries one verdict and an
// error string.
const maxRequestBody = 1 << 20

// writeClaim answers 200 with cl as one claim frame:
// u32 big-endian metaLen | meta JSON | raw payload. The explicit
// Content-Length keeps the body unchunked, and the payload goes out as
// its own write, neither encoded nor copied.
func writeClaim(w http.ResponseWriter, cl *claimResponse) {
	meta, err := json.Marshal(cl)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding claim: "+err.Error())
		return
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(meta)))
	h := w.Header()
	h.Set("Content-Type", claimContentType)
	h.Set("Content-Length", strconv.Itoa(len(hdr)+len(meta)+len(cl.Payload)))
	w.WriteHeader(http.StatusOK)
	w.Write(hdr[:])
	w.Write(meta)
	w.Write(cl.Payload)
}

// readClaim decodes a 200 claim response. The body is read once into a
// buffer of exactly Content-Length bytes, and Payload is a subslice of
// it. Anything that is not a well-formed frame within the bounds is an
// error: a wrong content type, a missing or oversized length, a meta
// length past the cap or the body, bad meta JSON, or a work claim with
// no payload (the coordinator never ships memory-only items).
func readClaim(resp *http.Response) (*claimResponse, error) {
	if ct := resp.Header.Get("Content-Type"); ct != claimContentType {
		return nil, fmt.Errorf("cluster: claim content type %q, want %q", ct, claimContentType)
	}
	n := resp.ContentLength
	switch {
	case n < 0:
		return nil, errors.New("cluster: claim frame without Content-Length")
	case n < 4:
		return nil, fmt.Errorf("cluster: claim frame of %d bytes is shorter than its header", n)
	case n > maxClaimFrame:
		return nil, fmt.Errorf("cluster: claim frame of %d bytes exceeds the %d-byte bound", n, maxClaimFrame)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		return nil, fmt.Errorf("cluster: reading claim frame: %w", err)
	}
	metaLen := int64(binary.BigEndian.Uint32(buf))
	if metaLen > maxClaimMeta || metaLen > n-4 {
		return nil, fmt.Errorf("cluster: claim meta length %d out of bounds (frame %d bytes)", metaLen, n)
	}
	var cl claimResponse
	if err := json.Unmarshal(buf[4:4+metaLen], &cl); err != nil {
		return nil, fmt.Errorf("cluster: decoding claim meta: %w", err)
	}
	if rest := buf[4+metaLen:]; len(rest) > 0 {
		cl.Payload = rest
	}
	if !cl.Drained && len(cl.Payload) == 0 {
		return nil, fmt.Errorf("cluster: claim for seq %d carries no payload", cl.Seq)
	}
	return &cl, nil
}

// leaseRequest is the heartbeat/nack body.
type leaseRequest struct {
	Node  string `json:"node"`
	Seq   int64  `json:"seq"`
	Token uint64 `json:"token"`
	// Cause is the nack reason (nack only).
	Cause string `json:"cause,omitempty"`
}

// heartbeatResponse acknowledges a live lease and rides the current
// model digest along — a free propagation signal mid-emulation.
type heartbeatResponse struct {
	ModelDigest string `json:"model_digest"`
}

// ackRequest reports one completed vet.
type ackRequest struct {
	Node  string `json:"node"`
	Seq   int64  `json:"seq"`
	Token uint64 `json:"token"`

	// ModelDigest is the generation the node vetted under — the
	// propagation audit trail.
	ModelDigest string `json:"model_digest"`

	// Outcome is how the node's verdict cache served the vet
	// (bypass|miss|hit|coalesced).
	Outcome string `json:"outcome"`
	// WallNS is the node-side wall-clock vet cost in nanoseconds.
	WallNS int64 `json:"wall_ns"`

	// Verdict is the result (nil when the vet failed).
	Verdict *core.Verdict `json:"verdict,omitempty"`
	// Error and ErrorKind report a failed vet; ErrorKind "deadline" maps
	// back to core.ErrDeadlineExceeded so coordinator-side accounting and
	// gateway status codes survive the wire.
	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"error_kind,omitempty"`
}

// ackResponse reports what the coordinator did with the report.
type ackResponse struct {
	// Recorded: this report settled the verdict record (first-wins).
	Recorded bool `json:"recorded"`
	// LeaseLost: the lease had already been reclaimed; the record (if
	// Recorded) was settled anyway — the verdict is correct regardless of
	// who held the lease.
	LeaseLost bool `json:"lease_lost,omitempty"`
	// Requeued (nack only): the item went back for another attempt.
	Requeued bool `json:"requeued,omitempty"`
}

// errorKind classifies a vet error for the wire.
func errorKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, core.ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	default:
		return ""
	}
}

// parseOutcome maps the wire outcome back to the vcache enum; unknown
// strings read as bypass (the conservative bucket).
func parseOutcome(s string) vcache.Outcome {
	switch s {
	case "miss":
		return vcache.OutcomeMiss
	case "hit":
		return vcache.OutcomeHit
	case "coalesced":
		return vcache.OutcomeCoalesced
	default:
		return vcache.OutcomeBypass
	}
}

// remoteError reconstructs a typed error from the wire form.
func remoteError(msg, kind string) error {
	if msg == "" {
		return nil
	}
	if kind == "deadline" {
		return fmt.Errorf("%s: %w", msg, core.ErrDeadlineExceeded)
	}
	return fmt.Errorf("cluster: remote vet: %s", msg)
}
