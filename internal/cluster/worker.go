package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"apichecker/internal/core"
	"apichecker/internal/lifecycle"
	"apichecker/internal/modelstore"
	"apichecker/internal/worker"
	"apichecker/internal/workqueue"
)

// WorkerConfig tunes one worker node.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	// Required.
	Coordinator string

	// Node is this node's stable name — its affinity and liveness
	// identity across the fleet. Required, and must be unique per node.
	Node string

	// Lanes is the concurrent claim-loop count; <= 0 selects 4.
	Lanes int

	// PollWait is the long-poll budget sent with each claim request;
	// <= 0 selects 10s.
	PollWait time.Duration

	// HeartbeatEvery tunes the mid-vet lease heartbeat: 0 derives it from
	// the claim's lease TTL (TTL/3), positive sets the period, negative
	// disables heartbeats (lease-expiry drills).
	HeartbeatEvery time.Duration

	// Client is the HTTP client; nil builds one with no overall timeout
	// (claim requests long-poll; the per-request context bounds them).
	Client *http.Client

	// Configure, when set, overrides the artifact's deployment config at
	// node cold-start (e.g. disable the local verdict cache). Later
	// generation swaps keep the node-local overrides: SwapModel preserves
	// the running config except the artifact-carried triage band.
	Configure func(core.Config) core.Config

	// OnVet, when set, observes every completed vet before it is acked.
	OnVet func(seq int64, v *core.Verdict, err error)
}

// WorkerStats is a point-in-time activity snapshot for one node.
type WorkerStats struct {
	Claims     uint64 // claims taken
	Verdicts   uint64 // vets completed and reported
	Nacks      uint64 // claims returned (model failure, shutdown)
	LeaseLost  uint64 // vets abandoned mid-emulation (heartbeat got 410)
	ModelPulls uint64 // artifacts fetched over the wire
	ModelSwaps uint64 // hot-swaps adopted after cold-start
}

// Worker is one running worker node: Lanes concurrent claim loops over
// the coordinator's wire protocol, each running the full local vet
// pipeline on a checker cold-started (and hot-swapped) from the
// coordinator's advertised model generation. The lanes are a
// worker.Pool over the node's HTTP lease, the same executor the
// in-process service runs. Construct with StartWorker; Stop cancels the
// lanes, Done closes when they exit (Stop, or the coordinator drained).
type Worker struct {
	cfg    WorkerConfig
	client *http.Client

	ctx    context.Context
	cancel context.CancelFunc
	pool   *worker.Pool[*nodeLease]

	// modelMu serializes model management: the first lane to see a new
	// digest pulls and swaps while the others wait, so no lane ever vets
	// on a stale generation once a claim advertised a newer one.
	modelMu sync.Mutex
	ck      *core.Checker
	digest  string

	claims, verdicts, nacks, leaseLost, pulls, swaps atomic.Uint64
}

// StartWorker launches a worker node and returns immediately; lanes run
// until Stop or the coordinator reports its queue drained.
func StartWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("cluster: worker requires a coordinator URL")
	}
	if cfg.Node == "" {
		return nil, fmt.Errorf("cluster: worker requires a node name")
	}
	if cfg.Lanes <= 0 {
		cfg.Lanes = 4
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 10 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	w := &Worker{cfg: cfg, client: client}
	w.ctx, w.cancel = context.WithCancel(context.Background())
	w.pool = worker.Start(w.ctx, w.claim, worker.Config[*nodeLease]{
		Lanes:          cfg.Lanes,
		HeartbeatEvery: cfg.HeartbeatEvery,
		Do:             w.vet,
	})
	return w, nil
}

// Stop cancels the lanes and waits for them to exit. In-flight vets are
// cancelled at the next emulation boundary and their claims nacked back
// to the coordinator for prompt re-issue (a SIGKILL skips the nack; the
// lease TTL reclaims instead).
func (w *Worker) Stop() {
	w.cancel()
	<-w.pool.Done()
}

// Done is closed when every lane has exited.
func (w *Worker) Done() <-chan struct{} { return w.pool.Done() }

// Stats snapshots node activity.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		Claims:     w.claims.Load(),
		Verdicts:   w.verdicts.Load(),
		Nacks:      w.nacks.Load(),
		LeaseLost:  w.leaseLost.Load(),
		ModelPulls: w.pulls.Load(),
		ModelSwaps: w.swaps.Load(),
	}
}

// Checker returns the node's serving checker (nil before the first
// claim cold-starts it).
func (w *Worker) Checker() *core.Checker {
	w.modelMu.Lock()
	defer w.modelMu.Unlock()
	return w.ck
}

// ModelDigest returns the generation digest the node currently serves
// ("" before cold-start).
func (w *Worker) ModelDigest() string {
	w.modelMu.Lock()
	defer w.modelMu.Unlock()
	return w.digest
}

// claim is the pool's claim function: it long-polls the coordinator
// until a lease comes back. Empty polls (204) re-poll; transient trouble
// (a coordinator restart, the network, a broken claim frame) backs off
// and re-polls rather than killing the lane — a claim lost that way
// comes back when its lease expires. It fails only when the coordinator
// reports drained or ctx (Stop) ends.
func (w *Worker) claim(ctx context.Context) (*nodeLease, error) {
	req := claimRequest{Node: w.cfg.Node, WaitMS: w.cfg.PollWait.Milliseconds()}
	for {
		var cl *claimResponse
		// The request timeout allows one extra PollWait beyond the
		// server's budget so a healthy long-poll is never cut off by the
		// client side.
		err := w.call(ctx, 2*w.cfg.PollWait+5*time.Second, PathClaim, req, func(resp *http.Response) (err error) {
			cl, err = readClaim(resp)
			return err
		})
		switch {
		case cl != nil && cl.Drained:
			return nil, workqueue.ErrDrained
		case cl != nil:
			w.claims.Add(1)
			return &nodeLease{claimResponse: cl, w: w}, nil
		case ctx.Err() != nil:
			return nil, ctx.Err()
		case err != nil:
			select {
			case <-time.After(200 * time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
}

// vet is the pool's Do: one claimed submission through the local vet
// pipeline on the advertised generation. The result rides the lease to
// its Ack. A model failure or a Stop returns an error (the pool nacks the
// claim for prompt re-issue); a lease lost mid-vet returns the loss (the
// re-issued claim, on some node, reports the verdict).
func (w *Worker) vet(ctx context.Context, l *nodeLease) error {
	ck, err := w.ensureModel(l.ModelDigest)
	if err != nil {
		return fmt.Errorf("model %.12s: %v", l.ModelDigest, err)
	}
	vctx := ctx
	if l.DeadlineUnixNano > 0 {
		dctx, cancel := context.WithDeadline(ctx, time.Unix(0, l.DeadlineUnixNano))
		defer cancel()
		vctx = dctx
	}
	t0 := time.Now()
	v, out, err := ck.VetOutcome(vctx, core.Submission{Raw: l.Payload, Seq: l.Seq, Digest: l.Key})
	wall := time.Since(t0)
	if err != nil && errors.Is(err, context.Canceled) {
		if cause := context.Cause(ctx); errors.Is(cause, workqueue.ErrLeaseLost) {
			w.leaseLost.Add(1)
			return cause
		}
		if w.ctx.Err() != nil {
			return errors.New("worker stopping")
		}
	}
	w.verdicts.Add(1)
	if w.cfg.OnVet != nil {
		w.cfg.OnVet(l.Seq, v, err)
	}
	l.result = ackRequest{Outcome: out.String(), WallNS: wall.Nanoseconds(), Verdict: v}
	if err != nil {
		l.result.Error, l.result.ErrorKind = err.Error(), errorKind(err)
	}
	return nil
}

// nodeLease is one claim this node holds: the decoded claim frame plus
// the node answering for it — the worker.Lease the node's pool runs
// over, settled by posting to the coordinator.
type nodeLease struct {
	*claimResponse
	w *Worker

	// result is the vet report Do stored for Ack to post.
	result ackRequest
}

// TTL is the lease TTL the coordinator advertised with the claim.
func (l *nodeLease) TTL() time.Duration { return time.Duration(l.LeaseTTLMS) * time.Millisecond }

// Heartbeat extends the lease. Only a 410 reports it lost: a transport
// error must not kill a healthy emulation over a transient partition —
// if the lease really expired, the next beat's 410 or the ack's
// first-wins absorption handles it. Lease calls run under their own
// timeouts, not the node's context, so a stopping node still settles.
func (l *nodeLease) Heartbeat() error {
	if err := l.w.call(context.Background(), 10*time.Second, PathHeartbeat, l.request(""), nil); errors.Is(err, workqueue.ErrLeaseLost) {
		return err
	}
	return nil
}

// Ack reports the stored vet result. A lost ack needs no retry: the lease
// TTL and first-wins recording absorb it upstream.
func (l *nodeLease) Ack() error {
	req := l.result
	req.Node, req.Seq, req.Token, req.ModelDigest = l.w.cfg.Node, l.Seq, l.Token, l.ModelDigest
	return l.w.call(context.Background(), 30*time.Second, PathAck, req, nil)
}

// Nack returns the claim for another attempt.
func (l *nodeLease) Nack(cause error) (bool, error) {
	l.w.nacks.Add(1)
	var ar ackResponse
	err := l.w.call(context.Background(), 10*time.Second, PathNack, l.request(cause.Error()), func(resp *http.Response) error {
		return json.NewDecoder(resp.Body).Decode(&ar)
	})
	return ar.Requeued, err
}

// request is the lease's heartbeat/nack body.
func (l *nodeLease) request(cause string) leaseRequest {
	return leaseRequest{Node: l.w.cfg.Node, Seq: l.Seq, Token: l.Token, Cause: cause}
}

// ensureModel returns a checker serving exactly digest, pulling and
// adopting the artifact when the node is stale. Serialized: during a
// generation swap every lane converges before any of them vets — no node
// ever serves a stale generation.
func (w *Worker) ensureModel(digest string) (*core.Checker, error) {
	w.modelMu.Lock()
	defer w.modelMu.Unlock()
	if w.ck != nil && w.digest == digest {
		return w.ck, nil
	}
	data, err := w.fetchModel(digest)
	if err != nil {
		return nil, err
	}
	a, err := modelstore.Decode(data)
	if err != nil {
		return nil, err
	}
	if got, err := a.Digest(); err != nil {
		return nil, err
	} else if got != digest {
		return nil, fmt.Errorf("cluster: model integrity: got %.12s want %.12s", got, digest)
	}
	if w.ck == nil {
		cfg := a.Cfg
		if w.cfg.Configure != nil {
			cfg = w.cfg.Configure(cfg)
		}
		parts, err := a.Parts()
		if err != nil {
			return nil, err
		}
		ck, err := core.NewFromParts(parts, cfg)
		if err != nil {
			return nil, err
		}
		w.ck = ck
	} else {
		if _, err := lifecycle.AdoptArtifact(w.ck, a); err != nil {
			return nil, err
		}
		w.swaps.Add(1)
	}
	w.digest = digest
	return w.ck, nil
}

// fetchModel pulls an artifact's bytes by digest.
func (w *Worker) fetchModel(digest string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(w.ctx, time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.cfg.Coordinator+PathModel+digest, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetching model: %w", err)
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, httpStatusError("model fetch", resp)
	}
	w.pulls.Add(1)
	return io.ReadAll(resp.Body)
}

// call posts one JSON request within timeout of ctx and maps the
// answer: 200 hands the response to decode (when set), 204 is nil, 410 is
// workqueue.ErrLeaseLost, anything else an error carrying the body.
func (w *Worker) call(ctx context.Context, timeout time.Duration, path string, body any, decode func(*http.Response) error) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	data, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: %s: %w", path, err)
	}
	defer drainClose(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		if decode != nil {
			return decode(resp)
		}
		return nil
	case http.StatusNoContent:
		return nil
	case http.StatusGone:
		return workqueue.ErrLeaseLost
	default:
		return httpStatusError(path, resp)
	}
}

// httpStatusError turns a non-2xx response into an error carrying the
// body's error envelope (truncated).
func httpStatusError(op string, resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("cluster: %s: %s: %s", op, resp.Status, bytes.TrimSpace(b))
}

// drainClose releases a response so the connection can be reused.
func drainClose(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
