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
// coordinator's advertised model generation. Construct with StartWorker;
// Stop cancels the lanes, Wait blocks until they exit (coordinator
// drained or stopped).
type Worker struct {
	cfg    WorkerConfig
	client *http.Client

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	done   chan struct{}

	// modelMu serializes model management: the first lane to see a new
	// digest pulls and swaps while the others wait, so no lane ever vets
	// on a stale generation once a claim advertised a newer one.
	modelMu sync.Mutex
	ck      *core.Checker
	digest  string

	claims, verdicts, nacks, leaseLost, pulls, swaps atomic.Uint64
}

// StartWorker launches a worker node and returns immediately; lanes run
// until Stop, a fatal configuration error, or the coordinator reports
// its queue drained.
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
	w := &Worker{
		cfg:    cfg,
		client: client,
		done:   make(chan struct{}),
	}
	w.ctx, w.cancel = context.WithCancel(context.Background())
	w.wg.Add(cfg.Lanes)
	for i := 0; i < cfg.Lanes; i++ {
		go w.lane()
	}
	go func() {
		w.wg.Wait()
		close(w.done)
	}()
	return w, nil
}

// Stop cancels the lanes and waits for them to exit. In-flight vets are
// cancelled at the next emulation boundary and their claims nacked back
// to the coordinator for prompt re-issue (a SIGKILL skips the nack; the
// lease TTL reclaims instead).
func (w *Worker) Stop() {
	w.cancel()
	w.wg.Wait()
}

// Wait blocks until every lane has exited (Stop, or the coordinator
// drained).
func (w *Worker) Wait() { <-w.done }

// Done is closed when every lane has exited.
func (w *Worker) Done() <-chan struct{} { return w.done }

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

// lane is one claim loop: claim → ensure model → vet → report.
func (w *Worker) lane() {
	defer w.wg.Done()
	for w.ctx.Err() == nil {
		cl, err := w.claim()
		if err != nil {
			if w.ctx.Err() != nil {
				return
			}
			// Transient coordinator trouble (restart, network) or a broken
			// claim frame: back off and re-poll rather than dying. A
			// claim lost this way comes back when its lease expires.
			select {
			case <-time.After(200 * time.Millisecond):
			case <-w.ctx.Done():
				return
			}
			continue
		}
		if cl == nil {
			continue // poll budget expired empty-handed
		}
		if cl.Drained {
			return
		}
		w.claims.Add(1)
		ck, err := w.ensureModel(cl.ModelDigest)
		if err != nil {
			w.nack(cl, fmt.Sprintf("model %.12s: %v", cl.ModelDigest, err))
			continue
		}
		w.execute(ck, cl)
	}
}

// execute runs one claimed submission through the local vet pipeline,
// heartbeating during emulation; lease loss cancels the vet context with
// cause workqueue.ErrLeaseLost, mirroring the in-process worker pool.
func (w *Worker) execute(ck *core.Checker, cl *claimResponse) {
	vctx, vcancel := context.WithCancelCause(w.ctx)
	defer vcancel(nil)
	jctx := context.Context(vctx)
	if cl.DeadlineUnixNano > 0 {
		dctx, dcancel := context.WithDeadline(jctx, time.Unix(0, cl.DeadlineUnixNano))
		defer dcancel()
		jctx = dctx
	}
	hb := w.cfg.HeartbeatEvery
	if hb == 0 && cl.LeaseTTLMS > 0 {
		hb = time.Duration(cl.LeaseTTLMS) * time.Millisecond / 3
	}
	stopHB := func() {}
	if hb > 0 {
		stopHB = w.startHeartbeat(cl, vcancel, hb)
	}

	sub := core.Submission{Raw: cl.Payload, Seq: cl.Seq, Digest: cl.Key}
	t0 := time.Now()
	v, out, err := ck.VetOutcome(jctx, sub)
	wall := time.Since(t0)
	stopHB()

	if err != nil && errors.Is(err, context.Canceled) {
		if errors.Is(context.Cause(vctx), workqueue.ErrLeaseLost) {
			// Reclaimed mid-vet: the re-issued claim (on another node)
			// reports the verdict; this half is abandoned unreported.
			w.leaseLost.Add(1)
			return
		}
		if w.ctx.Err() != nil {
			// Node shutdown: hand the claim back for prompt re-issue.
			w.nack(cl, "worker stopping")
			return
		}
	}
	w.verdicts.Add(1)
	if w.cfg.OnVet != nil {
		w.cfg.OnVet(cl.Seq, v, err)
	}
	w.ack(cl, v, out.String(), err, wall)
}

// startHeartbeat extends the lease every period until stopped; a 410
// from the coordinator cancels the vet with cause ErrLeaseLost.
// Transport errors do not cancel — a transient partition must not kill a
// healthy emulation; if the lease really expired, the next beat's 410 or
// the ack's first-wins absorption handles it.
func (w *Worker) startHeartbeat(cl *claimResponse, cancel context.CancelCauseFunc, every time.Duration) func() {
	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-w.ctx.Done():
				return
			case <-t.C:
				lost, err := w.heartbeat(cl)
				if err == nil && lost {
					cancel(workqueue.ErrLeaseLost)
					return
				}
			}
		}
	}()
	return func() { close(stop) }
}

// claim long-polls the coordinator for work; (nil, nil) means the poll
// came back empty (204).
func (w *Worker) claim() (*claimResponse, error) {
	body := claimRequest{Node: w.cfg.Node, WaitMS: w.cfg.PollWait.Milliseconds()}
	// The request context allows one extra PollWait beyond the server's
	// budget so a healthy long-poll is never cut off by the client side.
	ctx, cancel := context.WithTimeout(w.ctx, 2*w.cfg.PollWait+5*time.Second)
	defer cancel()
	resp, err := w.post(ctx, PathClaim, body)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		return readClaim(resp)
	case http.StatusNoContent:
		return nil, nil
	default:
		return nil, httpStatusError("claim", resp)
	}
}

// heartbeat reports (lost, transport error).
func (w *Worker) heartbeat(cl *claimResponse) (bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := w.post(ctx, PathHeartbeat, leaseRequest{Node: w.cfg.Node, Seq: cl.Seq, Token: cl.Token})
	if err != nil {
		return false, err
	}
	defer drainClose(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		return false, nil
	case http.StatusGone:
		return true, nil
	default:
		return false, httpStatusError("heartbeat", resp)
	}
}

// ack reports one vet result. Failures are logged into the nack counter
// only implicitly: a lost ack is absorbed upstream by the lease TTL and
// first-wins recording, so there is nothing useful to retry here.
func (w *Worker) ack(cl *claimResponse, v *core.Verdict, outcome string, vetErr error, wall time.Duration) {
	req := ackRequest{
		Node:        w.cfg.Node,
		Seq:         cl.Seq,
		Token:       cl.Token,
		ModelDigest: cl.ModelDigest,
		Outcome:     outcome,
		WallNS:      wall.Nanoseconds(),
		Verdict:     v,
	}
	if vetErr != nil {
		req.Error, req.ErrorKind = vetErr.Error(), errorKind(vetErr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if resp, err := w.post(ctx, PathAck, req); err == nil {
		drainClose(resp)
	}
}

// nack returns a claim for another attempt.
func (w *Worker) nack(cl *claimResponse, cause string) {
	w.nacks.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if resp, err := w.post(ctx, PathNack, leaseRequest{Node: w.cfg.Node, Seq: cl.Seq, Token: cl.Token, Cause: cause}); err == nil {
		drainClose(resp)
	}
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

// post sends one JSON request.
func (w *Worker) post(ctx context.Context, path string, body any) (*http.Response, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", path, err)
	}
	return resp, nil
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
