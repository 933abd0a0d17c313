package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"apichecker/internal/core"
	"apichecker/internal/modelstore"
	"apichecker/internal/obs"
	"apichecker/internal/vetsvc"
	"apichecker/internal/workqueue"
)

// CoordinatorConfig tunes the cluster's queue-owning side.
type CoordinatorConfig struct {
	// NodeTTL is the worker-node liveness window: a node unseen for
	// longer drops out of the affinity set and the live count; <= 0
	// selects 15s.
	NodeTTL time.Duration

	// MaxPoll caps a claim request's long-poll budget; <= 0 selects 30s.
	MaxPoll time.Duration

	// PollSlice is how often a blocked claim re-evaluates node liveness
	// and affinity (each slice is one bounded ClaimWhere); <= 0 selects
	// 250ms. Tests shrink it.
	PollSlice time.Duration

	// StealAge is the anti-starvation bound: a pending item older than
	// this is claimable by any node, affinity notwithstanding (its owner
	// is slow, dead, or drowning); <= 0 selects NodeTTL.
	StealAge time.Duration

	// Registry, when set, serves older generations' artifact bytes for
	// GET /v1/model/{digest} misses (the in-memory window holds only the
	// last few snapshots).
	Registry *modelstore.Registry

	// OnVerdict, when set, observes every remote verdict report as it
	// lands (after first-wins recording). Called synchronously from the
	// ack handler: keep it fast.
	OnVerdict func(RemoteVerdict)
}

// RemoteVerdict is one worker-node verdict report, as observed by the
// coordinator.
type RemoteVerdict struct {
	Node        string
	Seq         int64
	ModelDigest string // the generation the node vetted under
	Verdict     *core.Verdict
	Err         string
	// Recorded: this report settled the first-wins verdict record (false
	// for reclaim-raced duplicates).
	Recorded bool
}

// Coordinator owns the durable queue side of the cluster: it mounts the
// claim protocol on the gateway mux, tracks worker-node liveness, routes
// claims by digest affinity, and serves model artifacts so nodes always
// vet on the advertised generation. Construct with NewCoordinator over a
// running vetsvc.Service (normally one opened in coordinator mode,
// vetsvc.Config.DisableLocalLanes; local lanes and remote nodes can also
// share a queue — first-wins records absorb the overlap).
type Coordinator struct {
	svc *vetsvc.Service
	ck  *core.Checker
	q   *workqueue.Queue
	cfg CoordinatorConfig

	// nodes is the worker registry, by node name; liveness is lastSeen
	// within NodeTTL.
	nodesMu sync.Mutex
	nodes   map[string]*nodeState

	// leases maps seq → the wire-lease view of an outstanding remote
	// claim. A re-issued claim overwrites by seq; stale entries (node
	// death) are pruned on the claim path. Never hold leaseMu across
	// queue calls.
	leaseMu sync.Mutex
	leases  map[int64]*remoteLease

	// model memoizes the serving generation's encoded artifact, keyed by
	// the checker's generation ID: SetTriageBand republishes the same
	// parts under the same artifact digest, but a fresh snapshot is the
	// only digest source that always matches what the checker serves.
	modelMu     sync.Mutex
	modelGen    uint64
	modelDigest string
	models      map[string][]byte
	modelOrder  []string

	nodesGauge                       *obs.Gauge
	claims, acks, nacks, lost, pulls *obs.Counter
}

// nodeState is one worker node's registry entry.
type nodeState struct {
	lastSeen time.Time
	claims   uint64
	leaseAge *obs.Distribution // wall seconds per settled remote lease
}

// remoteLease pairs a queue lease with the node holding it.
type remoteLease struct {
	l        *workqueue.Lease
	node     string
	leasedAt time.Time
}

// modelWindow bounds the in-memory digest → artifact map (current
// generation plus a few predecessors, so a node pulling the digest a
// just-superseded claim advertised still succeeds without a registry).
const modelWindow = 4

// NewCoordinator builds a coordinator over a running service. Cluster
// metrics (cluster.nodes, cluster.claims/acks/nacks/reclaims, per-node
// cluster.lease_age.<node> distributions) register on the service's obs
// collector, so they flow into GET /metrics with no exporter changes.
func NewCoordinator(svc *vetsvc.Service, cfg CoordinatorConfig) *Coordinator {
	if cfg.NodeTTL <= 0 {
		cfg.NodeTTL = 15 * time.Second
	}
	if cfg.MaxPoll <= 0 {
		cfg.MaxPoll = 30 * time.Second
	}
	if cfg.PollSlice <= 0 {
		cfg.PollSlice = 250 * time.Millisecond
	}
	if cfg.StealAge <= 0 {
		cfg.StealAge = cfg.NodeTTL
	}
	col := svc.Obs()
	return &Coordinator{
		svc:        svc,
		ck:         svc.Checker(),
		q:          svc.Queue(),
		cfg:        cfg,
		nodes:      make(map[string]*nodeState),
		leases:     make(map[int64]*remoteLease),
		models:     make(map[string][]byte),
		nodesGauge: col.Gauge("cluster.nodes"),
		claims:     col.Counter("cluster.claims"),
		acks:       col.Counter("cluster.acks"),
		nacks:      col.Counter("cluster.nacks"),
		lost:       col.Counter("cluster.reclaims"),
		pulls:      col.Counter("cluster.model_pulls"),
	}
}

// Mount registers the claim protocol and the model endpoint on mux.
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST "+PathClaim, c.handleClaim)
	mux.HandleFunc("POST "+PathHeartbeat, c.handleHeartbeat)
	mux.HandleFunc("POST "+PathAck, c.handleAck)
	mux.HandleFunc("POST "+PathNack, c.handleNack)
	mux.HandleFunc("GET "+PathModel+"{digest}", c.handleModel)
}

// LiveNodes reports how many worker nodes are within their liveness
// window right now (the healthz surface).
func (c *Coordinator) LiveNodes() int { return len(c.liveNodes()) }

// touch books one sighting of node and refreshes the live gauge.
func (c *Coordinator) touch(node string) {
	now := time.Now()
	c.nodesMu.Lock()
	ns := c.nodes[node]
	if ns == nil {
		ns = &nodeState{leaseAge: c.svc.Obs().Distribution("cluster.lease_age." + node)}
		c.nodes[node] = ns
	}
	ns.lastSeen = now
	live := 0
	for name, st := range c.nodes {
		if now.Sub(st.lastSeen) > c.cfg.NodeTTL {
			// Expired registry entries are dropped; the node's obs
			// distribution survives on the collector and resumes if the
			// node returns.
			delete(c.nodes, name)
			continue
		}
		live++
	}
	c.nodesGauge.Set(int64(live))
	c.nodesMu.Unlock()
}

// liveNodes snapshots the live node names, sorted for deterministic
// affinity.
func (c *Coordinator) liveNodes() []string {
	now := time.Now()
	c.nodesMu.Lock()
	out := make([]string, 0, len(c.nodes))
	for name, st := range c.nodes {
		if now.Sub(st.lastSeen) <= c.cfg.NodeTTL {
			out = append(out, name)
		}
	}
	c.nodesMu.Unlock()
	sort.Strings(out)
	return out
}

// affinityOwner picks the live node whose verdict cache most likely
// holds key: rendezvous (highest-random-weight) hashing over the live
// node set, so repeat submissions route to the same node while a
// membership change only reshuffles the keys the lost node owned.
func affinityOwner(key string, live []string) string {
	best, bestH := "", uint64(0)
	for _, n := range live {
		h := rendezvousHash(key, n)
		if best == "" || h > bestH || (h == bestH && n < best) {
			best, bestH = n, h
		}
	}
	return best
}

// rendezvousHash is FNV-1a over key ∥ 0x00 ∥ node.
func rendezvousHash(key, node string) uint64 {
	const offset, prime = uint64(14695981039346656037), uint64(1099511628211)
	h := offset
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime
	}
	h = (h ^ 0) * prime
	for i := 0; i < len(node); i++ {
		h = (h ^ uint64(node[i])) * prime
	}
	return h
}

// handleClaim is POST /v1/cluster/claim: long-poll for the lowest-seq
// pending item this node may take. The poll is sliced so node liveness
// and affinity are re-evaluated every PollSlice; 204 means nothing
// became claimable within the budget (the worker just re-polls).
func (c *Coordinator) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req claimRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Node == "" {
		httpError(w, http.StatusBadRequest, "claim requires a node name")
		return
	}
	c.touch(req.Node)
	c.pruneLeases()

	budget := time.Duration(req.WaitMS) * time.Millisecond
	if budget <= 0 || budget > c.cfg.MaxPoll {
		budget = c.cfg.MaxPoll
	}
	deadline := time.Now().Add(budget)
	for {
		live := c.liveNodes()
		now := time.Now()
		accept := func(it workqueue.Item) bool {
			if it.Payload == nil {
				// Memory-only submissions cannot ship; local lanes (if
				// any) own them.
				return false
			}
			if it.Key == "" || len(live) <= 1 {
				return true
			}
			if now.Sub(it.EnqueuedAt) >= c.cfg.StealAge {
				return true
			}
			return affinityOwner(it.Key, live) == req.Node
		}
		slice := c.cfg.PollSlice
		if rem := time.Until(deadline); rem < slice {
			slice = rem
		}
		if slice <= 0 {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		sctx, cancel := context.WithTimeout(r.Context(), slice)
		l, err := c.q.ClaimWhere(sctx, accept)
		cancel()
		switch {
		case err == nil:
			c.respondClaim(w, req.Node, l)
			return
		case errors.Is(err, workqueue.ErrDrained):
			writeClaim(w, &claimResponse{Drained: true})
			return
		case errors.Is(err, workqueue.ErrClosed):
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		case r.Context().Err() != nil:
			// Client went away; the slice context aborted with it.
			return
		}
		// Slice expired: refresh liveness and try again within the budget.
	}
}

// respondClaim registers the wire lease and writes the claim frame.
func (c *Coordinator) respondClaim(w http.ResponseWriter, node string, l *workqueue.Lease) {
	it := l.Item()
	digest, gen, err := c.currentModel()
	if err != nil {
		// Without an advertisable model the claim cannot proceed; return
		// the item for another attempt rather than stranding the lease.
		l.Nack(fmt.Errorf("cluster: model snapshot: %w", err))
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	c.svc.MarkStarted(it.Seq)
	c.leaseMu.Lock()
	c.leases[it.Seq] = &remoteLease{l: l, node: node, leasedAt: time.Now()}
	c.leaseMu.Unlock()
	c.nodesMu.Lock()
	if ns := c.nodes[node]; ns != nil {
		ns.claims++
	}
	c.nodesMu.Unlock()
	c.claims.Inc()

	resp := claimResponse{
		Seq:         it.Seq,
		Key:         it.Key,
		Payload:     it.Payload,
		Attempts:    it.Attempts,
		Token:       l.Token(),
		LeaseTTLMS:  c.q.LeaseTTL().Milliseconds(),
		ModelDigest: digest,
		Generation:  gen,
	}
	if dl := c.svc.ClaimDeadline(it); !dl.IsZero() {
		resp.DeadlineUnixNano = dl.UnixNano()
	}
	writeClaim(w, &resp)
}

// takeLease resolves and removes the wire lease for (seq, token); nil
// when unknown or token-mismatched (reclaimed and possibly re-issued).
func (c *Coordinator) takeLease(seq int64, token uint64) *remoteLease {
	c.leaseMu.Lock()
	defer c.leaseMu.Unlock()
	rl := c.leases[seq]
	if rl == nil || rl.l.Token() != token {
		return nil
	}
	delete(c.leases, seq)
	return rl
}

// pruneLeases drops wire-lease entries whose queue lease has been
// reclaimed out from under the node (death mid-emulation). A re-issued
// claim overwrites its seq's entry anyway; pruning catches the tail —
// items dead-lettered or still pending — so the registry cannot leak.
func (c *Coordinator) pruneLeases() {
	c.leaseMu.Lock()
	defer c.leaseMu.Unlock()
	for seq, rl := range c.leases {
		if !rl.l.Valid() {
			delete(c.leases, seq)
			c.lost.Inc()
		}
	}
}

// handleHeartbeat is POST /v1/cluster/heartbeat: extend the lease one
// TTL. 410 tells the node its lease is gone and the vet must be
// abandoned. The 200 body carries the current model digest — a free
// generation-propagation signal mid-emulation.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.touch(req.Node)
	c.leaseMu.Lock()
	rl := c.leases[req.Seq]
	ok := rl != nil && rl.l.Token() == req.Token && rl.node == req.Node
	c.leaseMu.Unlock()
	if !ok {
		httpError(w, http.StatusGone, workqueue.ErrLeaseLost.Error())
		return
	}
	if err := rl.l.Heartbeat(); err != nil {
		c.leaseMu.Lock()
		delete(c.leases, req.Seq)
		c.leaseMu.Unlock()
		c.lost.Inc()
		httpError(w, http.StatusGone, err.Error())
		return
	}
	digest, _, _ := c.currentModel()
	writeJSON(w, http.StatusOK, heartbeatResponse{ModelDigest: digest})
}

// handleAck is POST /v1/cluster/ack: record the verdict (first-wins),
// then settle the lease. Record-before-ack mirrors the local lanes,
// where settleRecord runs in the claim body and the pool's Ack may fail
// afterwards: a verdict computed under a lost lease is still the right
// verdict for those bytes.
func (c *Coordinator) handleAck(w http.ResponseWriter, r *http.Request) {
	var req ackRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.touch(req.Node)
	vetErr := remoteError(req.Error, req.ErrorKind)
	recorded := c.svc.ReportRemote(req.Seq, req.Verdict, parseOutcome(req.Outcome), vetErr, time.Duration(req.WallNS))

	// A missing wire lease means the queue reclaimed it (and the prune or
	// reclaim path already counted the loss); only a loss discovered here
	// — the lease looked live but Ack found it gone — bumps the counter.
	leaseLost := true
	if rl := c.takeLease(req.Seq, req.Token); rl != nil {
		err := rl.l.Ack()
		leaseLost = errors.Is(err, workqueue.ErrLeaseLost)
		if leaseLost {
			c.lost.Inc()
		}
		c.observeLease(rl)
	}
	c.acks.Inc()
	if c.cfg.OnVerdict != nil {
		c.cfg.OnVerdict(RemoteVerdict{
			Node:        req.Node,
			Seq:         req.Seq,
			ModelDigest: req.ModelDigest,
			Verdict:     req.Verdict,
			Err:         req.Error,
			Recorded:    recorded,
		})
	}
	writeJSON(w, http.StatusOK, ackResponse{Recorded: recorded, LeaseLost: leaseLost})
}

// handleNack is POST /v1/cluster/nack: return the claim for another
// attempt (or dead-letter it when attempts are exhausted).
func (c *Coordinator) handleNack(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.touch(req.Node)
	rl := c.takeLease(req.Seq, req.Token)
	if rl == nil {
		httpError(w, http.StatusGone, workqueue.ErrLeaseLost.Error())
		return
	}
	cause := fmt.Errorf("cluster: node %s: %s", req.Node, req.Cause)
	requeued, err := rl.l.Nack(cause)
	c.observeLease(rl)
	c.nacks.Inc()
	if errors.Is(err, workqueue.ErrLeaseLost) {
		c.lost.Inc()
		httpError(w, http.StatusGone, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ackResponse{Requeued: requeued})
}

// observeLease books the settled lease's age into the node's
// distribution.
func (c *Coordinator) observeLease(rl *remoteLease) {
	c.nodesMu.Lock()
	ns := c.nodes[rl.node]
	c.nodesMu.Unlock()
	if ns != nil {
		ns.leaseAge.Observe(time.Since(rl.leasedAt).Seconds())
	}
}

// handleModel is GET /v1/model/{digest}: the content-addressed artifact
// bytes, from the in-memory snapshot window or the registry.
func (c *Coordinator) handleModel(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	c.modelMu.Lock()
	data := c.models[digest]
	c.modelMu.Unlock()
	if data == nil && c.cfg.Registry != nil {
		if b, err := c.cfg.Registry.ArtifactBytes(digest); err == nil {
			data = b
		}
	}
	if data == nil {
		httpError(w, http.StatusNotFound, "unknown model digest: "+digest)
		return
	}
	c.pulls.Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

// currentModel resolves the serving generation's artifact digest,
// snapshotting and memoizing by generation ID. Snapshotting (not the
// checker's recorded digest) is the source of truth: a generation
// trained in-process has no recorded digest, and a runtime band override
// (SetTriageBand) re-encodes into a new digest even though the recorded
// one wouldn't change — either way the advertised digest always matches
// exactly what the checker serves.
func (c *Coordinator) currentModel() (digest string, gen uint64, err error) {
	g := c.ck.Generation()
	c.modelMu.Lock()
	defer c.modelMu.Unlock()
	if c.modelDigest != "" && c.modelGen == g.ID {
		return c.modelDigest, g.ID, nil
	}
	a, err := modelstore.Snapshot(c.ck)
	if err != nil {
		return "", 0, err
	}
	data, err := a.Encode()
	if err != nil {
		return "", 0, err
	}
	sum := sha256.Sum256(data)
	dig := hex.EncodeToString(sum[:])
	c.modelGen, c.modelDigest = g.ID, dig
	if _, ok := c.models[dig]; !ok {
		c.models[dig] = data
		c.modelOrder = append(c.modelOrder, dig)
		for len(c.modelOrder) > modelWindow {
			delete(c.models, c.modelOrder[0])
			c.modelOrder = c.modelOrder[1:]
		}
	}
	return dig, g.ID, nil
}

// decodeBody decodes a JSON request body of at most maxRequestBody
// bytes, answering 413 past the bound and 400 on any other failure.
func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(into)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxRequestBody))
	} else {
		httpError(w, http.StatusBadRequest, "decoding request body: "+err.Error())
	}
	return false
}

// httpError writes a JSON error envelope.
func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(body)
}
