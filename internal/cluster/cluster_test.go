// Tests live in an external package so they can stand up the real
// gateway (gateway imports cluster's coordinator through its Config;
// cluster must never import gateway).
package cluster_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apichecker/internal/apk"
	"apichecker/internal/cluster"
	"apichecker/internal/core"
	"apichecker/internal/dataset"
	"apichecker/internal/framework"
	"apichecker/internal/gateway"
	"apichecker/internal/modelstore"
	"apichecker/internal/vetsvc"
	"apichecker/internal/worker/workertest"
	"apichecker/internal/workqueue"
)

var testU = framework.MustGenerate(framework.TestConfig(3000))

// trainedArtifact trains one checker and snapshots it; every stack in a
// test (serial baseline, coordinator, worker nodes) instantiates from
// this single artifact so model content — and therefore verdicts — are
// identical by construction.
func trainedArtifact(t *testing.T) (*modelstore.Artifact, *dataset.Corpus) {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.NumApps = 400
	corpus, err := dataset.Generate(testU, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck, _, err := core.TrainFromCorpus(corpus, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := modelstore.Snapshot(ck)
	if err != nil {
		t.Fatal(err)
	}
	return a, corpus
}

// instantiate builds a fresh checker from the artifact under cfg
// (generation 1, exactly like a worker node's cold start).
func instantiate(t *testing.T, a *modelstore.Artifact, cfg core.Config) *core.Checker {
	t.Helper()
	parts, err := a.Parts()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := core.NewFromParts(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// rawSubs builds n raw-APK submissions (with duplicates when n exceeds
// distinct) — the only payload shape that can travel to remote nodes.
func rawSubs(t *testing.T, corpus *dataset.Corpus, distinct, n int) []core.Submission {
	t.Helper()
	raws := make([][]byte, distinct)
	for i := range raws {
		var err error
		raws[i], err = apk.Build(corpus.Program(i), testU)
		if err != nil {
			t.Fatal(err)
		}
	}
	subs := make([]core.Submission, n)
	for i := range subs {
		subs[i] = core.Submission{Raw: raws[i%distinct]}
	}
	return subs
}

// clusterStack is one running coordinator + N worker nodes over an
// httptest server.
type clusterStack struct {
	svc     *vetsvc.Service
	coord   *cluster.Coordinator
	ts      *httptest.Server
	workers []*cluster.Worker
}

func startStack(t *testing.T, svc *vetsvc.Service, ccfg cluster.CoordinatorConfig, nodes int, wcfg cluster.WorkerConfig) *clusterStack {
	t.Helper()
	if ccfg.PollSlice == 0 {
		ccfg.PollSlice = 10 * time.Millisecond
	}
	if ccfg.StealAge == 0 {
		ccfg.StealAge = 150 * time.Millisecond
	}
	coord := cluster.NewCoordinator(svc, ccfg)
	mux := http.NewServeMux()
	coord.Mount(mux)
	ts := httptest.NewServer(mux)
	st := &clusterStack{svc: svc, coord: coord, ts: ts}
	for i := 0; i < nodes; i++ {
		cfg := wcfg
		cfg.Coordinator = ts.URL
		cfg.Node = fmt.Sprintf("node-%d", i)
		if cfg.Lanes == 0 {
			cfg.Lanes = 2
		}
		if cfg.PollWait == 0 {
			cfg.PollWait = 250 * time.Millisecond
		}
		w, err := cluster.StartWorker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st.workers = append(st.workers, w)
	}
	t.Cleanup(st.stop)
	return st
}

// stop tears the stack down: workers first (their in-flight polls abort
// with the worker context), then the service, then the listener.
func (st *clusterStack) stop() {
	for _, w := range st.workers {
		w.Stop()
	}
	st.svc.Close()
	st.ts.Close()
}

// artifactDigest replicates the coordinator's advertised digest: sha256
// over the deterministic encoding of a snapshot of the serving checker.
func artifactDigest(t *testing.T, ck *core.Checker) string {
	t.Helper()
	a, err := modelstore.Snapshot(ck)
	if err != nil {
		t.Fatal(err)
	}
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestClusterMatchesSerialVet is the acceptance contract: N remote
// worker nodes claiming over the wire produce verdicts bit-identical to
// one serial Vet loop, across the cache × triage deployment matrix.
func TestClusterMatchesSerialVet(t *testing.T) {
	base, corpus := trainedArtifact(t)
	const distinct, total, nodes = 18, 36, 3

	for _, tc := range []struct {
		name   string
		cache  bool
		triage bool
	}{
		{"cache-on/triage-off", true, false},
		{"cache-off/triage-off", false, false},
		{"cache-on/triage-on", true, true},
		{"cache-off/triage-on", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// One deployment config for every checker in this case; the
			// band travels inside the artifact the coordinator advertises,
			// the cache knob through the worker's Configure hook.
			cfg := base.Cfg
			if !tc.cache {
				cfg.VerdictCache = -1
			}
			if tc.triage {
				cfg.TriageLo, cfg.TriageHi = 0.05, 0.95
			} else {
				cfg.TriageLo, cfg.TriageHi = 0, 0
			}

			subs := rawSubs(t, corpus, distinct, total)
			ckSerial := instantiate(t, base, cfg)
			serial := make([]*core.Verdict, len(subs))
			for i, sub := range subs {
				v, err := ckSerial.Vet(context.Background(), sub)
				if err != nil {
					t.Fatal(err)
				}
				serial[i] = v
			}

			ckCoord := instantiate(t, base, cfg)
			svc, err := vetsvc.Open(ckCoord, vetsvc.Config{
				QueueSize:         total,
				DisableLocalLanes: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			cache := tc.cache
			startStack(t, svc, cluster.CoordinatorConfig{}, nodes, cluster.WorkerConfig{
				Configure: func(c core.Config) core.Config {
					if !cache {
						c.VerdictCache = -1
					}
					return c
				},
			})

			got, err := svc.VetBatch(context.Background(), subs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range serial {
				if *got[i] != *serial[i] {
					t.Fatalf("%s: submission %d: cluster %+v vs serial %+v",
						tc.name, i, *got[i], *serial[i])
				}
			}
		})
	}
}

// postJSON sends one JSON body to a coordinator path; the caller closes
// the response.
func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// claimFrame posts one claim as node and decodes the frame, checking the
// headers every claim response carries.
func claimFrame(t *testing.T, baseURL, node string) *cluster.ClaimResponse {
	t.Helper()
	resp := postJSON(t, baseURL+cluster.PathClaim, map[string]any{"node": node, "wait_ms": 2000})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("claim: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/vnd.apichecker.claim" {
		t.Fatalf("claim Content-Type = %q", ct)
	}
	if resp.ContentLength <= 0 || len(resp.TransferEncoding) != 0 {
		t.Fatalf("claim not sized: Content-Length %d, Transfer-Encoding %v", resp.ContentLength, resp.TransferEncoding)
	}
	cl, err := cluster.ReadClaim(resp)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// zombieClaim takes one claim over the wire as a node that will never
// heartbeat, ack, or nack — a worker killed mid-emulation.
func zombieClaim(t *testing.T, baseURL string) (seq int64) {
	t.Helper()
	cl := claimFrame(t, baseURL, "zombie")
	if len(cl.Payload) == 0 {
		t.Fatal("zombie claim carried no payload")
	}
	return cl.Seq
}

// TestClaimFrameRoundTrip: a claim crosses the wire as a sized claim
// frame whose payload is byte-identical to the enqueued archive, and a
// drained queue answers with a meta-only frame that decodes as Drained.
func TestClaimFrameRoundTrip(t *testing.T) {
	base, corpus := trainedArtifact(t)
	svc, err := vetsvc.Open(instantiate(t, base, base.Cfg), vetsvc.Config{QueueSize: 4, DisableLocalLanes: true})
	if err != nil {
		t.Fatal(err)
	}
	st := startStack(t, svc, cluster.CoordinatorConfig{}, 0, cluster.WorkerConfig{})
	sub := rawSubs(t, corpus, 1, 1)[0]
	tk, err := svc.Submit(context.Background(), sub)
	if err != nil {
		t.Fatal(err)
	}

	cl := claimFrame(t, st.ts.URL, "probe")
	if cl.Drained || cl.Seq != tk.Seq() {
		t.Fatalf("claim seq %d drained %v, want seq %d", cl.Seq, cl.Drained, tk.Seq())
	}
	if !bytes.Equal(cl.Payload, sub.Raw) {
		t.Fatalf("payload of %d bytes differs from the %d-byte enqueued archive", len(cl.Payload), len(sub.Raw))
	}
	if cl.Token == 0 || cl.ModelDigest == "" {
		t.Fatalf("claim meta incomplete: token %d, model %q", cl.Token, cl.ModelDigest)
	}

	// Settle the lease so the queue can drain.
	resp := postJSON(t, st.ts.URL+cluster.PathAck, map[string]any{
		"node": "probe", "seq": cl.Seq, "token": cl.Token, "error": "probe settles without vetting",
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ack: status %d", resp.StatusCode)
	}
	svc.Queue().Shutdown()
	if cl := claimFrame(t, st.ts.URL, "probe"); !cl.Drained || cl.Payload != nil {
		t.Fatalf("after drain: drained %v with %d payload bytes", cl.Drained, len(cl.Payload))
	}
}

// TestOversizedRequestBodies: a claim, heartbeat, ack or nack body past
// the coordinator's bound is refused with 413 and settles nothing — the
// pending item stays pending and the held lease stays held.
func TestOversizedRequestBodies(t *testing.T) {
	base, corpus := trainedArtifact(t)
	svc, err := vetsvc.Open(instantiate(t, base, base.Cfg), vetsvc.Config{QueueSize: 4, DisableLocalLanes: true})
	if err != nil {
		t.Fatal(err)
	}
	// The held lease is never settled by a worker; bound the drain.
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		svc.Drain(ctx)
	}()
	coord := cluster.NewCoordinator(svc, cluster.CoordinatorConfig{PollSlice: 10 * time.Millisecond})
	mux := http.NewServeMux()
	coord.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var tickets []*vetsvc.Ticket
	for _, sub := range rawSubs(t, corpus, 2, 2) {
		tk, err := svc.Submit(context.Background(), sub)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	cl := claimFrame(t, ts.URL, "holder")

	big := strings.Repeat("x", cluster.MaxRequestBody)
	for _, tc := range []struct {
		path string
		body map[string]any
	}{
		{cluster.PathClaim, map[string]any{"node": big, "wait_ms": 10}},
		{cluster.PathHeartbeat, map[string]any{"node": "holder", "seq": cl.Seq, "token": cl.Token, "cause": big}},
		{cluster.PathAck, map[string]any{"node": "holder", "seq": cl.Seq, "token": cl.Token, "error": big}},
		{cluster.PathNack, map[string]any{"node": "holder", "seq": cl.Seq, "token": cl.Token, "cause": big}},
	} {
		resp := postJSON(t, ts.URL+tc.path, tc.body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", tc.path, resp.StatusCode)
		}
	}

	if qs := svc.QueueStats(); qs.Depth != 1 || qs.Leased != 1 || qs.Acked != 0 || qs.Nacked != 0 {
		t.Fatalf("queue after oversized bodies: %+v, want one pending and one held lease", qs)
	}
	for _, tk := range tickets {
		select {
		case <-tk.Done():
			t.Fatalf("seq %d settled by an oversized body", tk.Seq())
		default:
		}
	}
	// The held lease is intact: a well-sized nack returns it.
	resp := postJSON(t, ts.URL+cluster.PathNack, map[string]any{"node": "holder", "seq": cl.Seq, "token": cl.Token, "cause": "done probing"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("well-sized nack: status %d", resp.StatusCode)
	}
}

// TestClusterReclaimsDeadNode kills a node holding a lease mid-emulation
// (a wire claim that never heartbeats again): the lease expires, the
// queue re-issues the submission to a live node, and the verdict lands
// exactly once, bit-identical to serial — the at-least-once lease plus
// first-wins record contract, over the wire.
func TestClusterReclaimsDeadNode(t *testing.T) {
	base, corpus := trainedArtifact(t)
	const total = 8
	cfg := base.Cfg
	subs := rawSubs(t, corpus, total, total)

	ckSerial := instantiate(t, base, cfg)
	serial := make([]*core.Verdict, len(subs))
	for i, sub := range subs {
		v, err := ckSerial.Vet(context.Background(), sub)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = v
	}

	ckCoord := instantiate(t, base, cfg)
	svc, err := vetsvc.Open(ckCoord, vetsvc.Config{
		QueueSize:         total,
		LeaseTTL:          300 * time.Millisecond,
		DisableLocalLanes: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu       sync.Mutex
		recorded = map[int64]int{}
	)
	ccfg := cluster.CoordinatorConfig{
		NodeTTL:  time.Second,
		StealAge: 100 * time.Millisecond,
		OnVerdict: func(rv cluster.RemoteVerdict) {
			if rv.Recorded {
				mu.Lock()
				recorded[rv.Seq]++
				mu.Unlock()
			}
		},
	}

	// Bring up the coordinator with zero real workers, let the zombie
	// claim the first submission, then start the live fleet.
	st := startStack(t, svc, ccfg, 0, cluster.WorkerConfig{})
	tickets := make([]*vetsvc.Ticket, len(subs))
	for i, sub := range subs {
		tk, err := svc.Submit(context.Background(), sub)
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	deadSeq := zombieClaim(t, st.ts.URL)

	wcfg := cluster.WorkerConfig{Coordinator: st.ts.URL, Node: "live-0", Lanes: 2, PollWait: 250 * time.Millisecond}
	w, err := cluster.StartWorker(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	st.workers = append(st.workers, w)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, tk := range tickets {
		v, err := tk.Wait(ctx)
		if err != nil {
			t.Fatalf("submission %d (seq %d): %v", i, tk.Seq(), err)
		}
		if *v != *serial[i] {
			t.Fatalf("submission %d: cluster %+v vs serial %+v", i, *v, *serial[i])
		}
	}
	waitTally(&mu, func() bool { return len(recorded) >= total })

	if qs := svc.QueueStats(); qs.Reclaimed == 0 {
		t.Fatal("dead node's lease was never reclaimed")
	}
	mu.Lock()
	defer mu.Unlock()
	if n := recorded[deadSeq]; n != 1 {
		t.Fatalf("dead node's submission recorded %d times, want exactly 1", n)
	}
	for seq, n := range recorded {
		if n != 1 {
			t.Fatalf("seq %d recorded %d times, want exactly 1", seq, n)
		}
	}
}

// TestClusterModelPropagation promotes a new model generation mid-run
// and verifies every subsequent verdict, from every node, was vetted
// under — and reports — the new generation's digest.
func TestClusterModelPropagation(t *testing.T) {
	base, corpus := trainedArtifact(t)
	cfg := base.Cfg
	ckCoord := instantiate(t, base, cfg)
	oldDigest := artifactDigest(t, ckCoord)

	svc, err := vetsvc.Open(ckCoord, vetsvc.Config{QueueSize: 32, DisableLocalLanes: true})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		reports []cluster.RemoteVerdict
	)
	ccfg := cluster.CoordinatorConfig{OnVerdict: func(rv cluster.RemoteVerdict) {
		mu.Lock()
		reports = append(reports, rv)
		mu.Unlock()
	}}
	st := startStack(t, svc, ccfg, 3, cluster.WorkerConfig{})

	subs := rawSubs(t, corpus, 20, 20)
	if _, err := svc.VetBatch(context.Background(), subs[:10]); err != nil {
		t.Fatal(err)
	}
	waitTally(&mu, func() bool { return recordedSeqs(reports) >= 10 })
	mu.Lock()
	firstWave := len(reports)
	for _, rv := range reports {
		if rv.ModelDigest != oldDigest {
			t.Fatalf("pre-promotion verdict from %s under digest %.12s, want %.12s",
				rv.Node, rv.ModelDigest, oldDigest)
		}
	}
	mu.Unlock()

	// Promote: a band change is a model swap in this system (it reshapes
	// verdicts), advancing the generation and re-encoding the artifact
	// under a new content digest.
	if _, err := ckCoord.SetTriageBand(0.05, 0.95); err != nil {
		t.Fatal(err)
	}
	newDigest := artifactDigest(t, ckCoord)
	if newDigest == oldDigest {
		t.Fatal("promotion did not change the artifact digest")
	}

	if _, err := svc.VetBatch(context.Background(), subs[10:]); err != nil {
		t.Fatal(err)
	}
	waitTally(&mu, func() bool { return recordedSeqs(reports) >= len(subs) })
	mu.Lock()
	defer mu.Unlock()
	if len(reports) <= firstWave {
		t.Fatal("no post-promotion verdicts landed")
	}
	for _, rv := range reports[firstWave:] {
		if rv.ModelDigest != newDigest {
			t.Fatalf("post-promotion verdict from %s under digest %.12s, want %.12s",
				rv.Node, rv.ModelDigest, newDigest)
		}
	}
	swaps := uint64(0)
	for _, w := range st.workers {
		swaps += w.Stats().ModelSwaps
		if d := w.ModelDigest(); d != "" && d != newDigest {
			t.Fatalf("node still serving digest %.12s after promotion", d)
		}
	}
	if swaps == 0 {
		t.Fatal("no node hot-swapped to the promoted generation")
	}
}

// waitTally polls, bounded, until covered holds under mu. handleAck calls
// OnVerdict only after ReportRemote has settled the record and woken its
// waiter, so the report for the last settled submission can trail the
// Wait or VetBatch that returned it. On timeout it returns and leaves the
// caller's assertions to report what is missing.
func waitTally(mu *sync.Mutex, covered func() bool) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		ok := covered()
		mu.Unlock()
		if ok || time.Now().After(deadline) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// recordedSeqs counts the distinct seqs whose report settled the record.
func recordedSeqs(reports []cluster.RemoteVerdict) int {
	seen := map[int64]bool{}
	for _, rv := range reports {
		if rv.Recorded {
			seen[rv.Seq] = true
		}
	}
	return len(seen)
}

// TestHealthzClusterFields verifies the extended /healthz surface: queue
// depth, in-flight leases, and the live worker-node count.
func TestHealthzClusterFields(t *testing.T) {
	base, corpus := trainedArtifact(t)
	ckCoord := instantiate(t, base, base.Cfg)
	svc, err := vetsvc.Open(ckCoord, vetsvc.Config{QueueSize: 8, DisableLocalLanes: true})
	if err != nil {
		t.Fatal(err)
	}
	// The queued submissions are never vetted (no worker fleet here), so
	// a full Close would wait forever for the drain; bound it instead.
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		svc.Drain(ctx)
	}()
	coord := cluster.NewCoordinator(svc, cluster.CoordinatorConfig{PollSlice: 10 * time.Millisecond})
	gw := gateway.New(svc, gateway.Config{Cluster: coord})
	ts := httptest.NewServer(gw)
	defer ts.Close()

	subs := rawSubs(t, corpus, 3, 3)
	for _, sub := range subs {
		if _, err := svc.Submit(context.Background(), sub); err != nil {
			t.Fatal(err)
		}
	}

	readHealth := func() map[string]any {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body
	}

	h := readHealth()
	if got := h["queue_depth"]; got != float64(3) {
		t.Fatalf("queue_depth = %v, want 3", got)
	}
	if got := h["leases"]; got != float64(0) {
		t.Fatalf("leases = %v, want 0", got)
	}
	if got := h["nodes"]; got != float64(0) {
		t.Fatalf("nodes = %v, want 0", got)
	}

	// One wire claim: the claiming node is live and holds one lease.
	zombieClaim(t, ts.URL)
	h = readHealth()
	if got := h["queue_depth"]; got != float64(2) {
		t.Fatalf("after claim: queue_depth = %v, want 2", got)
	}
	if got := h["leases"]; got != float64(1) {
		t.Fatalf("after claim: leases = %v, want 1", got)
	}
	if got := h["nodes"]; got != float64(1) {
		t.Fatalf("after claim: nodes = %v, want 1", got)
	}
}

// TestClusterNodeSurvivesPanic: a panic while a node vets one claim is
// isolated to that claim — the lane nacks it, the item is re-claimed and
// vetted, and both nodes keep serving.
func TestClusterNodeSurvivesPanic(t *testing.T) {
	base, corpus := trainedArtifact(t)
	const total = 12
	subs := rawSubs(t, corpus, total, total)
	ckSerial := instantiate(t, base, base.Cfg)
	serial := make([]*core.Verdict, len(subs))
	for i, sub := range subs {
		v, err := ckSerial.Vet(context.Background(), sub)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = v
	}

	svc, err := vetsvc.Open(instantiate(t, base, base.Cfg), vetsvc.Config{
		QueueSize:         total,
		DisableLocalLanes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The first vetted seq becomes the poisoned one: its first report
	// panics, every later one goes through.
	var poisoned atomic.Int64
	st := startStack(t, svc, cluster.CoordinatorConfig{}, 2, cluster.WorkerConfig{
		OnVet: func(seq int64, _ *core.Verdict, _ error) {
			if poisoned.CompareAndSwap(0, seq) {
				panic("poisoned vet")
			}
		},
	})

	got, err := svc.VetBatch(context.Background(), subs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if *got[i] != *serial[i] {
			t.Fatalf("submission %d: cluster %+v vs serial %+v", i, *got[i], *serial[i])
		}
	}
	var nacks uint64
	for i, w := range st.workers {
		nacks += w.Stats().Nacks
		select {
		case <-w.Done():
			t.Fatalf("node %d exited after the panic", i)
		default:
		}
	}
	if nacks < 1 {
		t.Fatalf("nodes nacked %d claims, want the panicked one nacked", nacks)
	}
	if n := st.coord.LiveNodes(); n != 2 {
		t.Fatalf("live nodes = %d, want 2", n)
	}
}

// TestLeaseContract runs the executor's conformance suite over a node's
// HTTP lease against a live coordinator: the same cases the in-process
// workqueue lease passes.
func TestLeaseContract(t *testing.T) {
	base, _ := trainedArtifact(t)
	ck := instantiate(t, base, base.Cfg)
	workertest.Run(t, workertest.Provider[*cluster.NodeLease]{
		Open: func(t *testing.T, cfg workqueue.Config) (*workqueue.Queue, func(context.Context) (*cluster.NodeLease, error)) {
			svc, err := vetsvc.Open(ck, vetsvc.Config{
				QueueSize:         cfg.Capacity,
				LeaseTTL:          cfg.LeaseTTL,
				MaxAttempts:       cfg.MaxAttempts,
				DisableLocalLanes: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			st := startStack(t, svc, cluster.CoordinatorConfig{}, 0, cluster.WorkerConfig{})
			return svc.Queue(), cluster.NodeClaim(cluster.WorkerConfig{Coordinator: st.ts.URL, Node: "node-0", PollWait: 250 * time.Millisecond})
		},
		Seq: func(l *cluster.NodeLease) int64 { return l.Seq },
	})
}
