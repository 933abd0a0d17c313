package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"apichecker"
)

// setupTiming is one set-up's wall-clock breakdown, in seconds.
type setupTiming struct {
	Total      float64 // universe creation until every node holds the model
	Usage      float64 // TrainReport.UsageTime
	Fit        float64 // TrainReport.TrainTime
	ServeReady float64 // trained until the gateway listens
	NodesReady float64 // listening until /healthz answers and every node holds the model
}

// deployment is one production serving stack built through the public
// facade: a trained checker, the vetting service with its durable
// journal, and the HTTP gateway on loopback; for cluster workloads also
// the coordinator and two in-process worker nodes.
type deployment struct {
	ck    *apichecker.Checker
	svc   *apichecker.VetService
	gw    *apichecker.Gateway
	nodes []*apichecker.ClusterWorker
	url   string
	dir   string

	serveErr chan error
	timing   setupTiming
}

// clusterNodes is the worker-node count of cluster workloads.
const clusterNodes = 2

// deploymentSeed fixes the deployment under test — the framework
// universe and the training corpus — across runs, as a market's SDK level
// and ground truth are fixed while its uploads vary. --seed varies the
// uploads only.
const deploymentSeed = 1

// deploy builds one deployment and times its set-up. The tracer, when
// non-nil, is wired into the construction-time hooks only cluster nodes
// offer (OnVet and the node HTTP client); collector sinks attach later.
func deploy(w workload, trainN int, dir string, warm []upload, p *pool, tr *tracer) (*deployment, error) {
	t0 := time.Now()
	u, err := apichecker.PaperUniverse(deploymentSeed)
	if err != nil {
		return nil, err
	}
	corpus, err := apichecker.NewCorpus(u, trainN, deploymentSeed)
	if err != nil {
		return nil, err
	}
	cfg := apichecker.DefaultConfig()
	if w.triage {
		cfg.TriageLo, cfg.TriageHi = 0.05, 0.95
	}
	ck, rep, err := apichecker.Train(corpus, cfg)
	if err != nil {
		return nil, err
	}
	trained := time.Now()

	d := &deployment{ck: ck, dir: dir, serveErr: make(chan error, 1)}
	scfg := apichecker.DefaultServeConfig()
	scfg.QueueDir = filepath.Join(dir, "queue")
	scfg.Cluster = w.cluster
	svc, err := apichecker.OpenVetService(ck, scfg.ServiceConfig())
	if err != nil {
		return nil, err
	}
	d.svc = svc
	gcfg := scfg.GatewayConfig()
	if w.cluster {
		gcfg.Cluster = apichecker.NewClusterCoordinator(svc, apichecker.ClusterCoordinatorConfig{})
	}
	d.gw = apichecker.NewGateway(svc, gcfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.url = "http://" + l.Addr().String()
	go func() { d.serveErr <- d.gw.Serve(l) }()
	listening := time.Now()

	if w.cluster {
		for i := 0; i < clusterNodes; i++ {
			wcfg := apichecker.ClusterWorkerConfig{Coordinator: d.url, Node: fmt.Sprintf("node-%d", i)}
			if tr != nil {
				wcfg.OnVet = tr.onVet(wcfg.Node)
				wcfg.Client = &http.Client{Transport: tr.ackTransport(http.DefaultTransport)}
			}
			n, err := apichecker.StartClusterWorker(wcfg)
			if err != nil {
				d.close()
				return nil, err
			}
			d.nodes = append(d.nodes, n)
		}
	}
	if err := d.ready(warm, p); err != nil {
		d.close()
		return nil, err
	}
	done := time.Now()
	d.timing = setupTiming{
		Total:      done.Sub(t0).Seconds(),
		Usage:      rep.UsageTime.Seconds(),
		Fit:        rep.TrainTime.Seconds(),
		ServeReady: listening.Sub(trained).Seconds(),
		NodesReady: done.Sub(listening).Seconds(),
	}
	return d, nil
}

// ready blocks until /healthz answers ok with every node live and, for a
// cluster, every node has pulled the coordinator's model. Nodes pull the
// model on their first claim, so warm-up uploads (distinct from every
// measured upload) go through the front door until each node holds it.
func (d *deployment) ready(warm []upload, p *pool) error {
	client := newClient()
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var hz struct {
			Status string `json:"status"`
			Nodes  int    `json:"nodes"`
		}
		resp, err := client.Get(d.url + "/healthz")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&hz)
			resp.Body.Close()
		}
		if err == nil && hz.Status == "ok" && hz.Nodes >= len(d.nodes) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("deployment not healthy after 60s (last error: %v)", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	var body []byte
	for i := 0; !d.nodesHoldModel(); i++ {
		if i == len(warm) {
			return fmt.Errorf("cluster nodes still without the model after %d warm-up uploads", len(warm))
		}
		body = p.payload(body[:0], warm[i])
		st, code, err := post(client, d.url, body)
		if err != nil {
			return fmt.Errorf("warm-up upload: %w", err)
		}
		if code != http.StatusOK || st.Status != "done" {
			return fmt.Errorf("warm-up upload answered %d %s: %s", code, st.Status, st.Error)
		}
	}
	return nil
}

// nodesHoldModel reports whether every node has pulled the model the
// coordinator advertises (the same, non-empty artifact digest on all).
func (d *deployment) nodesHoldModel() bool {
	for _, n := range d.nodes {
		if dig := n.ModelDigest(); dig == "" || dig != d.nodes[0].ModelDigest() {
			return false
		}
	}
	return true
}

// close drains the gateway and service, stops the nodes, and removes the
// journal directory. Safe on a partly built deployment.
func (d *deployment) close() error {
	var errs []error
	if d.gw != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		if err := d.gw.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("gateway shutdown: %w", err))
		}
		cancel()
		if err := <-d.serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("gateway serve: %w", err))
		}
	} else if d.svc != nil {
		d.svc.Close()
	}
	d.gw, d.svc = nil, nil
	for _, n := range d.nodes {
		n.Stop()
	}
	d.nodes = nil
	if err := os.RemoveAll(d.dir); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// checkers returns every checker that vets for this deployment: the
// nodes' in cluster mode, the service's own otherwise.
func (d *deployment) checkers() []*apichecker.Checker {
	if len(d.nodes) == 0 {
		return []*apichecker.Checker{d.ck}
	}
	out := make([]*apichecker.Checker, len(d.nodes))
	for i, n := range d.nodes {
		out[i] = n.Checker()
	}
	return out
}
