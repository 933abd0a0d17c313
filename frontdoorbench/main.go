// Command frontdoorbench is the repository's serving benchmark. It stands
// up the production deployment through the public facade — Train,
// OpenVetService with the durable journal, NewGateway on loopback, and for
// the cluster workload a coordinator with two in-process worker nodes —
// drives seeded APK uploads through the HTTP front door from a closed loop
// of clients, checks every answer, and prints its metrics:
//
//	frontdoorbench --workload fresh --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// measures an untraced and a traced window on twin deployments and
// reports the per-layer metrics derived from the traced window's spans,
// which it also writes to the work directory. The last line of standard
// output is one JSON object; the command exits non-zero when any answer
// fails its check. BENCHMARK.json at the repository root lists the
// workloads and metrics; perLayerDefs says which end-to-end metric each
// per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"apichecker"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string
	// trainApps sizes the training corpus; tests shrink it.
	trainApps int
}

func main() {
	o := options{trainApps: trainApps}
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: fresh, resubmit or cluster-tiered")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the uploads: their order, popularity and bytes")
	flag.IntVar(&o.seconds, "seconds", 10, "length of each measured window, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "frontdoor"), "directory for the payload cache, journals and trace output")
	flag.Parse()
	if _, err := findWorkload(o.workload); err != nil || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: frontdoorbench --workload fresh|resubmit|cluster-tiered --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1

	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "frontdoorbench:", err)
		os.Exit(1)
	}
	for _, line := range rep.lines {
		fmt.Println(line)
	}
	out, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "frontdoorbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.result.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type report struct {
	lines  []string
	result result
}

// measured is one window with the program-side counters around it.
type measured struct {
	win      *window
	counters map[string]float64 // deltas over the window
	// Process-wide deltas over the window: bytes and objects allocated,
	// and GC cycles.
	alloc, mallocs, gcs uint64
	heapLive            uint64  // heap in use after a GC when the window opened
	balance             float64 // min over max verdicts per vetting node
}

func run(o options) (*report, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	p, err := loadPool(o.work)
	if err != nil {
		return nil, fmt.Errorf("payload pool: %w", err)
	}
	sched, catalogue := w.schedule(o.seed, o.seconds), w.catalogue(o.seed)
	warm := warmUploads(o.seed)
	runDir := filepath.Join(o.work, "run-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(runDir)

	// Set up three deployments; setup_s is the median. The first one's
	// checker stays as the verdict reference, the second serves the
	// untraced window of a traced run, and the third is measured.
	var deps [3]*deployment
	defer func() {
		for _, d := range deps {
			if d != nil {
				d.close()
			}
		}
	}()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var setups []setupTiming
	var ref *apichecker.Checker
	for i := range deps {
		var hooks *tracer
		if i == 2 {
			hooks = tr
		}
		runtime.GC()
		d, err := deploy(w, o.trainApps, filepath.Join(runDir, strconv.Itoa(i)), warm, p, hooks)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		deps[i] = d
		setups = append(setups, d.timing)
		if i == 0 {
			ref = d.ck
		}
		if i == 0 || (i == 1 && !o.trace) {
			deps[i] = nil
			if err := d.close(); err != nil {
				return nil, fmt.Errorf("set-up %d teardown: %w", i+1, err)
			}
		}
	}
	dur := time.Duration(o.seconds) * time.Second

	var plain, traced *measured
	var spans, windowSpans []span
	if o.trace {
		if plain, err = measure(deps[1], p, catalogue, sched, dur, time.Now()); err != nil {
			return nil, err
		}
		d := deps[1]
		deps[1] = nil
		if err := d.close(); err != nil {
			return nil, err
		}
		tr.attach(deps[2])
		if traced, err = measure(deps[2], p, catalogue, sched, dur, tr.origin); err != nil {
			return nil, err
		}
		probe, err := joinProbe(deps[2], p, traced.win, tr.origin)
		if err != nil {
			return nil, err
		}
		windowSpans = buildSpans(traced.win.reqs, tr.snapshot())
		spans = append(windowSpans, probe...)
	} else if plain, err = measure(deps[2], p, catalogue, sched, dur, time.Now()); err != nil {
		return nil, err
	}
	d := deps[2]
	deps[2] = nil
	if err := d.close(); err != nil {
		return nil, err
	}

	// Check the answers of every window against the reference.
	answers := make(map[upload]*answer)
	wins := []*measured{plain}
	if traced != nil {
		wins = append(wins, traced)
	}
	attempted, failed := 0, 0
	var failures []string
	for _, m := range wins {
		for up, a := range m.win.answers {
			if prev, ok := answers[up]; ok && !sameVerdict(a.body, prev) {
				failed++
				failures = append(failures, fmt.Sprintf("upload %v: windows disagree", up))
			}
			answers[up] = a
		}
		attempted += len(m.win.reqs)
		failed += m.win.failed
		failures = append(failures, m.win.failures...)
	}
	checked, bad, err := verify(ref, p, answers)
	if err != nil {
		return nil, err
	}
	failed += len(bad)
	failures = append(failures, bad...)

	rep := &report{result: result{Correct: failed == 0, Attempted: attempted, Failed: failed}}
	rep.printf("frontdoorbench: workload %s, seed %d, %d clients, %ds windows", w.name, o.seed, clients, o.seconds)
	rep.printf("set-up (s): %s", fmtSetups(setups))
	for _, m := range wins {
		rep.printf("window: %s; %d MiB live heap at start, %d GC cycles", describe(m.win), m.heapLive>>20, m.gcs)
	}
	rep.printf("check: %d distinct answers, %d re-vetted on the reference checker, %d failures of %d requests",
		len(answers), checked, failed, attempted)
	for i, f := range failures {
		if i == 5 {
			break
		}
		rep.printf("  failure: %s", f)
	}

	// Every run prints the end-to-end metrics of its untraced window; a
	// traced run also prints the per-layer ones, and reports those.
	e2e := endToEnd(plain, setups, failed, attempted, score(p, plain.win.answers))
	rep.result.Metrics = e2e
	rep.printMetrics("end to end (untraced window)", endToEndDefs, e2e)
	if o.trace {
		path := filepath.Join(o.work, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, o.seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		rep.printf("trace: %d spans written to %s", len(spans), path)
		rep.printf("trace: %s", timeShares(windowSpans))
		rep.result.Metrics = layerMetrics(spans, traced, plain, setups)
		rep.printMetrics("per layer (traced window)", perLayerDefs, rep.result.Metrics)
	}
	return rep, nil
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// printMetrics prints metrics by name with their units, and for a
// per-layer metric the end-to-end metric it should move.
func (r *report) printMetrics(title string, defs []def, ms map[string]metric) {
	r.printf("%s:", title)
	for _, d := range defs {
		m := ms[d.name]
		line := fmt.Sprintf("  %-30s %14.6g %-5s", d.name, m.Value, m.Unit)
		if d.moves != "" {
			line += "  moves " + d.moves
		}
		r.lines = append(r.lines, line)
	}
}

// measure runs one closed-loop window on a deployment and takes the
// program's counters and the runtime's allocation counts around it. The
// workload's catalogue is uploaded first, outside the window.
func measure(d *deployment, p *pool, catalogue, sched []upload, dur time.Duration, origin time.Time) (*measured, error) {
	sent := make(map[upload]bool)
	if len(catalogue) > 0 {
		if pre, _ := drive(d.url, p, catalogue, time.Hour, origin, sent); pre.failed > 0 {
			return nil, fmt.Errorf("catalogue upload: %s", pre.failures[0])
		}
	}
	runtime.GC()
	before := d.counters()
	nodesBefore := d.nodeVerdicts()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	win, exhausted := drive(d.url, p, sched, dur, origin, sent)
	if exhausted {
		return nil, fmt.Errorf("the schedule's %d uploads ran out within %s; raise its supply", len(sched), dur)
	}
	runtime.ReadMemStats(&m1)
	after := d.counters()
	m := &measured{win: win, counters: make(map[string]float64), balance: 1}
	for k, v := range after {
		m.counters[k] = float64(v - before[k])
	}
	m.alloc, m.mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	m.gcs, m.heapLive = uint64(m1.NumGC-m0.NumGC), m0.HeapAlloc
	if nodesAfter := d.nodeVerdicts(); len(nodesAfter) > 0 {
		lo, hi := -1.0, 0.0
		for i := range nodesAfter {
			n := float64(nodesAfter[i] - nodesBefore[i])
			if lo < 0 || n < lo {
				lo = n
			}
			hi = max(hi, n)
		}
		if hi > 0 {
			m.balance = lo / hi
		}
	}
	return m, nil
}

// counters snapshots the gateway's, the service's and the vetting
// checkers' counters into one map; checker counters are summed over
// nodes.
func (d *deployment) counters() map[string]uint64 {
	out := make(map[string]uint64)
	for k, v := range d.gw.Obs().Counters() {
		out[k] += v
	}
	for k, v := range d.svc.Obs().Counters() {
		out[k] += v
	}
	for _, ck := range d.checkers() {
		for k, v := range ck.Obs().Counters() {
			out[k] += v
		}
	}
	return out
}

func (d *deployment) nodeVerdicts() []uint64 {
	out := make([]uint64, len(d.nodes))
	for i, n := range d.nodes {
		out[i] = n.Stats().Verdicts
	}
	return out
}

// probeJoins is the join probe's size; see joinProbe.
const probeJoins = 512

// joinProbe prices the join path on workloads whose windows have no
// repeats: after the traced window it re-posts, one at a time, the last
// answered uploads (still in the gateway's registry), each of which
// joins its record. Windows with at least probeJoins joins of their own
// need no probe.
func joinProbe(d *deployment, p *pool, win *window, origin time.Time) ([]span, error) {
	var last []request
	joins := 0
	for _, r := range win.reqs {
		if r.Joined {
			joins++
		} else if r.OK {
			last = append(last, r)
		}
	}
	if joins >= probeJoins {
		return nil, nil
	}
	sort.Slice(last, func(i, j int) bool { return last[i].Recv < last[j].Recv })
	if len(last) > probeJoins {
		last = last[len(last)-probeJoins:]
	}
	hc := newClient()
	defer hc.CloseIdleConnections()
	before := d.gw.Obs().Counters()["gw.submissions.joined"]
	var out []span
	var body []byte
	for _, r := range last {
		body = p.payload(body[:0], r.Up)
		send := int64(time.Since(origin))
		st, code, err := post(hc, d.url, body)
		if err != nil {
			return nil, fmt.Errorf("join probe: %w", err)
		}
		if code != 200 || st.Seq != r.Seq {
			return nil, fmt.Errorf("join probe: upload %v answered %d with seq %d, want its record %d", r.Up, code, st.Seq, r.Seq)
		}
		out = append(out, span{Sub: st.Seq, Name: "client.join", Start: send, End: int64(time.Since(origin))})
	}
	if got := d.gw.Obs().Counters()["gw.submissions.joined"] - before; got != uint64(len(last)) {
		return nil, fmt.Errorf("join probe: %d of %d re-posts joined", got, len(last))
	}
	return out, nil
}
