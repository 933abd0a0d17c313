package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"apichecker"
)

// evKind classifies the raw events the traced run collects.
type evKind uint8

const (
	evAccepted evKind = iota // service admitted the submission
	evStarted                // a lane or node claimed it
	evDone                   // its verdict record settled
	evStage                  // a pipeline stage ended (Name = stage)
	evVetEnd                 // a cluster node finished vetting it (Name = node)
	evVetWall                // a cluster node's ack reported its vet wall time (Val, ns)
)

// event is one raw trace record, stamped with wall-clock time when a
// program hook delivers it.
type event struct {
	At   int64 // ns since the tracer's origin
	Seq  int64
	Kind evKind
	Name string
	Val  int64
}

// tracer collects events from the program's public hooks: collector
// sinks on the service and checkers, the cluster nodes' OnVet callback,
// and the nodes' HTTP client. Every hook keys its event by the vet
// sequence number, which is also the seq of each SubmissionStatus.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	events []event
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) record(seq int64, kind evKind, name string, val int64) {
	at := int64(time.Since(t.origin))
	t.mu.Lock()
	t.events = append(t.events, event{At: at, Seq: seq, Kind: kind, Name: name, Val: val})
	t.mu.Unlock()
}

// attach registers the tracer's sinks on a running deployment.
func (t *tracer) attach(d *deployment) {
	d.svc.Obs().AddSink(apichecker.ObsSinkFunc(func(ev apichecker.ObsEvent) {
		if ev.Kind != apichecker.ObsService {
			return
		}
		switch ev.Name {
		case "accepted":
			t.record(ev.Trace, evAccepted, "", 0)
		case "started":
			t.record(ev.Trace, evStarted, "", 0)
		case "done":
			t.record(ev.Trace, evDone, "", 0)
		}
	}))
	for _, ck := range d.checkers() {
		ck.Obs().AddSink(apichecker.ObsSinkFunc(func(ev apichecker.ObsEvent) {
			if ev.Kind == apichecker.ObsSpan {
				t.record(ev.Trace, evStage, ev.Name, 0)
			}
		}))
	}
}

// onVet is a cluster node's OnVet hook.
func (t *tracer) onVet(node string) func(int64, *apichecker.Verdict, error) {
	return func(seq int64, _ *apichecker.Verdict, _ error) { t.record(seq, evVetEnd, node, 0) }
}

// ackTransport wraps a node's HTTP transport to read the vet wall time
// each ack reports (the node measures it around its own Vet call), so a
// node's vet span can start where its Vet call did.
func (t *tracer) ackTransport(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		// The cluster wire's ack route; its JSON body carries seq and wall_ns.
		if strings.HasSuffix(req.URL.Path, "/v1/cluster/ack") && req.GetBody != nil {
			if body, err := req.GetBody(); err == nil {
				var ack struct {
					Seq    int64 `json:"seq"`
					WallNS int64 `json:"wall_ns"`
				}
				if json.NewDecoder(body).Decode(&ack) == nil {
					t.record(ack.Seq, evVetWall, "", ack.WallNS)
				}
				body.Close()
			}
		}
		return next.RoundTrip(req)
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// snapshot returns the events recorded so far, in time order.
func (t *tracer) snapshot() []event {
	t.mu.Lock()
	evs := append([]event(nil), t.events...)
	t.mu.Unlock()
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// span is one traced interval of one submission. Sub is the submission's
// vet sequence number, shared by every span of that submission; Parent
// names the enclosing span of the same submission. Names are
// "<layer>.<what>".
type span struct {
	Sub    int64  `json:"sub"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// subEvents gathers one submission's service and vet events.
type subEvents struct {
	accepted, started, done, vetEnd, vetWall int64
	has                                      [evVetWall + 1]bool
	stages                                   []event
}

// buildSpans assembles the spans of the window's requests from the
// client records and the hook events:
//
//	client.request  send → response     (the upload that created the record)
//	client.join     send → response     (an upload that joined an existing record)
//	gateway.admit   send → accepted
//	workqueue.wait  accepted → started  (journal append and claim hand-off)
//	vetsvc.service  started → done
//	gateway.respond done → response
//	worker.vet      the Vet call on a lane or node
//	pipeline.<stage>
//
// Stage events mark where a stage ended; a plain stage starts where the
// previous event of its submission ended, and the two wrapper stages
// (cache_lookup, triage) open where admit ended. Work a wrapper does
// before its first inner stage is thus booked to that inner stage; only
// spans inside the program could separate it.
func buildSpans(reqs []request, evs []event) []span {
	subs := make(map[int64]*subEvents)
	for _, r := range reqs {
		if r.OK && !r.Joined {
			subs[r.Seq] = &subEvents{}
		}
	}
	for _, e := range evs {
		se := subs[e.Seq]
		if se == nil {
			continue
		}
		switch e.Kind {
		case evAccepted:
			se.accepted = e.At
		case evStarted:
			// A reclaimed submission starts again; its last start counts.
			se.started = e.At
			se.stages = se.stages[:0]
		case evDone:
			se.done = e.At
		case evStage:
			se.stages = append(se.stages, e)
		case evVetEnd:
			se.vetEnd = e.At
		case evVetWall:
			se.vetWall = e.Val
		}
		se.has[e.Kind] = true
	}

	var out []span
	for _, r := range reqs {
		if !r.OK {
			continue
		}
		if r.Joined {
			out = append(out, span{Sub: r.Seq, Name: "client.join", Start: r.Send, End: r.Recv})
			continue
		}
		se := subs[r.Seq]
		out = append(out, span{Sub: r.Seq, Name: "client.request", Start: r.Send, End: r.Recv})
		if !se.has[evAccepted] || !se.has[evStarted] || !se.has[evDone] || len(se.stages) == 0 {
			continue
		}
		out = append(out,
			span{Sub: r.Seq, Name: "gateway.admit", Parent: "client.request", Start: r.Send, End: se.accepted},
			span{Sub: r.Seq, Name: "workqueue.wait", Parent: "client.request", Start: se.accepted, End: se.started},
			span{Sub: r.Seq, Name: "vetsvc.service", Parent: "client.request", Start: se.started, End: se.done},
			span{Sub: r.Seq, Name: "gateway.respond", Parent: "client.request", Start: se.done, End: r.Recv},
		)
		// A local lane emits started right before its Vet call and stages
		// as the call runs; a node's Vet call ends at OnVet and lasted the
		// wall time its ack reports.
		vetStart, vetEnd := se.started, se.stages[len(se.stages)-1].At
		if se.has[evVetEnd] {
			vetEnd = se.vetEnd
			vetStart = se.stages[0].At
			if se.has[evVetWall] && vetEnd-se.vetWall < vetStart {
				vetStart = max(vetEnd-se.vetWall, se.started)
			}
		}
		out = append(out, span{Sub: r.Seq, Name: "worker.vet", Parent: "vetsvc.service", Start: vetStart, End: vetEnd})
		out = append(out, stageSpans(r.Seq, vetStart, se.stages)...)
	}
	return out
}

// stageSpans rebuilds one vet's pipeline stage spans from its stage-end
// events, in emission order.
func stageSpans(sub, vetStart int64, ends []event) []span {
	prev, admitEnd := vetStart, vetStart
	var out []span
	inner := "worker.vet" // parent of the runner stages after admit
	for _, e := range ends {
		s := span{Sub: sub, Name: stageSpan(e.Name), Start: prev, End: e.At}
		switch e.Name {
		case apichecker.StageAdmit:
			admitEnd = e.At
			s.Parent = "worker.vet"
		case apichecker.StageCacheLookup:
			s.Start, s.Parent = admitEnd, "worker.vet"
			if inner == "worker.vet" {
				inner = s.Name
			}
		case apichecker.StageTriage:
			s.Start, s.Parent = admitEnd, stageSpan(apichecker.StageCacheLookup)
			inner = s.Name
		}
		out = append(out, s)
		prev = e.At
	}
	for i := range out {
		if out[i].Parent == "" {
			out[i].Parent = inner
		}
	}
	return out
}

// stageSpan names a pipeline stage's span: "pipeline." and the stage
// name with dots turned into underscores ("cache.lookup" becomes
// "pipeline.cache_lookup").
func stageSpan(stage string) string {
	return "pipeline." + strings.ReplaceAll(stage, ".", "_")
}

// selfTimes returns each span's duration minus its direct children's.
func selfTimes(spans []span) []int64 {
	type key struct {
		sub  int64
		name string
	}
	child := make(map[key]int64)
	for _, s := range spans {
		if s.Parent != "" {
			child[key{s.Sub, s.Parent}] += s.dur()
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - child[key{s.Sub, s.Name}]
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
