package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"apichecker"
)

// clients is the closed loop's width: one client per vCPU of the 2-vCPU
// reference host, each holding one upload until its verdict returns, like
// the market's review workers. A closed loop never outruns the service,
// so the queue-full (429) path is out of scope.
const clients = 2

// waitParam is the ?wait= budget each upload asks the gateway to block
// for its verdict.
const waitParam = "60s"

// request is one upload's client-side record. Times are nanoseconds since
// the window's origin.
type request struct {
	Up         upload
	Send, Recv int64
	Seq        int64
	// Joined: the same bytes were sent before, so the gateway answers
	// from their record.
	Joined bool
	OK     bool
	Tier1  bool
	// CacheHit: the verdict came from the checker's verdict cache.
	CacheHit bool
}

// answer is the first successful response for one upload; every later
// response for the same bytes must agree with it.
type answer struct {
	body []byte
	st   apichecker.SubmissionStatus
}

// window is the outcome of one closed-loop measurement.
type window struct {
	reqs     []request
	answers  map[upload]*answer
	failed   int
	failures []string
	// start and stop bound the sending period, in ns since the origin;
	// wall runs from start until the last client stopped.
	start, stop int64
	wall        float64
}

func (w *window) fail(msg string) {
	w.failed++
	if len(w.failures) < 5 {
		w.failures = append(w.failures, msg)
	}
}

// drive runs the closed loop against the gateway at url for the given
// duration: each client takes the next upload of the schedule, POSTs it
// with ?wait=, and sends its next upload only once the verdict is back.
// sent holds the uploads the gateway already has records for, and gains
// the window's. It reports whether the schedule ran out first.
func drive(url string, p *pool, sched []upload, dur time.Duration, origin time.Time, sent map[upload]bool) (*window, bool) {
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 90 * time.Second}
	target := url + "/v1/submissions?wait=" + waitParam

	var (
		next      atomic.Int64
		exhausted atomic.Bool
		mu        sync.Mutex
		w         = &window{answers: make(map[upload]*answer)}
		perClient = make([][]request, clients)
		wg        sync.WaitGroup
	)
	start := time.Now()
	stop := start.Add(dur)
	w.start, w.stop = int64(start.Sub(origin)), int64(stop.Sub(origin))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf []byte
			for time.Now().Before(stop) {
				i := next.Add(1) - 1
				if i >= int64(len(sched)) {
					exhausted.Store(true)
					return
				}
				up := sched[i]
				buf = p.payload(buf[:0], up)
				mu.Lock()
				joined := sent[up]
				sent[up] = true
				mu.Unlock()

				r := request{Up: up, Joined: joined, Send: int64(time.Since(origin))}
				body, code, err := postRaw(hc, target, buf)
				r.Recv = int64(time.Since(origin))
				mu.Lock()
				prev := w.answers[up]
				mu.Unlock()
				a, failure := judge(up, body, code, err, prev)
				mu.Lock()
				if a != nil && prev == nil {
					if first := w.answers[up]; first == nil {
						w.answers[up] = a
					} else if a, failure = judge(up, body, code, nil, first); failure != "" {
						a = nil
					}
				}
				if failure != "" {
					w.fail(failure)
				}
				mu.Unlock()
				if a != nil {
					r.OK, r.Seq, r.Tier1, r.CacheHit = true, a.st.Seq, a.st.Verdict.Tier == 1, isHit(a.st.Outcome)
				}
				perClient[c] = append(perClient[c], r)
			}
		}(c)
	}
	wg.Wait()
	w.wall = time.Since(start).Seconds()
	for _, rs := range perClient {
		w.reqs = append(w.reqs, rs...)
	}
	return w, exhausted.Load()
}

// judge validates one response against the first answer for the same
// bytes (prev, nil if none yet). It returns the answer the response
// agrees with, or a failure. A response must be 200 with a verdict, and
// must agree with every other answer for the same bytes.
func judge(up upload, body []byte, code int, err error, prev *answer) (*answer, string) {
	if err != nil {
		return nil, err.Error()
	}
	if code != http.StatusOK {
		return nil, fmt.Sprintf("HTTP %d: %.200s", code, body)
	}
	if prev != nil {
		if !bytes.Equal(body, prev.body) && !sameVerdict(body, prev) {
			return nil, fmt.Sprintf("upload %v: answer disagrees with an earlier answer for the same bytes", up)
		}
		return prev, ""
	}
	var st apichecker.SubmissionStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Sprintf("decoding answer: %v", err)
	}
	if st.Status != "done" || st.Verdict == nil || st.ID == "" {
		return nil, fmt.Sprintf("upload %v: status %q without a verdict (%s)", up, st.Status, st.Error)
	}
	return &answer{body: append([]byte(nil), body...), st: st}, ""
}

// sameVerdict reports whether body carries the same submission and
// verdict as a, when the resource differs in other fields.
func sameVerdict(body []byte, a *answer) bool {
	var st apichecker.SubmissionStatus
	if json.Unmarshal(body, &st) != nil || st.Verdict == nil || st.ID != a.st.ID {
		return false
	}
	x, err1 := json.Marshal(st.Verdict)
	y, err2 := json.Marshal(a.st.Verdict)
	return err1 == nil && err2 == nil && bytes.Equal(x, y)
}

func isHit(outcome string) bool { return outcome == "hit" || outcome == "coalesced" }

// postRaw POSTs one archive and returns the response body and code.
func postRaw(hc *http.Client, target string, archive []byte) ([]byte, int, error) {
	resp, err := hc.Post(target, "application/vnd.android.package-archive", bytes.NewReader(archive))
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return body, resp.StatusCode, err
}

// newClient is an HTTP client for set-up and probe requests.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{DisableCompression: true}, Timeout: 90 * time.Second}
}

// post is postRaw with the submission resource decoded.
func post(hc *http.Client, url string, archive []byte) (apichecker.SubmissionStatus, int, error) {
	var st apichecker.SubmissionStatus
	body, code, err := postRaw(hc, url+"/v1/submissions?wait="+waitParam, archive)
	if err != nil {
		return st, code, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, code, fmt.Errorf("decoding answer (HTTP %d): %w", code, err)
	}
	return st, code, nil
}
