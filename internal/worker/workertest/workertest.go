// Package workertest is the lease-contract conformance suite for the
// claim-lane executor: one table of cases that every lease backend
// worker.Start can run over must pass. A backend's own test supplies a
// Provider and calls Run — the in-process workqueue lease from
// internal/worker, the cluster node's HTTP lease over a live coordinator
// from internal/cluster.
package workertest

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"apichecker/internal/worker"
	"apichecker/internal/workqueue"
)

// Provider is one lease backend under test.
type Provider[L worker.Lease] struct {
	// Open builds a fresh backend whose authoritative queue honours cfg's
	// Capacity, LeaseTTL and MaxAttempts, returning that queue (the case
	// enqueues into it, shuts it down and reads its Stats) and the claim
	// function a pool runs over. Open registers its own cleanup.
	Open func(t *testing.T, cfg workqueue.Config) (*workqueue.Queue, func(context.Context) (L, error))
	// Seq reports the queue sequence number a lease holds.
	Seq func(L) int64
}

// counts is what one case observes: queue settlements plus Do runs,
// recovered panics and non-nil Do results.
type counts struct {
	acked, nacked, reclaimed, dead uint64
	runs, panics, errs             int
}

// errBoom is the failure the error case returns.
var errBoom = errors.New("workertest: claim failed")

// cases is the contract. do runs one claim; first marks the lowest-seq
// item and run counts that seq's executions so far (1-based).
var cases = []struct {
	name      string
	queue     workqueue.Config
	items     int
	lanes     int
	heartbeat time.Duration
	do        func(ctx context.Context, first bool, run int) error
	want      counts
	wantErr   error // every non-nil Do result must wrap it
}{{
	name:  "ExecutesAndAcksEveryClaim",
	queue: workqueue.Config{Capacity: 8},
	items: 6, lanes: 3,
	do:   func(context.Context, bool, int) error { return nil },
	want: counts{acked: 6, runs: 6},
}, {
	// The poisoned first item panics on every attempt and dead-letters
	// at MaxAttempts; the single lane survives both panics to ack the
	// second item and drain.
	name:  "PanicNacksToDeadLetter",
	queue: workqueue.Config{Capacity: 8, MaxAttempts: 2},
	items: 2, lanes: 1,
	do: func(_ context.Context, first bool, _ int) error {
		if first {
			panic("poisoned archive")
		}
		return nil
	},
	want: counts{acked: 1, nacked: 2, dead: 1, runs: 3, panics: 2},
}, {
	// Several TTLs long; only heartbeats keep the lease.
	name:  "HeartbeatKeepsSlowClaimAlive",
	queue: workqueue.Config{Capacity: 4, LeaseTTL: 100 * time.Millisecond},
	items: 1, lanes: 2, heartbeat: 25 * time.Millisecond,
	do: func(ctx context.Context, _ bool, _ int) error {
		select {
		case <-time.After(400 * time.Millisecond):
			return nil
		case <-ctx.Done():
			return context.Cause(ctx)
		}
	},
	want: counts{acked: 1, runs: 1},
}, {
	// Heartbeats slower than the TTL: the first claim's lease expires
	// before its first beat, the second lane reclaims it, and the
	// stalled claim's context must cancel with ErrLeaseLost — which
	// settles nothing, so exactly one ack lands.
	name:  "LeaseLossCancelsClaimContext",
	queue: workqueue.Config{Capacity: 4, LeaseTTL: 50 * time.Millisecond, MaxAttempts: 5},
	items: 1, lanes: 2, heartbeat: 200 * time.Millisecond,
	do: func(ctx context.Context, _ bool, run int) error {
		if run > 1 {
			return nil // the re-issued claim finishes promptly
		}
		select {
		case <-ctx.Done():
			return context.Cause(ctx)
		case <-time.After(5 * time.Second):
			return errors.New("workertest: stalled claim was never canceled")
		}
	},
	want:    counts{acked: 1, reclaimed: 1, runs: 2, errs: 1},
	wantErr: workqueue.ErrLeaseLost,
}, {
	name:  "ErrorNacksAndRequeues",
	queue: workqueue.Config{Capacity: 4, MaxAttempts: 3},
	items: 1, lanes: 1,
	do: func(_ context.Context, _ bool, run int) error {
		if run == 1 {
			return errBoom
		}
		return nil
	},
	want:    counts{acked: 1, nacked: 1, runs: 2, errs: 1},
	wantErr: errBoom,
}}

// Run executes every contract case against p, each on a fresh backend.
func Run[L worker.Lease](t *testing.T, p Provider[L]) {
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q, claim := p.Open(t, c.queue)
			var first int64
			for i := 0; i < c.items; i++ {
				if !q.TryAcquire() {
					t.Fatal("queue full")
				}
				seq, err := q.Enqueue(workqueue.Item{Payload: []byte{byte(i)}})
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					first = seq
				}
			}

			var (
				mu   sync.Mutex
				got  counts
				runs = map[int64]int{}
			)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			pool := worker.Start(ctx, claim, worker.Config[L]{
				Lanes:          c.lanes,
				HeartbeatEvery: c.heartbeat,
				Do: func(ctx context.Context, l L) error {
					seq := p.Seq(l)
					mu.Lock()
					got.runs++
					runs[seq]++
					run := runs[seq]
					mu.Unlock()
					err := c.do(ctx, seq == first, run)
					if err != nil {
						mu.Lock()
						got.errs++
						mu.Unlock()
						if !errors.Is(err, c.wantErr) {
							t.Errorf("Do returned %v, want an error wrapping %v", err, c.wantErr)
						}
					}
					return err
				},
				OnPanic: func(L, any) {
					mu.Lock()
					got.panics++
					mu.Unlock()
				},
			})
			q.Shutdown()
			select {
			case <-pool.Done():
			case <-time.After(10 * time.Second):
				t.Fatal("pool did not drain")
			}

			st := q.Stats()
			mu.Lock()
			defer mu.Unlock()
			got.acked, got.nacked, got.reclaimed, got.dead = st.Acked, st.Nacked, st.Reclaimed, st.DeadLettered
			if got != c.want || st.Depth != 0 || st.Leased != 0 {
				t.Fatalf("observed %+v (queue %+v), want %+v", got, st, c.want)
			}
		})
	}
}
