// Package worker is the one claim-lane executor of the vetting cluster: a
// pool of lanes that loop claim → execute → settle over any lease
// backend. The in-process service (vetsvc, over a workqueue.Queue) and
// every remote cluster node (package cluster, over the coordinator's
// HTTP claim protocol) run this code, not a copy of it.
//
// The pool owns the lease discipline — one heartbeat goroutine per claim
// keeping a long emulation's lease alive, per-claim panic isolation so
// one poisoned submission nacks its lease instead of killing the process,
// lease-loss propagation into the claim's context, and settling the lease
// from Do's result — while the Do callback owns what a claim *means*
// (vetsvc binds it to the staged vet pipeline, a cluster node to its
// local checker and the wire ack).
package worker

import (
	"context"
	"errors"
	"fmt"
	"time"

	"apichecker/internal/parallel"
	"apichecker/internal/workqueue"
)

// Lease is the claim contract every backend hands out; *workqueue.Lease
// satisfies it as is.
type Lease interface {
	// Heartbeat extends the lease mid-execution; any error means the
	// lease is gone (workqueue.ErrLeaseLost semantics).
	Heartbeat() error
	// Ack settles the claim as done.
	Ack() error
	// Nack returns the claim for another attempt (requeued) or, with its
	// attempts exhausted, dead-letters it.
	Nack(cause error) (requeued bool, err error)
	// TTL is the lease's expiry window (0: it never expires).
	TTL() time.Duration
}

// Config tunes one pool.
type Config[L Lease] struct {
	// Lanes is the claim-loop count; <= 0 selects 1.
	Lanes int

	// Do executes one claim, and its result settles the lease: nil acks;
	// an error wrapping workqueue.ErrLeaseLost settles nothing (the item
	// was reclaimed and another lane owns it); any other error nacks with
	// that cause; a panic nacks, then fires OnPanic. The context is the
	// pool's parent, cancelled with cause workqueue.ErrLeaseLost when a
	// heartbeat finds the lease lost; without heartbeats it is the parent
	// itself. Do may consult the lease but must not settle it.
	Do func(ctx context.Context, l L) error

	// HeartbeatEvery is the mid-execution heartbeat period: 0 selects the
	// lease's TTL/3 (heartbeats on whenever leases expire), a positive
	// value sets the period, and a negative value disables heartbeats (a
	// stalled lane's lease then expires, which is what reclaim drills
	// want).
	HeartbeatEvery time.Duration

	// OnPanic, when set, observes each recovered Do panic after its lease
	// has been nacked.
	OnPanic func(l L, v any)
}

// Pool is a running set of claim lanes. Construct with Start; each lane
// runs until claim fails (queue drained or closed, node stopped), then
// Done closes.
type Pool[L Lease] struct {
	ctx   context.Context
	claim func(context.Context) (L, error)
	cfg   Config[L]
	done  chan struct{}
}

// Start launches the lanes. Each claims with ctx, which is also the
// parent of every claim's execution context.
func Start[L Lease](ctx context.Context, claim func(context.Context) (L, error), cfg Config[L]) *Pool[L] {
	if cfg.Lanes <= 0 {
		cfg.Lanes = 1
	}
	p := &Pool[L]{ctx: ctx, claim: claim, cfg: cfg, done: make(chan struct{})}
	go func() {
		parallel.Run(cfg.Lanes, cfg.Lanes, func(int) { p.lane() })
		close(p.done)
	}()
	return p
}

// Done is closed once every lane has exited.
func (p *Pool[L]) Done() <-chan struct{} { return p.done }

// lane is one claim loop.
func (p *Pool[L]) lane() {
	for {
		l, err := p.claim(p.ctx)
		if err != nil {
			return
		}
		p.execute(l)
	}
}

// execute runs one claim under the lease discipline and settles the
// lease from the outcome.
func (p *Pool[L]) execute(l L) {
	ctx, stop := p.ctx, func() {}
	every := p.cfg.HeartbeatEvery
	if every == 0 {
		every = l.TTL() / 3
	}
	if every > 0 {
		hctx, cancel := context.WithCancelCause(p.ctx)
		ctx, stop = hctx, heartbeat(l, every, cancel)
	}
	panicked, err := runIsolated(ctx, l, p.cfg.Do)
	stop()
	// A failed settle needs nothing from the pool: a lost lease already
	// belongs to another claim, and an unsettled one lapses into the
	// lease TTL's reclaim.
	switch {
	case panicked != nil:
		if _, nerr := l.Nack(fmt.Errorf("worker: claim panicked: %v", panicked)); nerr == nil && p.cfg.OnPanic != nil {
			p.cfg.OnPanic(l, panicked)
		}
	case err == nil:
		l.Ack()
	case errors.Is(err, workqueue.ErrLeaseLost):
		// Reclaimed mid-run: the re-issued claim settles the item.
	default:
		l.Nack(err)
	}
}

// runIsolated invokes Do with per-claim panic isolation, returning the
// recovered panic value or Do's error.
func runIsolated[L Lease](ctx context.Context, l L, do func(context.Context, L) error) (panicked any, err error) {
	defer func() { panicked = recover() }()
	return nil, do(ctx, l)
}

// heartbeat extends l every period while the claim runs; if the lease is
// lost anyway (expired between beats, reclaimed, the queue closed), it
// cancels the claim context with cause workqueue.ErrLeaseLost so the vet
// aborts instead of burning a lane on a result nobody will accept. The
// returned stop joins the heartbeat goroutine and releases the context.
func heartbeat[L Lease](l L, every time.Duration, cancel context.CancelCauseFunc) (stop func()) {
	stopped := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stopped:
				return
			case <-t.C:
				if err := l.Heartbeat(); err != nil {
					cancel(workqueue.ErrLeaseLost)
					return
				}
			}
		}
	}()
	return func() {
		close(stopped)
		<-finished
		cancel(nil)
	}
}
