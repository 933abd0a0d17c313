package worker_test

import (
	"context"
	"testing"

	"apichecker/internal/worker/workertest"
	"apichecker/internal/workqueue"
)

// TestLeaseContract runs the conformance suite over the in-process lease:
// the pool claims straight from a workqueue.Queue, no adapter between.
func TestLeaseContract(t *testing.T) {
	workertest.Run(t, workertest.Provider[*workqueue.Lease]{
		Open: func(t *testing.T, cfg workqueue.Config) (*workqueue.Queue, func(context.Context) (*workqueue.Lease, error)) {
			q, _, err := workqueue.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { q.Close() })
			return q, q.Claim
		},
		Seq: func(l *workqueue.Lease) int64 { return l.Item().Seq },
	})
}
