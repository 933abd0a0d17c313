package cluster

import (
	"context"
	"net/http"
)

// Hooks for the external test package.

// ClaimResponse names the decoded claim frame.
type ClaimResponse = claimResponse

// ReadClaim decodes a claim frame the way a worker node does.
var ReadClaim = readClaim

// MaxRequestBody is the coordinator's request-body bound.
const MaxRequestBody = maxRequestBody

// NodeLease names a worker node's HTTP lease.
type NodeLease = nodeLease

// NodeClaim returns the claim function of a node that runs no lanes of
// its own: the HTTP lease provider for the lease-contract suite. cfg must
// name the coordinator, the node and the poll budget.
func NodeClaim(cfg WorkerConfig) func(context.Context) (*NodeLease, error) {
	return (&Worker{cfg: cfg, client: &http.Client{}}).claim
}
