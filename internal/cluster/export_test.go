package cluster

// Hooks for the external test package.

// ClaimResponse names the decoded claim frame.
type ClaimResponse = claimResponse

// ReadClaim decodes a claim frame the way a worker node does.
var ReadClaim = readClaim

// MaxRequestBody is the coordinator's request-body bound.
const MaxRequestBody = maxRequestBody
