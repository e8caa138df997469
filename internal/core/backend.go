package core

import (
	"context"

	"seedb/internal/engine"
)

// Backend is the seam between plan execution and the machinery that
// actually scans data. The optimizer lowers a Recommend call into
// engine queries; a Backend decides where those queries run — the
// in-process executor (the default), or a coordinator that scatters
// them over a fleet of workers (see internal/cluster). Every
// implementation must return results byte-identical to a single-node
// scan: the engine's exact partition-mergeable aggregation makes that
// achievable, and the golden shard and placement tests enforce it.
type Backend interface {
	// Run executes one aggregation query.
	Run(ctx context.Context, q *engine.Query) (*engine.Result, error)
	// RunSharedScan executes one scan feeding every grouping set.
	RunSharedScan(ctx context.Context, q *engine.Query, gsets []engine.GroupingSet) ([]*engine.Result, error)
	// Signature identifies the backend's execution layout (e.g.
	// "local", "sharded(remote,n=2)"). It is folded into exec-cache
	// keys: results are layout-invariant for in-process backends, but
	// a heterogeneous remote fleet could in principle run a different
	// build, so entries are never shared across layouts.
	Signature() string
}

// localBackend runs queries on the in-process executor; it is the
// default backend of every Engine.
type localBackend struct{ ex *engine.Executor }

func (b localBackend) Run(ctx context.Context, q *engine.Query) (*engine.Result, error) {
	return b.ex.Run(ctx, q)
}

func (b localBackend) RunSharedScan(ctx context.Context, q *engine.Query, gsets []engine.GroupingSet) ([]*engine.Result, error) {
	return b.ex.RunSharedScan(ctx, q, gsets)
}

func (b localBackend) Signature() string { return "local" }
