package trsparse

import (
	"context"

	"repro/internal/core"
)

// Sparsifier is a long-lived handle over one (graph, sparsifier) pair:
// the sparsifier subgraph plus the prepared pencil (shared regularization
// shift, both assembled Laplacians, and the sparsifier's Cholesky
// factorization), built once by New and reused across every subsequent
// measurement. Effective-resistance-style workloads issue many solves
// against one preconditioner; the handle makes that reuse explicit instead
// of silently rebuilding the factorization per call the way the deprecated
// free functions do.
//
// A Sparsifier is immutable after construction and safe for concurrent
// use. Every method takes a context.Context threaded down into the PCG
// iterations and Lanczos sweeps (polled every few iterations), so slow
// jobs are cancellable end to end; a canceled call returns an error
// matching ErrCanceled.
//
// Methods: Solve, SolveTol, SolveBatch, CondNumber, TraceProxy, Fiedler,
// Partition, plus ...With variants taking explicit steps/probes/seed and
// accessors (N, SparsifierGraph, Result, Pencil, Shift, Config, BuildTime,
// FactorNNZ, MemBytes, ShardStats, PrecondStats).
type Sparsifier = core.Sparsifier

// Solution is the outcome of one preconditioned Solve.
type Solution = core.Solution

// Structured sentinel errors returned by New and the Sparsifier methods.
// Match them with errors.Is; each returned error wraps one of these
// together with graph context (vertex/edge counts, expected dimensions).
var (
	// ErrDisconnected: the graph (or a prebuilt sparsifier) is not
	// connected.
	ErrDisconnected = core.ErrDisconnected
	// ErrNotSPD: the regularized sparsifier Laplacian failed Cholesky
	// factorization.
	ErrNotSPD = core.ErrNotSPD
	// ErrCanceled: the context was canceled or its deadline passed; the
	// underlying context error stays in the chain, so
	// errors.Is(err, context.Canceled) keeps working.
	ErrCanceled = core.ErrCanceled
	// ErrTooLarge: the graph exceeds the WithMaxVertices admission limit.
	ErrTooLarge = core.ErrTooLarge
	// ErrDimension: a right-hand side or prebuilt sparsifier has the wrong
	// size for the graph.
	ErrDimension = core.ErrDimension
	// ErrNonFinite: a solve's right-hand side, solution, or residual is
	// infinite or NaN (an rhs large enough to overflow PCG included).
	ErrNonFinite = core.ErrNonFinite
)

// New builds a Sparsifier handle for the connected graph g: it runs the
// configured sparsification algorithm (the paper's trace reduction by
// default), assembles the regularized Laplacian pencil with the same shift
// the construction used, and factorizes the sparsifier — once. Subsequent
// Solve/CondNumber/TraceProxy/Fiedler/Partition calls reuse the handle
// with no rebuilding.
//
// Construction honors ctx: cancellation mid-build abandons the remaining
// recovery rounds promptly and returns an error matching ErrCanceled.
func New(ctx context.Context, g *Graph, opts ...Option) (*Sparsifier, error) {
	return core.NewSparsifier(ctx, g, newConfig(opts))
}
