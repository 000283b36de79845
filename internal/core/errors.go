package core

import (
	"context"
	"errors"
	"fmt"
)

// Sentinel errors for the handle-based API. Callers match them with
// errors.Is; every returned error wraps one of these (or is a plain
// validation error) together with graph context (vertex/edge counts,
// expected vs actual dimensions).
var (
	// ErrDisconnected reports a graph (or prebuilt sparsifier) that is not
	// connected; spectral sparsification needs a spanning subgraph.
	ErrDisconnected = errors.New("graph is disconnected")
	// ErrNotSPD reports that the regularized sparsifier Laplacian was not
	// positive definite, so Cholesky factorization failed.
	ErrNotSPD = errors.New("matrix is not positive definite")
	// ErrCanceled reports that the operation stopped early because the
	// caller's context was canceled or its deadline passed. The underlying
	// context error stays in the chain, so errors.Is(err, context.Canceled)
	// and errors.Is(err, context.DeadlineExceeded) keep working too.
	ErrCanceled = errors.New("operation canceled")
	// ErrTooLarge reports a graph exceeding the configured MaxVertices
	// admission limit.
	ErrTooLarge = errors.New("graph exceeds configured size limit")
	// ErrDimension reports mismatched dimensions: a right-hand side of the
	// wrong length, or a prebuilt sparsifier over a different vertex set.
	ErrDimension = errors.New("dimension mismatch")
	// ErrNonFinite reports a solve whose right-hand side, solution, or
	// residual is not finite: an infinite or NaN rhs entry, or one so
	// large that PCG's dot products overflow.
	ErrNonFinite = errors.New("non-finite solve")
)

// wrapCanceled folds a context error into the ErrCanceled chain; non-context
// errors pass through unchanged.
func wrapCanceled(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return err
}
