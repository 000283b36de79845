package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// DefaultCoalesceMaxBatch caps how many solve requests one coalesced
// batch collects when Options.CoalesceMaxBatch is unset. 64 keeps the
// block solver's panel chunks full (core splits batches into panels of
// 16 columns) without letting one batch monopolize a worker slot for
// arbitrarily long.
const DefaultCoalesceMaxBatch = 64

// coalescer batches concurrent solve requests against the same artifact
// and tolerance into one block solve. The first request for an
// (artifact key, tolerance) pair opens a batch and arms a timer; requests
// arriving within the window join it; when the window closes (or the
// batch hits its size cap) the whole batch runs as a single
// SolveBatchTol call — one matrix sweep and one preconditioner apply per
// iteration for every collected right-hand side, instead of one per
// request.
type coalescer struct {
	eng *Engine
	win time.Duration
	max int

	mu      sync.Mutex
	pending map[coalesceKey]*solveBatch
}

// coalesceKey groups requests that can share a block solve: same
// artifact (by store key — the key pins graph and build configuration,
// so any artifact under it holds the same factorization) and same
// resolved tolerance (block PCG iterates every column to one tolerance;
// mixing would over- or under-solve someone's request).
type coalesceKey struct {
	key string
	tol float64
}

// solveBatch is one open (or running) coalesced batch. bs, joined,
// waiters, and sealed are guarded by the coalescer's mutex until the
// batch seals; after sealing only the run goroutine touches bs, and
// sols/err are published to waiters by the close of done.
type solveBatch struct {
	art    *Artifact
	bs     [][]float64
	timer  *time.Timer
	sealed bool

	// waiters counts requests still interested in the result; when every
	// waiter gives up (client disconnects, deadlines fire) abandoned is
	// closed and the batch's work is canceled — nobody would read it, and
	// unlike artifact builds a solve result is not cached for later.
	waiters   int
	abandoned chan struct{}

	done chan struct{}
	sols []*core.Solution
	err  error
	// errs, when non-nil, holds per-column errors: a batch that failed
	// with core.ErrNonFinite is re-solved column by column so only the
	// overflowing request sees the error.
	errs []error
}

func newCoalescer(e *Engine, win time.Duration, max int) *coalescer {
	if max <= 0 {
		max = DefaultCoalesceMaxBatch
	}
	return &coalescer{
		eng:     e,
		win:     win,
		max:     max,
		pending: make(map[coalesceKey]*solveBatch),
	}
}

// solve enqueues one right-hand side, waits for its batch to execute,
// and returns this request's column of the result. The caller has
// already validated the rhs dimension.
func (c *coalescer) solve(ctx context.Context, art *Artifact, b []float64, tol float64) (*SolveResult, error) {
	bk := coalesceKey{key: art.Key, tol: normTol(tol)}

	c.mu.Lock()
	sb, ok := c.pending[bk]
	var idx int
	if ok {
		idx = len(sb.bs)
		sb.bs = append(sb.bs, b)
		sb.waiters++
		c.eng.c.solvesCoalesced.Add(1)
		if len(sb.bs) >= c.max {
			// Size cap reached: seal now instead of waiting out the window —
			// the batch is as full as it is allowed to get.
			c.seal(bk, sb)
			go c.run(bk, sb)
		}
		c.mu.Unlock()
	} else {
		sb = &solveBatch{
			art:       art,
			bs:        [][]float64{b},
			waiters:   1,
			abandoned: make(chan struct{}),
			done:      make(chan struct{}),
		}
		c.pending[bk] = sb
		sb.timer = time.AfterFunc(c.win, func() {
			c.mu.Lock()
			sealed := sb.sealed
			if !sealed {
				c.seal(bk, sb)
			}
			c.mu.Unlock()
			if !sealed {
				c.run(bk, sb)
			}
		})
		c.mu.Unlock()
	}

	select {
	case <-sb.done:
		if sb.err != nil {
			return nil, sb.err
		}
		if sb.errs != nil && sb.errs[idx] != nil {
			return nil, sb.errs[idx]
		}
		sol := sb.sols[idx]
		return &SolveResult{
			X:          sol.X,
			Iterations: sol.Iterations,
			RelRes:     sol.RelRes,
			Converged:  sol.Converged,
			Artifact:   art,
		}, nil
	case <-ctx.Done():
		c.leave(bk, sb)
		c.eng.noteCtx(ctx)
		return nil, ctx.Err()
	}
}

// seal removes the batch from the pending map (new requests open a fresh
// one) and stops its window timer. Callers hold c.mu.
func (c *coalescer) seal(bk coalesceKey, sb *solveBatch) {
	sb.sealed = true
	delete(c.pending, bk)
	if sb.timer != nil {
		sb.timer.Stop()
	}
}

// leave records that one waiter gave up. When the last waiter leaves,
// the batch is abandoned: a not-yet-sealed batch is withdrawn so it
// never runs, a running one has its context canceled.
func (c *coalescer) leave(bk coalesceKey, sb *solveBatch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sb.waiters--
	if sb.waiters > 0 {
		return
	}
	if !sb.sealed {
		c.seal(bk, sb)
	}
	close(sb.abandoned)
}

// run executes one sealed batch on the engine's worker pool as a single
// block solve and publishes the per-column solutions to every waiter.
func (c *coalescer) run(bk coalesceKey, sb *solveBatch) {
	e := c.eng
	defer close(sb.done)

	ctx, cancel := e.jobCtx(context.Background())
	defer cancel()
	go func() {
		select {
		case <-sb.abandoned:
			cancel()
		case <-ctx.Done():
		}
	}()

	select {
	case e.sem <- struct{}{}:
	case <-sb.abandoned:
		sb.err = context.Canceled
		return
	}
	e.c.jobs.Add(1)
	e.c.inFlight.Add(1)
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			e.c.jobErrors.Add(1)
			sb.err = fmt.Errorf("engine: batch solve panicked: %v (%w)", p, ErrInternal)
		}
		e.c.latency.observe(time.Since(start))
		e.c.inFlight.Add(-1)
		<-e.sem
	}()

	e.c.solveBatches.Add(1)
	e.c.observeBatchSize(len(sb.bs))
	sols, err := sb.art.Handle.SolveBatchTol(ctx, sb.bs, bk.tol)
	if errors.Is(err, core.ErrNonFinite) && len(sb.bs) > 1 {
		// One request's rhs overflowed the block solve; re-solve each
		// column alone so the other requests in the batch still succeed.
		sols, sb.errs, err = make([]*core.Solution, len(sb.bs)), make([]error, len(sb.bs)), nil
		for i, b := range sb.bs {
			sols[i], sb.errs[i] = sb.art.Handle.SolveTol(ctx, b, bk.tol)
		}
	}
	if err != nil {
		e.c.jobErrors.Add(1)
	}
	sb.sols, sb.err = sols, err
}

// normTol canonicalizes the tolerance for batch grouping: every
// non-positive value selects the configured default downstream, so they
// all coalesce together.
func normTol(tol float64) float64 {
	if tol <= 0 {
		return 0
	}
	return tol
}
