package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
)

// coalesceFixture builds one artifact on an engine with the given
// coalescing window and returns both plus a set of random right-hand
// sides.
func coalesceFixture(t *testing.T, opts Options, nrhs int) (*Engine, *Artifact, [][]float64) {
	t.Helper()
	e := New(opts)
	g := gen.Grid2D(20, 20, 1)
	art, _, err := e.Sparsify(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	bs := make([][]float64, nrhs)
	for k := range bs {
		bs[k] = make([]float64, g.N)
		for i := range bs[k] {
			bs[k][i] = rng.NormFloat64()
		}
	}
	return e, art, bs
}

func TestCoalescedSolvesShareOneBatch(t *testing.T) {
	const reqs = 6
	e, art, bs := coalesceFixture(t, Options{Workers: 4, CoalesceWindow: 50 * time.Millisecond}, reqs)

	start := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]*SolveResult, reqs)
	errs := make([]error, reqs)
	for k := 0; k < reqs; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			<-start
			results[k], errs[k] = e.SolveArtifact(context.Background(), art, bs[k], 1e-6)
		}(k)
	}
	close(start)
	wg.Wait()

	for k := 0; k < reqs; k++ {
		if errs[k] != nil {
			t.Fatalf("request %d: %v", k, errs[k])
		}
		if !results[k].Converged || results[k].RelRes > 1e-6 {
			t.Fatalf("request %d did not converge to tol: %+v", k, results[k])
		}
	}
	st := e.Stats()
	if st.SolveBatches < 1 {
		t.Fatalf("no batch executed: %+v", st)
	}
	if st.SolvesCoalesced < 1 {
		t.Fatalf("no request joined a batch (window never caught two together): %+v", st)
	}
	if st.BatchP50 < 1 {
		t.Fatalf("batch_p50 = %g, want >= 1", st.BatchP50)
	}
}

func TestCoalescingDisabledByDefault(t *testing.T) {
	const reqs = 4
	e, art, bs := coalesceFixture(t, Options{Workers: 4}, reqs)
	var wg sync.WaitGroup
	for k := 0; k < reqs; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if _, err := e.SolveArtifact(context.Background(), art, bs[k], 0); err != nil {
				t.Error(err)
			}
		}(k)
	}
	wg.Wait()
	st := e.Stats()
	if st.SolvesCoalesced != 0 || st.SolveBatches != 0 {
		t.Fatalf("coalescing engaged without a window: %+v", st)
	}
}

// TestCoalesceSizeCapSealsEarly opens a window far longer than the test
// budget and relies on the size cap to seal the batch: two concurrent
// requests against a cap of 2 must execute immediately instead of
// waiting out the window.
func TestCoalesceSizeCapSealsEarly(t *testing.T) {
	e, art, bs := coalesceFixture(t, Options{
		Workers:          4,
		CoalesceWindow:   10 * time.Second,
		CoalesceMaxBatch: 2,
	}, 2)

	begin := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if _, err := e.SolveArtifact(context.Background(), art, bs[k], 0); err != nil {
				t.Error(err)
			}
		}(k)
	}
	wg.Wait()
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Fatalf("batch waited %v: the size cap did not seal it early", elapsed)
	}
	st := e.Stats()
	if st.SolveBatches != 1 || st.BatchP50 != 2 {
		t.Fatalf("expected one batch of width 2: %+v", st)
	}
}

// TestCoalescedOverflowFailsOnlyItsRequest: one request whose rhs
// overflows the shared block solve gets core.ErrNonFinite; the other
// request in the same batch still gets its solution.
func TestCoalescedOverflowFailsOnlyItsRequest(t *testing.T) {
	e, art, bs := coalesceFixture(t, Options{
		Workers:          4,
		CoalesceWindow:   10 * time.Second,
		CoalesceMaxBatch: 2,
	}, 2)
	for i := range bs[1] {
		bs[1][i] = math.MaxFloat64
		if i%2 == 1 {
			bs[1][i] = -math.MaxFloat64
		}
	}
	results := make([]*SolveResult, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			results[k], errs[k] = e.SolveArtifact(context.Background(), art, bs[k], 1e-6)
		}(k)
	}
	wg.Wait()
	if errs[0] != nil || !results[0].Converged {
		t.Fatalf("finite request failed alongside the overflowing one: %v", errs[0])
	}
	if !errors.Is(errs[1], core.ErrNonFinite) {
		t.Fatalf("overflowing request: err = %v, want ErrNonFinite", errs[1])
	}
	if st := e.Stats(); st.SolveBatches != 1 || st.BatchP50 != 2 {
		t.Fatalf("expected one batch of width 2: %+v", st)
	}
}

// TestCoalesceAbandonedBatchNeverRuns gives the lone request in a batch
// a deadline shorter than the window: it must return the context error,
// and the withdrawn batch must never execute.
func TestCoalesceAbandonedBatchNeverRuns(t *testing.T) {
	e, art, bs := coalesceFixture(t, Options{Workers: 4, CoalesceWindow: 200 * time.Millisecond}, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := e.SolveArtifact(ctx, art, bs[0], 0); err == nil {
		t.Fatal("expected a context error")
	}
	// Wait past the window: a buggy coalescer would fire the timer and run
	// the abandoned batch now.
	time.Sleep(300 * time.Millisecond)
	if st := e.Stats(); st.SolveBatches != 0 {
		t.Fatalf("abandoned batch executed anyway: %+v", st)
	}
}

func TestSolveBatchArtifactMatchesScalarSolves(t *testing.T) {
	const nrhs = 5
	e, art, bs := coalesceFixture(t, Options{Workers: 4}, nrhs)
	results, err := e.SolveBatchArtifact(context.Background(), art, bs, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != nrhs {
		t.Fatalf("got %d results for %d rhs", len(results), nrhs)
	}
	for k, r := range results {
		if !r.Converged || r.RelRes > 1e-8 {
			t.Fatalf("column %d: %+v", k, r)
		}
		single, err := e.SolveArtifact(context.Background(), art, bs[k], 1e-8)
		if err != nil {
			t.Fatal(err)
		}
		var num, den float64
		for i := range r.X {
			d := r.X[i] - single.X[i]
			num += d * d
			den += single.X[i] * single.X[i]
		}
		if num > 1e-12*den {
			t.Fatalf("column %d: block and scalar solutions diverge", k)
		}
	}
	st := e.Stats()
	if st.SolveBatches != 1 {
		t.Fatalf("explicit batch not counted: %+v", st)
	}
	if st.SolvesCoalesced != 0 {
		t.Fatalf("explicit batch must not count as coalesced: %+v", st)
	}
}

func TestSolveBatchArtifactRejectsMisSizedColumn(t *testing.T) {
	e, art, bs := coalesceFixture(t, Options{Workers: 2}, 2)
	bs[1] = bs[1][:len(bs[1])-1]
	if _, err := e.SolveBatchArtifact(context.Background(), art, bs, 0); err == nil {
		t.Fatal("expected a dimension error")
	}
}
