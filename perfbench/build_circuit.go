package main

import (
	"runtime"
	"time"

	trsparse "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

const (
	// solveTol is the PCG tolerance of every solve the benchmark makes.
	solveTol = 1e-3
	// caseSeed generates each workload's case graph: the graph is a fixed
	// input, like the paper's test matrices; the workload seed varies
	// everything that is sent to it.
	caseSeed = 1
	// itersSeed generates the fixed right-hand side pcg_iters is counted
	// on, so the count is exact across runs and seeds.
	itersSeed = 7
	// spaiDelta is the paper's SPAI drop tolerance (sparsify's default δ).
	spaiDelta = 0.1
	mb        = 1e6
)

// circuit returns the CircuitGrid case (G3_circuit at scale 4 for side
// 302) under the given generator seed.
func circuit(side int, seed int64) *graph.Graph { return gen.CircuitGrid(side, side, 0.08, seed) }

// solvesPerBuild is how many right-hand sides are solved on each fresh
// handle. The first one completes the time to solution; the others, after
// a collection of the build's garbage, are the solve-latency samples.
const solvesPerBuild = 6

// runBuildCircuit measures cold construction: trsparse.New with the
// paper's defaults, then a few solves on the fresh handle, repeated.
func runBuildCircuit(b *bench) error {
	opts := []trsparse.Option{trsparse.WithWorkers(b.workers)}
	side := b.sz.circuitSide

	var g *graph.Graph
	var setup samples
	for i := 0; i < b.sz.genSetups; i++ {
		g = nil
		runtime.GC()
		t0 := time.Now()
		g = circuit(side, caseSeed)
		setup = append(setup, time.Since(t0).Seconds())
	}
	orc := newOracle(g)
	b.logf("build-circuit: %d vertices, %d edges", g.N, g.M())
	bs := rhs(g.N, solvesPerBuild, b.cfg.seed)

	var ttsMS, solveMS samples
	var last *trsparse.Sparsifier
	phase := time.Now()
	for i := 0; i < b.sz.minBuilds || time.Since(phase) < b.window(); i++ {
		last = nil
		runtime.GC()
		req := b.tr.loopReq(i)
		root := b.tr.begin("build+solves", 0, req)
		t0 := time.Now()
		var h *trsparse.Sparsifier
		var err error
		b.tr.do("trsparse.New", root, req, func(int) { h, err = trsparse.New(b.ctx, g, opts...) })
		if err == nil {
			err = orc.checkSparsifier(h.SparsifierGraph())
		}
		if !b.rep.op("cold build", err) {
			b.tr.end(root)
			continue
		}
		for k, rhs := range bs {
			if k == 1 {
				runtime.GC()
			}
			var sol *trsparse.Solution
			d := b.tr.do("loop.SolveTol", root, req, func(int) { sol, err = h.SolveTol(b.ctx, rhs, solveTol) })
			tts := ms(time.Since(t0))
			if err == nil {
				b.corruptOnce(sol.X)
				err = orc.checkSolve(rhs, sol.X, sol.Converged, solveTol, nil)
			}
			switch {
			case !b.rep.op("solve", err):
			case k == 0:
				ttsMS = append(ttsMS, tts)
				b.tr.headline(req, tts)
			default:
				solveMS = append(solveMS, d)
			}
		}
		b.tr.end(root)
		last = h
	}
	wall := time.Since(phase)

	b.rep.e2eMetric("setup_s", "s", setup.median(), len(setup))
	b.rep.e2eMetric("op_ms_p50", "ms", ttsMS.median(), len(ttsMS))
	b.rep.e2eMetric("solve_ms_p50", "ms", solveMS.median(), len(solveMS))
	b.rep.e2eMetric("rhs_per_s", "1/s", float64(len(ttsMS)+len(solveMS))/wall.Seconds(), len(ttsMS)+len(solveMS))
	b.rep.note("solve_ms_p90", "ms", solveMS.quantile(0.9), len(solveMS))
	if last == nil {
		// The last build failed and is counted; the rest needs a handle.
		return nil
	}
	iters, err := pcgIters(b, last, orc, nil)
	if b.rep.op("pcg_iters solve", err) {
		b.rep.e2eMetric("pcg_iters", "count", float64(iters), 1)
	}
	b.rep.e2eMetric("factor_mb", "MB", float64(last.MemBytes())/mb, 1)
	last = nil

	if b.cfg.trace {
		return traceLayers(b, g, orc, nil, nil)
	}
	return nil
}

// pcgIters solves the fixed right-hand side on a handle and returns the
// iteration count, after checking the answer on the system with the given
// shift (nil: the oracle's own).
func pcgIters(b *bench, h *core.Sparsifier, orc *oracle, shift []float64) (int, error) {
	rhs := rhs(orc.n, 1, itersSeed)[0]
	sol, err := h.SolveTol(b.ctx, rhs, solveTol)
	if err != nil {
		return 0, err
	}
	b.corruptOnce(sol.X)
	return sol.Iterations, orc.checkSolve(rhs, sol.X, sol.Converged, solveTol, shift)
}

// retainedMB returns the live heap that release frees: the heap after
// full collections with the object held, minus the heap after release and
// more collections. Two collections empty sync.Pool caches, whose
// contents depend on timing.
func retainedMB(release func()) float64 {
	var held, freed runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&held)
	release()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&freed)
	return float64(int64(held.HeapAlloc)-int64(freed.HeapAlloc)) / mb
}
