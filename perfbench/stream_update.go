package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
)

// warmSeed is the generator seed of a run's untimed warm-up graph: a
// same-size graph that is not the case graph.
func warmSeed(seed int64) int64 { return 1_000_003 + seed }

// pushesPerRead is how many deltas the writer pushes beside each reader
// solve: a solve takes about as long as two pushes.
const pushesPerRead = 2

// streamEngine returns the engine a stream session runs in. The store
// keeps few artifacts and clusters so the session's footprint stays flat
// over a run's pushes. Schwarz applies run sequentially: the reader's
// solve takes one core and the writer's rebuild the rest, instead of
// both fanning out over every core at once.
func streamEngine(workers int) *engine.Engine {
	return engine.New(engine.Options{Workers: workers, ApplyWorkers: -1, CacheSize: 2, ClusterCacheSize: 128})
}

// tileDeltas returns one reweight per side×side tile of the grid, in a
// fixed shuffled order. Each sets every edge inside its tile to the edge's
// base weight times a factor in [0.5, 2). Order and factors come from
// caseSeed, not the workload seed: the incremental path makes the final
// artifact depend on the order of the writes (its factor bytes ranged
// 9.9–14.0 MB over five orders of the same tiles), and pcg_iters and
// factor_mb must be exact across runs.
func tileDeltas(base *oracle, gridSide, side int) []graph.Delta {
	tiles := gridSide / side
	rng := rand.New(rand.NewSource(caseSeed))
	out := make([]graph.Delta, tiles*tiles)
	tileOf := func(v int32) int {
		x, y := int(v)%gridSide/side, int(v)/gridSide/side
		if x >= tiles || y >= tiles {
			return -1
		}
		return y*tiles + x
	}
	for k := range base.w {
		f := 0.5 + 1.5*rng.Float64()
		if t := tileOf(base.u[k]); t >= 0 && t == tileOf(base.v[k]) {
			out[t].Set = append(out[t].Set, graph.Edge{U: int(base.u[k]), V: int(base.v[k]), W: base.w[k] * f})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// apply sets the weights a reweight-only delta carries.
func (o *oracle) apply(d graph.Delta) error {
	for _, e := range d.Set {
		k, ok := o.edge(e.U, e.V)
		if !ok {
			return fmt.Errorf("delta adds edge (%d,%d)", e.U, e.V)
		}
		o.w[k] = e.W
	}
	return nil
}

// readerSolve is one solve the reader made, kept for checking.
type readerSolve struct {
	key   string
	b     int // index into the reader's right-hand sides
	x     []float64
	ok    bool
	shift []float64 // the diagonal shift of the artifact's pencil
}

// versionShifts returns the uniform shift of every graph version of the
// session: the base graph, then the base plus the first k deltas.
func versionShifts(g *graph.Graph, deltas []graph.Delta) ([]float64, error) {
	cur := newOracle(g)
	out := []float64{cur.shift()}
	for _, d := range deltas {
		if err := cur.apply(d); err != nil {
			return nil, err
		}
		out = append(out, cur.shift())
	}
	return out, nil
}

// checkShift verifies that an artifact's diagonal shift is uniform and
// equals the shift of one of the graph versions it may have been
// assembled for. A patched pencil keeps the shift of the version it was
// last assembled for (the base shift, unless a push rebuilt it cold), so
// the shift of a solve's own version need not be the one it used.
func checkShift(shift, versions []float64) error {
	if len(shift) == 0 {
		return fmt.Errorf("artifact has no shift")
	}
	for _, s := range shift {
		if s != shift[0] {
			return fmt.Errorf("shift is not uniform (%g and %g)", shift[0], s)
		}
	}
	for _, v := range versions {
		if math.Abs(shift[0]-v) <= 1e-9*v {
			return nil
		}
	}
	return fmt.Errorf("shift %g is not the shift of any graph version up to this one", shift[0])
}

// runStreamUpdate measures an engine stream session: a writer pushes tile
// reweights and waits for each to become visible while a reader solves
// against the current artifact.
func runStreamUpdate(b *bench) error {
	side := b.sz.streamSide
	g := circuit(side, caseSeed)
	bo := engine.BuildOpts{ShardThreshold: g.N / b.sz.streamParts}
	b.logf("stream-update: %d vertices, %d edges, shard threshold %d", g.N, g.M(), bo.ShardThreshold)

	base := newOracle(g)
	deltas := tileDeltas(base, side, b.sz.tile)
	deltas = deltas[:min(len(deltas), b.sz.pushes)]

	// A first build in a fresh process runs slower; pay it untimed.
	runtime.GC()
	if _, _, err := streamEngine(b.workers).SparsifyWith(b.ctx, circuit(side, warmSeed(b.cfg.seed)), bo); err != nil {
		return fmt.Errorf("warm-up build: %w", err)
	}

	// Set-up: build the base artifact in a fresh engine and open a
	// session on it, several times; the last session serves the loop.
	var eng *engine.Engine
	var baseArt *engine.Artifact
	var st *engine.Stream
	var setup samples
	for i := 0; i < b.sz.setups; i++ {
		if st != nil {
			st.Close()
		}
		eng, baseArt, st = nil, nil, nil
		runtime.GC()
		t0 := time.Now()
		eng = streamEngine(b.workers)
		var err error
		baseArt, _, err = eng.SparsifyWith(b.ctx, g, bo)
		if err == nil {
			st, err = eng.StreamOpen(baseArt.Key)
		}
		d := time.Since(t0)
		if err == nil {
			err = base.checkSparsifier(baseArt.SparsifierGraph())
		}
		if !b.rep.op("session set-up", err) {
			return fmt.Errorf("set-up failed: %w", err)
		}
		setup = append(setup, d.Seconds())
	}
	b.rep.e2eMetric("setup_s", "s", setup.median(), len(setup))

	// The loop, in steps: the reader solves once against the current
	// artifact while the writer pushes the next pushesPerRead deltas, each
	// waited until visible; a step ends when both are done. Reader solve
	// time grows and falls back over successive artifacts, so a free-running
	// reader's samples, and their median, would depend on where its solves
	// happened to land; in steps it reads the same versions in every run,
	// each beside the same pushes.
	bs := rhs(g.N, 4, b.cfg.seed+1)
	version := map[string]int{baseArt.Key: 0}
	var reads []readerSolve
	var readMS, pushMS, waitMS samples
	runtime.GC()
	phase := time.Now()
	for step := 0; step < len(deltas); step += pushesPerRead {
		art, _ := st.Current()
		k := step / pushesPerRead
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := b.tr.newReq()
			var sol *core.Solution
			var err error
			d := b.tr.do("reader.SolveTol", 0, req, func(int) { sol, err = art.Handle.SolveTol(b.ctx, bs[k%len(bs)], solveTol) })
			if !b.rep.op("reader solve", err) {
				return
			}
			readMS = append(readMS, d)
			reads = append(reads, readerSolve{key: art.Key, b: k % len(bs), x: sol.X, ok: sol.Converged, shift: art.Handle.Shift()})
		}()
		var err error
		for i := step; i < min(step+pushesPerRead, len(deltas)) && err == nil; i++ {
			req := b.tr.loopReq(i)
			id := b.tr.begin("push+visible", 0, req)
			t0 := time.Now()
			var art *engine.Artifact
			var gen int64
			gen, err = st.Push(deltas[i])
			if err == nil {
				b.tr.do("Stream.Wait", id, req, func(int) { art, err = st.Wait(b.ctx, gen) })
			}
			lat := ms(time.Since(t0))
			b.tr.end(id)
			if !b.rep.op("push", err) {
				err = fmt.Errorf("push %d failed, session is dead: %w", i, err)
				break
			}
			info := st.Stats().Last
			version[art.Key] = i + 1
			pushMS = append(pushMS, lat)
			b.tr.headline(req, lat)
			waitMS = append(waitMS, lat-info.TotalMS)
		}
		wg.Wait()
		if err != nil {
			return err
		}
	}
	wall := time.Since(phase)

	// Checks: the final artifact holds the base graph plus every delta,
	// its sparsifier is valid, and every reader solve answered the graph
	// of the artifact it read.
	final, _ := st.Current()
	cur := newOracle(g)
	for _, d := range deltas {
		if err := cur.apply(d); err != nil {
			return err
		}
	}
	b.rep.op("final graph", cur.checkEqual(final.Handle.BaseGraph()))
	b.rep.op("final sparsifier", cur.checkSparsifier(final.SparsifierGraph()))
	shifts, err := versionShifts(g, deltas)
	if err != nil {
		return err
	}
	checkReads(b, g, deltas, version, reads, bs, shifts)

	b.rep.e2eMetric("op_ms_p50", "ms", pushMS.median(), len(pushMS))
	b.rep.e2eMetric("solve_ms_p50", "ms", readMS.median(), len(readMS))
	b.rep.note("push_ms_p90", "ms", pushMS.quantile(0.9), len(pushMS))
	b.rep.note("solve_ms_p90", "ms", readMS.quantile(0.9), len(readMS))
	b.rep.e2eMetric("rhs_per_s", "1/s", float64(len(readMS))/wall.Seconds(), len(readMS))
	finalShift := final.Handle.Shift()
	err = checkShift(finalShift, shifts)
	var iters int
	if err == nil {
		iters, err = pcgIters(b, final.Handle, cur, finalShift)
	}
	if b.rep.op("pcg_iters solve", err) {
		b.rep.e2eMetric("pcg_iters", "count", float64(iters), 1)
	}
	b.rep.e2eMetric("factor_mb", "MB", float64(final.Handle.MemBytes())/mb, 1)

	if !b.cfg.trace || err != nil {
		st.Close()
		return nil
	}
	// The solve probe runs on the final artifact, the shard probe on the
	// session's base and its own pushes; the session is closed first.
	target := &solveTarget{h: final.Handle, orc: cur, shift: finalShift}
	st.Close()
	final, eng = nil, nil
	return traceLayers(b, g, base, target, &shardTarget{base: baseArt.Handle, deltas: deltas, waitMS: waitMS})
}

// checkReads verifies every reader solve against the graph version of
// the artifact it read, replaying the deltas in order, on the system with
// that artifact's shift; shifts[v] is version v's own shift.
func checkReads(b *bench, g *graph.Graph, deltas []graph.Delta, version map[string]int, reads []readerSolve, bs [][]float64, shifts []float64) {
	sort.SliceStable(reads, func(i, j int) bool { return version[reads[i].key] < version[reads[j].key] })
	cur := newOracle(g)
	at := 0
	for _, r := range reads {
		v, ok := version[r.key]
		if !ok {
			b.rep.fail("reader solve", fmt.Errorf("read artifact %s that no push produced", r.key))
			continue
		}
		for ; at < v; at++ {
			cur.apply(deltas[at])
		}
		b.corruptOnce(r.x)
		err := checkShift(r.shift, shifts[:v+1])
		if err == nil {
			err = cur.checkSolve(bs[r.b], r.x, r.ok, solveTol, r.shift)
		}
		if err != nil {
			b.rep.fail("reader solve", fmt.Errorf("version %d: %w", v, err))
		}
	}
}
