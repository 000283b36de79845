package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"

	trsparse "repro"
	"repro/internal/chol"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/lap"
	"repro/internal/order"
	"repro/internal/precond"
	"repro/internal/solver"
	"repro/internal/spai"
	"repro/internal/sparse"
	"repro/internal/tree"
)

// Every workload's traced run reports the same per-layer metrics, each
// measured on that workload's own case graph by three probes:
//
//   - the build probe replays a cold monolithic build layer by layer;
//   - the solve probe times the solve path of the workload's handle;
//   - the shard probe times the sharded update path on tile reweights.
//
// A workload hands over what its loop already has (the handle it solved
// against, its sharded base and pushes); the probes make the rest.

// solveTarget is the handle the solve probe runs on, with the oracle and
// shift its answers are checked against.
type solveTarget struct {
	h     *core.Sparsifier
	orc   *oracle
	shift []float64 // nil: the oracle's own
}

// shardTarget is a sharded handle of the case graph, the reweights the
// shard probe applies to it, and the push waits of the workload's own
// stream session (nil: the probe opens a session and pushes).
type shardTarget struct {
	base   *core.Sparsifier
	deltas []graph.Delta
	waitMS samples
}

// traceLayers runs the three probes on g and reports every per-layer
// metric. Nil targets are made by the probes.
func traceLayers(b *bench, g *graph.Graph, orc *oracle, st *solveTarget, sh *shardTarget) error {
	h, f, err := buildLayers(b, g, orc)
	if err != nil || h == nil {
		return err
	}
	if st == nil {
		st = &solveTarget{h: h, orc: orc}
	}
	solveLayers(b, st, f)
	st = nil
	b.rep.layer("build.retained_mb", "MB", retainedMB(func() { h = nil }), 1)
	if sh == nil {
		if sh, err = shardProbe(b, g, orc); err != nil || sh == nil {
			return err
		}
	}
	return shardLayers(b, g, sh)
}

// cscAdj exposes a symmetric CSC matrix's off-diagonal pattern as an
// ordering adjacency.
type cscAdj struct{ a *sparse.CSC }

func (c cscAdj) Len() int { return c.a.Cols }
func (c cscAdj) Visit(u int, fn func(v int)) {
	for p := c.a.ColPtr[u]; p < c.a.ColPtr[u+1]; p++ {
		if v := c.a.RowIdx[p]; v != u {
			fn(v)
		}
	}
}

// buildLayers replays one cold build layer by layer, each public call in
// its own span. It returns the build's handle and the factor of its L_P.
func buildLayers(b *bench, g *graph.Graph, orc *oracle) (*core.Sparsifier, *chol.Factor, error) {
	tr := b.tr
	req := tr.newReq()
	root := tr.begin("layers.build", 0, req)
	defer tr.end(root)

	var before, after runtime.MemStats
	var h *trsparse.Sparsifier
	var err error
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr.do("trsparse.New", root, req, func(int) { h, err = trsparse.New(b.ctx, g, trsparse.WithWorkers(b.workers)) })
	runtime.ReadMemStats(&after)
	if err == nil {
		err = orc.checkSparsifier(h.SparsifierGraph())
	}
	if !b.rep.op("traced build", err) {
		return nil, nil, nil
	}
	st := h.Result().Stats
	b.rep.layer("build.alloc_mb", "MB", float64(after.TotalAlloc-before.TotalAlloc)/mb, 1)
	b.rep.layer("sparsify.score_ms", "ms", ms(st.ScoreTime), 1)
	b.rep.layer("sparsify.factor_ms", "ms", ms(st.FactorTime), 1)
	// Each recovery round after the first factorizes the current
	// sparsifier, and the pencil factorizes the final one: one ordering
	// per factorization.
	b.rep.layer("order.calls", "count", float64(st.Rounds), 1)

	sub, shift := h.SparsifierGraph(), h.Shift()
	var lp *sparse.CSC
	var perm []int
	var f *chol.Factor
	for i := 0; i < b.sz.layerReps; i++ {
		tr.do("tree.MEWST", root, req, func(int) { _, err = tree.MEWST(g) })
		if !b.rep.op("tree.MEWST", err) {
			return nil, nil, nil
		}
		tr.do("lap.Laplacian", root, req, func(int) { lp = lap.Laplacian(sub, shift) })
		tr.do("order.Compute", root, req, func(int) { perm = order.Compute(cscAdj{lp}, order.Auto) })
		tr.do("chol.New", root, req, func(int) { f, err = chol.New(lp, chol.Options{Perm: perm}) })
		if !b.rep.op("chol.New", err) {
			return nil, nil, nil
		}
		var z *spai.ApproxInv
		tr.do("spai.Compute", root, req, func(int) { z = spai.Compute(f.L, spaiDelta) })
		b.rep.layer("spai.nnz", "count", float64(z.NNZ()), 1)
		tr.do("core.NewPencilWith", root, req, func(int) { _, err = core.NewPencilWith(g, sub, shift, precond.NewMonolithic()) })
		if !b.rep.op("core.NewPencilWith", err) {
			return nil, nil, nil
		}
	}
	b.rep.layer("chol.factor_nnz", "count", float64(f.NNZ()), 1)
	for _, l := range []struct{ metric, span string }{
		{"tree.mewst_ms", "tree.MEWST"},
		{"lap.laplacian_ms", "lap.Laplacian"},
		{"order.compute_ms", "order.Compute"},
		{"chol.numeric_ms", "chol.New"},
		{"spai.compute_ms", "spai.Compute"},
		{"precond.build_ms", "core.NewPencilWith"},
	} {
		d := tr.durations(l.span)
		b.rep.layer(l.metric, "ms", d.median(), len(d))
	}

	// The same build on one worker: the serial baseline of scoring.
	var serial *trsparse.Sparsifier
	runtime.GC()
	tr.do("trsparse.New(workers=1)", root, req, func(int) { serial, err = trsparse.New(b.ctx, g, trsparse.WithWorkers(1)) })
	if err == nil {
		err = orc.checkSparsifier(serial.SparsifierGraph())
	}
	if !b.rep.op("serial build", err) {
		return nil, nil, nil
	}
	b.rep.layer("sparsify.score_ms_serial", "ms", ms(serial.Result().Stats.ScoreTime), 1)
	return h, f, nil
}

// timedPre wraps a preconditioner so each Apply is a span.
type timedPre struct {
	inner  solver.Preconditioner
	tr     *tracer
	parent int
	req    int64
}

func (p *timedPre) Apply(z, r []float64) {
	id := p.tr.begin("precond.Apply", p.parent, p.req)
	p.inner.Apply(z, r)
	p.tr.end(id)
}

// solveLayers times the solve path of st.h: handle solves single and
// 8-wide, PCG split into preconditioner applies and L_G products, the
// triangular solves of f, and the JSON codec on solve bodies of the
// graph's size.
func solveLayers(b *bench, st *solveTarget, f *chol.Factor) {
	tr := b.tr
	req := tr.newReq()
	root := tr.begin("layers.solve", 0, req)
	defer tr.end(root)
	n := st.orc.n
	cols := rhs(n, batchWidth, itersSeed)

	for i := 0; i < b.sz.layerReps; i++ {
		var sol *core.Solution
		var err error
		tr.do("Sparsifier.SolveTol", root, req, func(int) { sol, err = st.h.SolveTol(b.ctx, cols[i%batchWidth], solveTol) })
		if err == nil {
			err = st.orc.checkSolve(cols[i%batchWidth], sol.X, sol.Converged, solveTol, st.shift)
		}
		b.rep.op("traced solve", err)
		var sols []*core.Solution
		tr.do("Sparsifier.SolveBatchTol(8)", root, req, func(int) { sols, err = st.h.SolveBatchTol(b.ctx, cols, solveTol) })
		for j := 0; err == nil && j < len(cols); j++ {
			err = st.orc.checkSolve(cols[j], sols[j].X, sols[j].Converged, solveTol, st.shift)
		}
		b.rep.op("traced batch solve", err)
	}
	single := tr.durations("Sparsifier.SolveTol")
	batch := tr.durations("Sparsifier.SolveBatchTol(8)")
	b.rep.layer("core.solve_ms", "ms", single.median(), len(single))
	b.rep.layer("core.batch8_ms", "ms", batch.median(), len(batch))

	// The solver loop: PCG with a timed preconditioner, and the L_G
	// products one solve performs, timed as separate calls.
	pen := st.h.Pencil()
	var iters samples
	for i := 0; i < b.sz.layerReps; i++ {
		rq := tr.newReq()
		x := make([]float64, n)
		var res solver.Result
		tr.do("solver.PCG", root, rq, func(id int) {
			res = solver.PCG(pen.LG, cols[i], x, &timedPre{inner: pen.Pre, tr: tr, parent: id, req: rq}, solver.Options{Tol: solveTol})
		})
		b.rep.op("traced PCG", st.orc.checkSolve(cols[i], x, res.Converged, solveTol, st.shift))
		iters = append(iters, float64(res.Iterations))
		y := make([]float64, n)
		tr.do("solver.matvecs", root, rq, func(id int) {
			for k := 0; k <= res.Iterations; k++ {
				tr.do("sparse.MulVec", id, rq, func(int) { pen.LG.MulVec(x, y) })
			}
		})
	}
	apply := tr.childSum("solver.PCG", "precond.Apply")
	matvec := tr.durations("solver.matvecs")
	b.rep.layer("solver.apply_ms", "ms", apply.median(), len(apply))
	b.rep.layer("solver.matvec_ms", "ms", matvec.median(), len(matvec))
	b.rep.layer("solver.iters", "count", iters.median(), len(iters))

	// The triangular solves, scalar and 8-wide.
	x := make([]float64, n)
	panelB := make([]float64, n*batchWidth)
	for i := 0; i < n; i++ {
		for j := 0; j < batchWidth; j++ {
			panelB[i*batchWidth+j] = cols[j][i]
		}
	}
	panelX, panelY := make([]float64, len(panelB)), make([]float64, len(panelB))
	for i := 0; i < 5*b.sz.layerReps; i++ {
		tr.do("chol.Factor.SolveTo", root, req, func(int) { f.SolveTo(x, cols[0]) })
		tr.do("chol.Factor.SolvePanelNoAlloc(8)", root, req, func(int) { f.SolvePanelNoAlloc(panelX, panelB, panelY, batchWidth) })
	}
	tri := tr.durations("chol.Factor.SolveTo")
	panel := tr.durations("chol.Factor.SolvePanelNoAlloc(8)")
	b.rep.layer("chol.trisolve_ms", "ms", tri.median(), len(tri))
	b.rep.layer("chol.panel8_ms", "ms", panel.median(), len(panel))

	// The codec trsparsed runs on a single-RHS solve: decode the request,
	// encode the response, on bodies of this graph's size.
	body, _ := json.Marshal(solveReq{Key: "k", B: cols[0], Tol: solveTol})
	out := solveResp{Key: "k", X: cols[1], Iterations: 25, RelRes: solveTol, Converged: true}
	for i := 0; i < 5*b.sz.layerReps; i++ {
		var in solveReq
		tr.do("json.Unmarshal(solve request)", root, req, func(int) { json.Unmarshal(body, &in) })
		tr.do("json.Marshal(solve response)", root, req, func(int) { json.Marshal(out) })
	}
	decode := tr.durations("json.Unmarshal(solve request)")
	encode := tr.durations("json.Marshal(solve response)")
	b.rep.layer("codec.request_decode_ms", "ms", decode.median(), len(decode))
	b.rep.layer("codec.response_encode_ms", "ms", encode.median(), len(encode))
}

// shardProbe builds a sharded artifact of g in an engine, opens a stream
// session on it and pushes the first tile reweights, each waited until
// visible; it returns the base handle, the reweights and the push waits.
func shardProbe(b *bench, g *graph.Graph, orc *oracle) (*shardTarget, error) {
	tr := b.tr
	req := tr.newReq()
	root := tr.begin("layers.session", 0, req)
	defer tr.end(root)

	eng := streamEngine(b.workers)
	bo := engine.BuildOpts{ShardThreshold: g.N / b.sz.streamParts}
	var art *engine.Artifact
	var err error
	runtime.GC()
	tr.do("engine.SparsifyWith(sharded)", root, req, func(int) { art, _, err = eng.SparsifyWith(b.ctx, g, bo) })
	if err == nil {
		err = orc.checkSparsifier(art.SparsifierGraph())
	}
	if !b.rep.op("sharded build", err) {
		return nil, nil
	}
	side := int(math.Round(math.Sqrt(float64(g.N))))
	if side*side != g.N {
		return nil, fmt.Errorf("shard probe needs a square grid, got %d vertices", g.N)
	}
	sh := &shardTarget{base: art.Handle, deltas: tileDeltas(orc, side, b.sz.tile)}
	s, err := eng.StreamOpen(art.Key)
	if !b.rep.op("stream open", err) {
		return nil, nil
	}
	defer s.Close()
	for _, d := range sh.deltas[:b.sz.layerReps] {
		var gen int64
		lat := tr.do("push+visible", root, req, func(int) {
			if gen, err = s.Push(d); err == nil {
				_, err = s.Wait(b.ctx, gen)
			}
		})
		if !b.rep.op("probe push", err) {
			return nil, nil
		}
		sh.waitMS = append(sh.waitMS, lat-s.Stats().Last.TotalMS)
	}
	return sh, nil
}

// shardLayers replays tile reweights on the sharded base, each applied
// to the base, layer by layer, and times one dirty cluster's ordering and
// the Schwarz preconditioner over the base's clusters.
func shardLayers(b *bench, g *graph.Graph, sh *shardTarget) error {
	tr := b.tr
	req := tr.newReq()
	root := tr.begin("layers.shard", 0, req)
	defer tr.end(root)
	b.rep.layer("engine.push_wait_ms", "ms", sh.waitMS.median(), len(sh.waitMS))

	var dirty, reused, patch samples
	for _, d := range sh.deltas[:b.sz.layerReps] {
		var p *graph.Patch
		var err error
		tr.do("graph.Delta.ApplyPatch", root, req, func(int) { p, err = d.ApplyPatch(g) })
		if !b.rep.op("graph.Delta.ApplyPatch", err) {
			return nil
		}
		var h *core.Sparsifier
		tr.do("core.UpdateSparsifierPatch", root, req, func(int) { h, err = core.UpdateSparsifierPatch(b.ctx, sh.base, p) })
		if !b.rep.op("core.UpdateSparsifierPatch", err) {
			return nil
		}
		ss := h.ShardStats()
		if ss == nil {
			b.rep.op("update shard stats", fmt.Errorf("updated handle is not sharded"))
			return nil
		}
		reused = append(reused, float64(ss.ClustersReused))
		dirty = append(dirty, float64(ss.DirtyClusters))
		if us := h.UpdateStats(); us != nil {
			patch = append(patch, ms(us.PatchTime))
		}
	}
	apply := tr.durations("graph.Delta.ApplyPatch")
	update := tr.durations("core.UpdateSparsifierPatch")
	b.rep.layer("graph.apply_patch_ms", "ms", apply.median(), len(apply))
	b.rep.layer("core.update_ms", "ms", update.median(), len(update))
	b.rep.layer("core.patch_ms", "ms", patch.median(), len(patch))
	b.rep.layer("shard.dirty_clusters", "count", dirty.median(), len(dirty))
	b.rep.layer("shard.clusters_reused", "count", reused.median(), len(reused))

	// One dirty cluster's block: the cluster holding the first delta's
	// first vertex, as a principal submatrix of L_P.
	ss := sh.base.ShardStats()
	pen := sh.base.Pencil()
	c := ss.Assign[sh.deltas[0].Set[0].U]
	var idx []int
	for v, a := range ss.Assign {
		if a == c {
			idx = append(idx, v)
		}
	}
	block := principal(pen.LP, idx)
	for i := 0; i < b.sz.layerReps; i++ {
		tr.do("order.Compute(cluster)", root, req, func(int) { order.Compute(cscAdj{block}, order.Auto) })
	}
	oc := tr.durations("order.Compute(cluster)")
	b.rep.layer("order.cluster_ms", "ms", oc.median(), len(oc))

	// The Schwarz preconditioner over the base's clusters.
	var pre interface{ Apply(z, r []float64) }
	var err error
	for i := 0; i < b.sz.layerReps; i++ {
		tr.do("precond.Schwarz.Build", root, req, func(int) {
			pre, _, err = precond.NewSchwarz(ss.Assign, precond.SchwarzOptions{Workers: b.workers}).Build(pen.LP)
		})
		if !b.rep.op("precond.Schwarz.Build", err) {
			return nil
		}
	}
	r := rhs(g.N, 1, itersSeed)[0]
	z := make([]float64, g.N)
	for i := 0; i < 10*b.sz.layerReps; i++ {
		tr.do("precond.Schwarz.Apply", root, req, func(int) { pre.Apply(z, r) })
	}
	sb := tr.durations("precond.Schwarz.Build")
	sa := tr.durations("precond.Schwarz.Apply")
	b.rep.layer("precond.schwarz_build_ms", "ms", sb.median(), len(sb))
	b.rep.layer("precond.schwarz_apply_ms", "ms", sa.median(), len(sa))
	return nil
}

// principal extracts the symmetric principal submatrix a[idx, idx].
func principal(a *sparse.CSC, idx []int) *sparse.CSC {
	local := make(map[int]int, len(idx))
	for i, v := range idx {
		local[v] = i
	}
	out := &sparse.CSC{Rows: len(idx), Cols: len(idx), ColPtr: make([]int, len(idx)+1)}
	for j, v := range idx {
		for p := a.ColPtr[v]; p < a.ColPtr[v+1]; p++ {
			if i, ok := local[a.RowIdx[p]]; ok {
				out.RowIdx = append(out.RowIdx, i)
				out.Val = append(out.Val, a.Val[p])
			}
		}
		out.ColPtr[j+1] = len(out.RowIdx)
	}
	return out
}
