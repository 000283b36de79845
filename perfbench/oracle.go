package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// shiftRel is the relative regularization every solve path uses: the
// system is (L_G + s·I) x = b with s = shiftRel × mean weighted degree.
const shiftRel = 1e-6

// oracle checks outputs against the benchmark's own copy of a graph's
// edge list; it shares no code with the solvers it checks.
type oracle struct {
	n    int
	u, v []int32
	w    []float64
	idx  map[[2]int32]int // normalized endpoints → edge index
}

func newOracle(g *graph.Graph) *oracle {
	o := &oracle{n: g.N, u: make([]int32, g.M()), v: make([]int32, g.M()), w: make([]float64, g.M()),
		idx: make(map[[2]int32]int, g.M())}
	for i, e := range g.Edges {
		a, c := int32(min(e.U, e.V)), int32(max(e.U, e.V))
		o.u[i], o.v[i], o.w[i] = a, c, e.W
		o.idx[[2]int32{a, c}] = i
	}
	return o
}

// edge returns the index of edge {a, c}.
func (o *oracle) edge(a, c int) (int, bool) {
	i, ok := o.idx[[2]int32{int32(min(a, c)), int32(max(a, c))}]
	return i, ok
}

func (o *oracle) shift() float64 {
	var total float64
	for _, w := range o.w {
		total += 2 * w
	}
	return shiftRel * total / float64(o.n)
}

// relres returns ‖b − (L_G + diag(shift)) x‖ / ‖b‖; a nil shift is the
// oracle's own uniform shift.
func (o *oracle) relres(b, x, shift []float64) float64 {
	s := o.shift()
	r := make([]float64, o.n)
	for i := range r {
		if shift != nil {
			s = shift[i]
		}
		r[i] = b[i] - s*x[i]
	}
	for k, w := range o.w {
		a, c := o.u[k], o.v[k]
		f := w * (x[a] - x[c])
		r[a] -= f
		r[c] += f
	}
	return norm(r) / norm(b)
}

// checkSolve verifies a solution reported as converged to tol, on the
// system with the given diagonal shift (nil: the oracle's own, which a
// cold build uses).
func (o *oracle) checkSolve(b, x []float64, converged bool, tol float64, shift []float64) error {
	switch {
	case !converged:
		return fmt.Errorf("solve did not converge")
	case len(x) != o.n:
		return fmt.Errorf("solution has length %d, want %d", len(x), o.n)
	case shift != nil && len(shift) != o.n:
		return fmt.Errorf("shift has length %d, want %d", len(shift), o.n)
	}
	if rr := o.relres(b, x, shift); !(rr <= tol) {
		return fmt.Errorf("relative residual %.3g exceeds tolerance %.3g", rr, tol)
	}
	return nil
}

// checkSparsifier verifies p is a connected spanning subgraph of the
// oracle's graph whose weights do not exceed the originals.
func (o *oracle) checkSparsifier(p *graph.Graph) error {
	if p == nil {
		return fmt.Errorf("no sparsifier")
	}
	if p.N != o.n {
		return fmt.Errorf("sparsifier spans %d vertices, graph has %d", p.N, o.n)
	}
	parent := make([]int, o.n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	comps := o.n
	for _, e := range p.Edges {
		k, ok := o.edge(e.U, e.V)
		if !ok {
			return fmt.Errorf("sparsifier edge (%d,%d) is not in the graph", e.U, e.V)
		}
		if !(e.W > 0) || e.W > o.w[k]*(1+1e-12) {
			return fmt.Errorf("sparsifier edge (%d,%d) has weight %g, graph weight %g", e.U, e.V, e.W, o.w[k])
		}
		if a, c := find(e.U), find(e.V); a != c {
			parent[a] = c
			comps--
		}
	}
	if comps != 1 {
		return fmt.Errorf("sparsifier has %d components", comps)
	}
	return nil
}

// checkEqual verifies g has exactly the oracle's edges and weights.
func (o *oracle) checkEqual(g *graph.Graph) error {
	if g.N != o.n || g.M() != len(o.w) {
		return fmt.Errorf("graph has %d vertices and %d edges, want %d and %d", g.N, g.M(), o.n, len(o.w))
	}
	for _, e := range g.Edges {
		k, ok := o.edge(e.U, e.V)
		if !ok {
			return fmt.Errorf("edge (%d,%d) is not expected", e.U, e.V)
		}
		if math.Abs(e.W-o.w[k]) > 1e-12*o.w[k] {
			return fmt.Errorf("edge (%d,%d) has weight %g, want %g", e.U, e.V, e.W, o.w[k])
		}
	}
	return nil
}

// rhs returns k seeded right-hand sides with zero mean (injections that
// sum to zero, as in a circuit's nodal equations).
func rhs(n, k int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, k)
	for j := range out {
		b := make([]float64, n)
		var mean float64
		for i := range b {
			b[i] = rng.NormFloat64()
			mean += b[i]
		}
		mean /= float64(n)
		for i := range b {
			b[i] -= mean
		}
		out[j] = b
	}
	return out
}

func norm(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// corruptOnce perturbs x when the test hook is set, once per run, so the
// tests can assert that the checks catch a wrong answer.
func (b *bench) corruptOnce(x []float64) {
	if b.cfg.corrupt && len(x) > 0 {
		b.cfg.corrupt = false
		x[0] += 1e3
	}
}
