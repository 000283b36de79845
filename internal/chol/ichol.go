package chol

import (
	"fmt"
	"math"

	"repro/internal/sparse"
)

// NewIncomplete computes the zero-fill incomplete Cholesky factorization
// IC(0): a lower-triangular L with the sparsity pattern of tril(A) such
// that (L Lᵀ)|pattern = A|pattern. For the SDD M-matrices this project
// works with, IC(0) is known to exist (Meijerink–van der Vorst); a
// nonpositive pivot on other inputs returns ErrNotPD.
//
// IC(0) is the classic cheap preconditioner the sparsifier approach
// competes with: it reuses A's pattern (no fill to store), but its
// condition-number improvement on mesh Laplacians is a constant factor,
// whereas the sparsifier preconditioner caps PCG iterations at a level set
// by κ(L_G, L_P). TestSparsifierBeatsIC0 (internal/solver) measures the
// gap in PCG iterations on a mesh Laplacian.
//
// The ordering is natural (IC quality is ordering-insensitive compared to
// complete factorizations, and keeping A's pattern is the point).
func NewIncomplete(a *sparse.CSC) (*Factor, error) {
	n := a.Cols
	if a.Rows != n {
		return nil, fmt.Errorf("chol: matrix must be square, got %dx%d", a.Rows, n)
	}
	low := a.Lower()
	l := &sparse.CSC{
		Rows:   n,
		Cols:   n,
		ColPtr: append([]int(nil), low.ColPtr...),
		RowIdx: append([]int(nil), low.RowIdx...),
		Val:    make([]float64, low.NNZ()),
	}

	// rowHead[i] holds the entries L[i][k] produced so far as parallel
	// slices sorted by k (columns are processed in order).
	rowCols := make([][]int32, n)
	rowVals := make([][]float64, n)

	dotRows := func(i, j int) float64 {
		ci, vi := rowCols[i], rowVals[i]
		cj, vj := rowCols[j], rowVals[j]
		var s float64
		for x, y := 0, 0; x < len(ci) && y < len(cj); {
			switch {
			case ci[x] < cj[y]:
				x++
			case ci[x] > cj[y]:
				y++
			default:
				s += vi[x] * vj[y]
				x++
				y++
			}
		}
		return s
	}

	for j := 0; j < n; j++ {
		p0 := l.ColPtr[j]
		if p0 >= l.ColPtr[j+1] || l.RowIdx[p0] != j {
			return nil, fmt.Errorf("chol: IC(0) requires a structurally present diagonal at %d", j)
		}
		d := low.Val[p0] - dotRows(j, j)
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w (IC(0) pivot %d, value %g)", ErrNotPD, j, d)
		}
		d = math.Sqrt(d)
		l.Val[p0] = d
		rowCols[j] = append(rowCols[j], int32(j))
		rowVals[j] = append(rowVals[j], d)
		for p := p0 + 1; p < l.ColPtr[j+1]; p++ {
			i := l.RowIdx[p]
			v := (low.Val[p] - dotRows(i, j)) / d
			l.Val[p] = v
			rowCols[i] = append(rowCols[i], int32(j))
			rowVals[i] = append(rowVals[i], v)
		}
	}

	perm := make([]int, n)
	inv := make([]int, n)
	for i := range perm {
		perm[i] = i
		inv[i] = i
	}
	return &Factor{N: n, L: l, Perm: perm, inv: inv}, nil
}
