package linalg

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// EigenSym computes the eigendecomposition of a symmetric matrix using the
// cyclic Jacobi rotation method. It returns eigenvalues in descending order
// and the matching eigenvectors as the COLUMNS of the returned matrix.
//
// Jacobi is quadratically convergent and unconditionally stable for
// symmetric input, which is exactly the covariance-matrix case PCA needs.
//
// The eigenvector accumulator is held transposed, so each rotation of it
// walks two contiguous rows. An off-diagonal entry is zeroed instead of
// rotated when it is roundoff relative to its diagonal pair or when
// |a_pq| ≤ 1e-14·‖A‖_F/n: fewer than n² entries that small stay below the
// 1e-14·‖A‖_F off-norm stop together. Running out of sweeps returns an
// error wrapping ErrNoConvergence.
func EigenSym(a *Matrix) (eigenvalues []float64, eigenvectors *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, errors.New("linalg: EigenSym requires a square matrix")
	}
	n := a.Rows
	// Verify symmetry up to roundoff so silent garbage can't escape.
	scale := a.FrobeniusNorm()
	tol := 1e-9 * (scale + 1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > tol {
				return nil, nil, errors.New("linalg: EigenSym input not symmetric")
			}
		}
	}

	w := a.Clone()
	vt := Identity(n) // row k holds eigenvector column k
	negligible := 1e-14 * scale / float64(n)

	const maxSweeps = 100
	for sweep := 0; ; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if math.Sqrt(2*off) <= 1e-14*(scale+1e-300) {
			break
		}
		if sweep == maxSweeps {
			return nil, nil, fmt.Errorf("linalg: EigenSym of %dx%d: %d sweeps: %w", n, n, maxSweeps, ErrNoConvergence)
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if apq == 0 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				// Skip rotations that are pure roundoff.
				if math.Abs(apq) <= 1e-18*(math.Abs(app)+math.Abs(aqq)+1e-300) || math.Abs(apq) <= negligible {
					w.Set(p, q, 0)
					w.Set(q, p, 0)
					continue
				}
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c

				// Apply rotation G(p,q,theta) on both sides of w and
				// accumulate into the transposed eigenvectors.
				for k := 0; k < n; k++ {
					wkp := w.At(k, p)
					wkq := w.At(k, q)
					w.Set(k, p, c*wkp-s*wkq)
					w.Set(k, q, s*wkp+c*wkq)
				}
				wp := w.Data[p*n : (p+1)*n]
				wq := w.Data[q*n : (q+1)*n]
				for k, x := range wp {
					y := wq[k]
					wp[k], wq[k] = c*x-s*y, s*x+c*y
				}
				vp := vt.Data[p*n : (p+1)*n]
				vq := vt.Data[q*n : (q+1)*n]
				for k, x := range vp {
					y := vq[k]
					vp[k], vq[k] = c*x-s*y, s*x+c*y
				}
			}
		}
	}

	// Collect and sort by descending eigenvalue.
	type pair struct {
		val float64
		idx int
	}
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{w.At(i, i), i}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].val > pairs[j].val })

	eigenvalues = make([]float64, n)
	eigenvectors = NewMatrix(n, n)
	for newIdx, p := range pairs {
		eigenvalues[newIdx] = p.val
		for k, x := range vt.Data[p.idx*n : (p.idx+1)*n] {
			eigenvectors.Set(k, newIdx, x)
		}
	}
	return eigenvalues, eigenvectors, nil
}
