package linalg

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// SVDResult holds a thin singular value decomposition A = U · diag(S) · Vᵀ,
// with U of shape m×r, S of length r, and V of shape n×r, where
// r = min(m, n). Singular values are non-negative and descending.
type SVDResult struct {
	U *Matrix
	S []float64
	V *Matrix
}

// ErrNoConvergence reports that a Jacobi solver (SVD or EigenSym) used its
// whole sweep budget without converging. Its partial result is not returned:
// the factors would not meet the solver's accuracy contract.
var ErrNoConvergence = errors.New("linalg: Jacobi iteration did not converge")

// SVD computes a thin singular value decomposition of a using the one-sided
// Jacobi method (Hestenes): columns of a working copy of A are repeatedly
// orthogonalised by plane rotations; at convergence the column norms are the
// singular values, the normalised columns are U, and the accumulated
// rotations give V.
//
// The working copy and V are held column-major so every dot product and
// rotation walks contiguous memory, and each column's squared norm is cached:
// a rotation re-accumulates it over the new values in index order, which is
// exactly the sum a fresh dot product would give. A pair is left alone when
// either column's squared norm is at or below (1e-15·‖A‖_F)²: that column is
// roundoff relative to the whole matrix, and rotating it only stirs noise.
// A sweep with no rotation is convergence; running out of sweeps returns an
// error wrapping ErrNoConvergence.
//
// For m < n the decomposition of Aᵀ is computed and the factors swapped.
func SVD(a *Matrix) (*SVDResult, error) {
	if a.Rows == 0 || a.Cols == 0 {
		return nil, errors.New("linalg: SVD of empty matrix")
	}
	if a.Rows < a.Cols {
		r, err := SVD(a.T())
		if err != nil {
			return nil, err
		}
		return &SVDResult{U: r.V, S: r.S, V: r.U}, nil
	}

	m, n := a.Rows, a.Cols
	// Column-major: column j of the working copy is w[j*m:(j+1)*m], column
	// j of V is v[j*n:(j+1)*n]; norm[j] is the squared norm of w's column j.
	w := a.T().Data
	v := Identity(n).Data
	norm := make([]float64, n)
	for j := range norm {
		norm[j] = dot(w[j*m:(j+1)*m], w[j*m:(j+1)*m])
	}

	scale := a.FrobeniusNorm()
	negligible := (1e-15 * scale) * (1e-15 * scale)
	const maxSweeps = 60
	converged := false
	for sweep := 0; sweep < maxSweeps && !converged; sweep++ {
		converged = true
		for p := 0; p < n-1; p++ {
			wp := w[p*m : (p+1)*m]
			vp := v[p*n : (p+1)*n]
			for q := p + 1; q < n; q++ {
				alpha, beta := norm[p], norm[q]
				if min(alpha, beta) <= negligible {
					continue
				}
				wq := w[q*m : (q+1)*m]
				gamma := dot(wp, wq)
				if math.Abs(gamma) <= 1e-15*math.Sqrt(alpha*beta)+1e-300 {
					continue
				}
				converged = false
				zeta := (beta - alpha) / (2 * gamma)
				var t float64
				if zeta >= 0 {
					t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
				} else {
					t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				np, nq := 0.0, 0.0
				for i, x := range wp {
					y := wq[i]
					x, y = c*x-s*y, s*x+c*y
					wp[i], wq[i] = x, y
					np += x * x
					nq += y * y
				}
				norm[p], norm[q] = np, nq
				vq := v[q*n : (q+1)*n]
				for i, x := range vp {
					y := vq[i]
					vp[i], vq[i] = c*x-s*y, s*x+c*y
				}
			}
		}
	}
	if !converged {
		return nil, fmt.Errorf("linalg: SVD of %dx%d: %d sweeps: %w", m, n, maxSweeps, ErrNoConvergence)
	}

	// Extract singular values and left vectors.
	sv := make([]float64, n)
	for j := range sv {
		sv[j] = math.Sqrt(norm[j])
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return sv[order[i]] > sv[order[j]] })

	u := NewMatrix(m, n)
	vOut := NewMatrix(n, n)
	sOut := make([]float64, n)
	for newJ, oldJ := range order {
		sOut[newJ] = sv[oldJ]
		if sv[oldJ] > 1e-300*(scale+1) && sv[oldJ] > 0 {
			inv := 1 / sv[oldJ]
			for i, x := range w[oldJ*m : (oldJ+1)*m] {
				u.Data[i*n+newJ] = x * inv
			}
		}
		for i, x := range v[oldJ*n : (oldJ+1)*n] {
			vOut.Data[i*n+newJ] = x
		}
	}
	return &SVDResult{U: u, S: sOut, V: vOut}, nil
}

// dot is the index-ordered inner product of two equal-length vectors.
func dot(x, y []float64) float64 {
	s := 0.0
	for i, xi := range x {
		s += xi * y[i]
	}
	return s
}

// Truncate returns the rank-k factors (U m×k, S k, V n×k) of r.
// k is clamped to the available rank.
func (r *SVDResult) Truncate(k int) (*Matrix, []float64, *Matrix) {
	if k > len(r.S) {
		k = len(r.S)
	}
	if k < 1 {
		k = 1
	}
	uk := NewMatrix(r.U.Rows, k)
	vk := NewMatrix(r.V.Rows, k)
	for i := 0; i < r.U.Rows; i++ {
		for j := 0; j < k; j++ {
			uk.Set(i, j, r.U.At(i, j))
		}
	}
	for i := 0; i < r.V.Rows; i++ {
		for j := 0; j < k; j++ {
			vk.Set(i, j, r.V.At(i, j))
		}
	}
	return uk, append([]float64(nil), r.S[:k]...), vk
}

// Reconstruct returns U·diag(S)·Vᵀ from possibly truncated factors.
func Reconstruct(u *Matrix, s []float64, v *Matrix) (*Matrix, error) {
	if u.Cols != len(s) || v.Cols != len(s) {
		return nil, errors.New("linalg: factor shape mismatch")
	}
	out := NewMatrix(u.Rows, v.Rows)
	for i := 0; i < u.Rows; i++ {
		for k := 0; k < len(s); k++ {
			f := u.At(i, k) * s[k]
			if f == 0 {
				continue
			}
			for j := 0; j < v.Rows; j++ {
				out.Data[i*out.Cols+j] += f * v.At(j, k)
			}
		}
	}
	return out, nil
}

// RankForEnergy returns the smallest k such that the first k values of the
// (descending, non-negative) spectrum carry at least `fraction` of the total
// sum. This is the paper's 95 % rule for choosing the number of retained
// components. It returns at least 1.
func RankForEnergy(spectrum []float64, fraction float64) int {
	total := 0.0
	for _, s := range spectrum {
		if s > 0 {
			total += s
		}
	}
	if total == 0 {
		return 1
	}
	acc := 0.0
	for i, s := range spectrum {
		if s > 0 {
			acc += s
		}
		if acc/total >= fraction {
			return i + 1
		}
	}
	return len(spectrum)
}
