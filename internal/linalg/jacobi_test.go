package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"lrm/internal/sim/laplace"
)

// refSVD is the plain row-major one-sided Jacobi SVD: three strided column
// dot products per pair, no norm cache, the same rotation order and the
// same skip and convergence rules as SVD. It is the oracle that pins the
// column-major layout and norm caching in SVD to identical arithmetic.
func refSVD(a *Matrix) (*SVDResult, error) {
	if a.Rows < a.Cols {
		r, err := refSVD(a.T())
		if err != nil {
			return nil, err
		}
		return &SVDResult{U: r.V, S: r.S, V: r.U}, nil
	}
	m, n := a.Rows, a.Cols
	w := a.Clone()
	v := Identity(n)
	colDot := func(p, q int) float64 {
		s := 0.0
		for i := 0; i < m; i++ {
			s += w.Data[i*n+p] * w.Data[i*n+q]
		}
		return s
	}
	scale := a.FrobeniusNorm()
	negligible := (1e-15 * scale) * (1e-15 * scale)
	rotated := true
	for sweep := 0; sweep < 60 && rotated; sweep++ {
		rotated = false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				alpha := colDot(p, p)
				beta := colDot(q, q)
				if min(alpha, beta) <= negligible {
					continue
				}
				gamma := colDot(p, q)
				if math.Abs(gamma) <= 1e-15*math.Sqrt(alpha*beta)+1e-300 {
					continue
				}
				rotated = true
				zeta := (beta - alpha) / (2 * gamma)
				var t float64
				if zeta >= 0 {
					t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
				} else {
					t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				for i := 0; i < m; i++ {
					wp, wq := w.Data[i*n+p], w.Data[i*n+q]
					w.Data[i*n+p] = c*wp - s*wq
					w.Data[i*n+q] = s*wp + c*wq
				}
				for i := 0; i < n; i++ {
					vp, vq := v.Data[i*n+p], v.Data[i*n+q]
					v.Data[i*n+p] = c*vp - s*vq
					v.Data[i*n+q] = s*vp + c*vq
				}
			}
		}
	}
	if rotated {
		return nil, ErrNoConvergence
	}
	sv := make([]float64, n)
	for j := range sv {
		sv[j] = math.Sqrt(colDot(j, j))
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return sv[order[i]] > sv[order[j]] })
	u, vOut, sOut := NewMatrix(m, n), NewMatrix(n, n), make([]float64, n)
	for newJ, oldJ := range order {
		sOut[newJ] = sv[oldJ]
		if sv[oldJ] > 1e-300*(scale+1) && sv[oldJ] > 0 {
			inv := 1 / sv[oldJ]
			for i := 0; i < m; i++ {
				u.Data[i*n+newJ] = w.Data[i*n+oldJ] * inv
			}
		}
		for i := 0; i < n; i++ {
			vOut.Data[i*n+newJ] = v.Data[i*n+oldJ]
		}
	}
	return &SVDResult{U: u, S: sOut, V: vOut}, nil
}

// refEigenSym is cyclic Jacobi with the eigenvectors accumulated in the
// natural (untransposed) layout and the same skip and convergence rules as
// EigenSym: the oracle for EigenSym's transposed accumulator.
func refEigenSym(a *Matrix) ([]float64, *Matrix, error) {
	n := a.Rows
	scale := a.FrobeniusNorm()
	w := a.Clone()
	v := Identity(n)
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
		if sweep == 100 {
			return nil, nil, ErrNoConvergence
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if apq == 0 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				if math.Abs(apq) <= 1e-18*(math.Abs(app)+math.Abs(aqq)+1e-300) ||
					math.Abs(apq) <= 1e-14*scale/float64(n) {
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
				for k := 0; k < n; k++ {
					wkp, wkq := w.At(k, p), w.At(k, q)
					w.Set(k, p, c*wkp-s*wkq)
					w.Set(k, q, s*wkp+c*wkq)
				}
				for k := 0; k < n; k++ {
					wpk, wqk := w.At(p, k), w.At(q, k)
					w.Set(p, k, c*wpk-s*wqk)
					w.Set(q, k, s*wpk+c*wqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return w.At(idx[i], idx[i]) > w.At(idx[j], idx[j]) })
	vals, vecs := make([]float64, n), NewMatrix(n, n)
	for newIdx, old := range idx {
		vals[newIdx] = w.At(old, old)
		for k := 0; k < n; k++ {
			vecs.Set(k, newIdx, v.At(k, old))
		}
	}
	return vals, vecs, nil
}

// lowRank returns an m×n matrix of exact rank r (plus the roundoff of
// forming the product), the shape matricized smooth fields take.
func lowRank(rng *rand.Rand, m, n, r int) *Matrix {
	a := NewMatrix(m, n)
	for k := 0; k < r; k++ {
		scale := math.Pow(10, -float64(k))
		u := make([]float64, m)
		for i := range u {
			u[i] = rng.NormFloat64() * scale
		}
		for j := 0; j < n; j++ {
			vj := rng.NormFloat64()
			for i := 0; i < m; i++ {
				a.Data[i*n+j] += u[i] * vj
			}
		}
	}
	return a
}

// laplaceField returns the n×n Laplace iterate the Laplace dataset stores:
// smooth, and numerically of very low rank.
func laplaceField(n int) *Matrix {
	f := laplace.Solve(laplace.Default(n))
	return &Matrix{Rows: n, Cols: n, Data: f.Data}
}

func oracleShapes() map[string]*Matrix {
	rng := rand.New(rand.NewSource(11))
	return map[string]*Matrix{
		"random-12x12":   randomMatrix(rng, 12, 12),
		"tall-40x7":      randomMatrix(rng, 40, 7),
		"wide-6x23":      randomMatrix(rng, 6, 23),
		"row-1x9":        randomMatrix(rng, 1, 9),
		"col-9x1":        randomMatrix(rng, 9, 1),
		"single-1x1":     randomMatrix(rng, 1, 1),
		"zero-5x4":       NewMatrix(5, 4),
		"rank3-60x20":    lowRank(rng, 60, 20, 3),
		"rank2-16x48":    lowRank(rng, 16, 48, 2),
		"laplace-64":     laplaceField(64),
		"zero-cols-30x8": zeroAndRepeatColumns(randomMatrix(rng, 30, 8)),
	}
}

// zeroAndRepeatColumns zeroes columns 2 and 5 of a and copies column 0 into
// its last column: exact zero and exactly dependent columns.
func zeroAndRepeatColumns(a *Matrix) *Matrix {
	for i := 0; i < a.Rows; i++ {
		a.Set(i, 2, 0)
		a.Set(i, 5, 0)
		a.Set(i, a.Cols-1, a.At(i, 0))
	}
	return a
}

// row wraps a vector as a 1×n matrix for requireBitwiseEqual.
func row(x []float64) *Matrix { return &Matrix{Rows: 1, Cols: len(x), Data: x} }

// TestSVDMatchesRowMajorOracle: the column-major layout and the cached
// column norms change no arithmetic — S, U and V equal the row-major
// oracle's bit for bit.
func TestSVDMatchesRowMajorOracle(t *testing.T) {
	for name, a := range oracleShapes() {
		got, err := SVD(a)
		want, werr := refSVD(a)
		if err != nil || werr != nil {
			t.Fatalf("%s: SVD err %v, oracle err %v", name, err, werr)
		}
		requireBitwiseEqual(t, name+"/S", row(got.S), row(want.S))
		requireBitwiseEqual(t, name+"/U", got.U, want.U)
		requireBitwiseEqual(t, name+"/V", got.V, want.V)
	}
}

// TestEigenSymMatchesOracle: the transposed eigenvector accumulator changes
// no arithmetic — eigenvalues and eigenvectors equal the oracle's bit for
// bit, on covariances of the same shapes.
func TestEigenSymMatchesOracle(t *testing.T) {
	for name, a := range oracleShapes() {
		cov := Covariance(a)
		gotVals, gotVecs, err := EigenSym(cov)
		wantVals, wantVecs, werr := refEigenSym(cov)
		if err != nil || werr != nil {
			t.Fatalf("%s: EigenSym err %v, oracle err %v", name, err, werr)
		}
		requireBitwiseEqual(t, name+"/values", row(gotVals), row(wantVals))
		requireBitwiseEqual(t, name+"/vectors", gotVecs, wantVecs)
	}
}

// rankDeficient256 is the 256² Laplace field: after the first sweep all but
// one of its columns are roundoff relative to ‖A‖_F, and a Jacobi SVD that
// keeps rotating them against each other never has a sweep without a
// rotation, so it exhausts its sweep budget. The field is generated once;
// callers get their own copy.
func rankDeficient256() *Matrix { return laplace256().Clone() }

var laplace256 = sync.OnceValue(func() *Matrix { return laplaceField(256) })

func requireReconstructs(t *testing.T, name string, a, u *Matrix, s []float64, v *Matrix) {
	t.Helper()
	r, err := Reconstruct(u, s, v)
	if err != nil {
		t.Fatal(err)
	}
	d, err := a.Sub(r)
	if err != nil {
		t.Fatal(err)
	}
	if rel := d.FrobeniusNorm() / a.FrobeniusNorm(); rel > 1e-12 {
		t.Fatalf("%s: ‖A − U·S·Vᵀ‖_F / ‖A‖_F = %.3g, want ≤ 1e-12", name, rel)
	}
}

// TestSVDConvergesOnRankDeficient is the regression test for the silent
// sweep-cap exit: SVD must converge on a rank-deficient input and still
// reconstruct it to roundoff.
func TestSVDConvergesOnRankDeficient(t *testing.T) {
	a := rankDeficient256()
	res, err := SVD(a)
	if errors.Is(err, ErrNoConvergence) {
		t.Fatalf("SVD hit its sweep cap on a rank-deficient 256x256 input: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	requireReconstructs(t, "svd", a, res.U, res.S, res.V)
}

// TestEigenSymConvergesOnRankDeficient: the same for EigenSym on the
// (rank-1) covariance of the same matrix.
func TestEigenSymConvergesOnRankDeficient(t *testing.T) {
	a := rankDeficient256()
	CenterColumns(a, ColumnMeans(a))
	cov := Covariance(a)
	vals, vecs, err := EigenSym(cov)
	if errors.Is(err, ErrNoConvergence) {
		t.Fatalf("EigenSym hit its sweep cap on a rank-deficient 256x256 covariance: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	requireReconstructs(t, "eigensym", cov, vecs, vals, vecs)
}

func benchShapes() []struct {
	name string
	a    *Matrix
} {
	rng := rand.New(rand.NewSource(3))
	return []struct {
		name string
		a    *Matrix
	}{
		{"4096x64-rank4", lowRank(rng, 4096, 64, 4)},
		{"256x256-laplace", rankDeficient256()},
	}
}

// BenchmarkSVD times the exact SVD at the matricized shapes of the 64³
// Heat3d and 256² Laplace fields, on rank-deficient inputs like theirs.
func BenchmarkSVD(b *testing.B) {
	for _, s := range benchShapes() {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SVD(s.a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEigenSym times the eigen-solve of the centered column
// covariance PCA runs on the same inputs.
func BenchmarkEigenSym(b *testing.B) {
	for _, s := range benchShapes() {
		a := s.a.Clone()
		CenterColumns(a, ColumnMeans(a))
		cov := Covariance(a)
		b.Run(fmt.Sprintf("%dx%d", cov.Rows, cov.Cols), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := EigenSym(cov); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
