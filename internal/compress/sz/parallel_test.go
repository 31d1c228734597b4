package sz

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"lrm/internal/grid"
)

// TestParallelByteIdentity: the predict–quantize wavefront and the sharded
// Huffman pack must emit the identical stream at every worker count, and
// decode it to the bitwise-identical field. Shapes straddle the wavefront
// gate (small fields decline tiling and stay serial — also identical by
// construction, but exercised here for completeness).
func TestParallelByteIdentity(t *testing.T) {
	shapes := [][]int{{64}, {1000}, {9, 11}, {128, 130}, {24, 25, 26}}
	codecs := []*Codec{
		MustNew(Abs, 1e-4),
		MustNew(ValueRangeRel, 1e-4),
		MustNew(PointwiseRel, 1e-3),
		MustNewCurveFit(Abs, 1e-4),
	}
	rng := rand.New(rand.NewSource(11))
	for _, dims := range shapes {
		f := grid.New(dims...)
		for i := range f.Data {
			f.Data[i] = math.Cos(float64(i)/13) + 0.05*rng.NormFloat64()
		}
		for _, serial := range codecs {
			want, err := serial.WithWorkers(1).Compress(context.Background(), f)
			if err != nil {
				t.Fatalf("%s %v: serial: %v", serial.Name(), dims, err)
			}
			for _, w := range []int{2, 4, 8} {
				got, err := serial.WithWorkers(w).Compress(context.Background(), f)
				if err != nil {
					t.Fatalf("%s %v w=%d: %v", serial.Name(), dims, w, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s %v: workers=%d stream differs from serial", serial.Name(), dims, w)
				}
				dec1, err := serial.WithWorkers(1).Decompress(context.Background(), want)
				if err != nil {
					t.Fatalf("%s %v: serial decompress: %v", serial.Name(), dims, err)
				}
				decW, err := serial.WithWorkers(w).Decompress(context.Background(), want)
				if err != nil {
					t.Fatalf("%s %v w=%d: decompress: %v", serial.Name(), dims, w, err)
				}
				for i := range dec1.Data {
					if math.Float64bits(dec1.Data[i]) != math.Float64bits(decW.Data[i]) {
						t.Fatalf("%s %v w=%d: decoded value %d differs bitwise", serial.Name(), dims, w, i)
					}
				}
			}
		}
	}
}

// TestWithWorkersDoesNotMutate: WithWorkers returns a bound copy.
func TestWithWorkersDoesNotMutate(t *testing.T) {
	c := MustNew(Abs, 1e-5)
	p := c.WithWorkers(4)
	if c.workers != 0 {
		t.Fatalf("WithWorkers mutated the receiver: workers=%d", c.workers)
	}
	if pc, ok := p.(*Codec); !ok || pc.workers != 4 {
		t.Fatalf("WithWorkers(4) returned %#v", p)
	}
}
