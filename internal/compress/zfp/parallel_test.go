package zfp

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"lrm/internal/grid"
)

// TestParallelByteIdentity is the codec-level golden test: every mode must
// emit the identical bit stream at any worker count, and decode the
// parallel-produced stream to the identical field with any worker count.
func TestParallelByteIdentity(t *testing.T) {
	shapes := [][]int{{5}, {64}, {257}, {7, 9}, {16, 16}, {4, 4, 4}, {9, 10, 11}}
	codecs := []*Codec{
		MustNew(16),
		MustNew(32),
		MustNewAccuracy(1e-4),
		MustNewRate(12),
	}
	rng := rand.New(rand.NewSource(7))
	for _, dims := range shapes {
		f := grid.New(dims...)
		for i := range f.Data {
			f.Data[i] = math.Sin(float64(i)/7) * math.Exp(rng.Float64())
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

// TestWithWorkersDoesNotMutate checks WithWorkers is a copy, as its contract
// promises: concurrent pipelines can hold different pool sizes on one codec.
func TestWithWorkersDoesNotMutate(t *testing.T) {
	c := MustNew(20)
	p := c.WithWorkers(8)
	if c.workers != 0 {
		t.Fatalf("WithWorkers mutated the receiver: workers=%d", c.workers)
	}
	if pc, ok := p.(*Codec); !ok || pc.workers != 8 {
		t.Fatalf("WithWorkers(8) returned %#v", p)
	}
	if c.Name() != p.Name() {
		t.Fatalf("worker count leaked into Name: %q vs %q", c.Name(), p.Name())
	}
}
