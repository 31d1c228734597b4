package zfp

import (
	"context"
	"fmt"
	"math"
	"testing"

	"lrm/internal/grid"
)

// FuzzDecompress asserts the zfp stream parser never panics: arbitrary
// input either decodes or errors — on the serial path AND on the worker
// pool path, which must agree bitwise whenever both succeed.
func FuzzDecompress(f *testing.F) {
	field := grid.New(6, 6)
	for i := range field.Data {
		field.Data[i] = float64(i) / 7
	}
	for _, c := range []*Codec{MustNew(8), MustNewAccuracy(1e-3), MustNewRate(8)} {
		enc, err := c.Compress(context.Background(), field)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	// 1-D and 3-D seeds, so every block size starts from a valid stream
	// in each of the paper's modes.
	for _, dims := range [][]int{{19}, {5, 6, 7}} {
		g := goldenSynth(f, dims...)
		for _, c := range []*Codec{MustNew(8), MustNew(16), MustNewAccuracy(1e-3)} {
			enc, err := c.Compress(context.Background(), g)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(enc)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := MustNew(16)
		out, err := c.Decompress(context.Background(), data)
		if err == nil && out != nil {
			if out.Len() == 0 || out.Len() > 1<<24 {
				t.Fatalf("implausible decode length %d", out.Len())
			}
		}
		outP, errP := c.WithWorkers(8).Decompress(context.Background(), data)
		if (err == nil) != (errP == nil) {
			t.Fatalf("serial/parallel decode disagree: %v vs %v", err, errP)
		}
		if err == nil {
			for i := range out.Data {
				if math.Float64bits(out.Data[i]) != math.Float64bits(outP.Data[i]) {
					t.Fatalf("serial/parallel decode differ bitwise at %d", i)
				}
			}
		}
		_, _ = c.DecodeAt(data, 0, 0)
		_, _ = c.DecodeAt(data, 1)

		// Differential check of the block decoder over the same arbitrary
		// (valid, truncated, or corrupt) bytes, at every block size and in
		// the paper's modes: the bit-sliced decoder and the per-bit
		// reference must agree on every coefficient, exponent, position and
		// error outcome. The checked-in seeds include truncated streams, so
		// plain `go test` covers the fault-injection corpus.
		for _, size := range []int{4, 16, 64} {
			for _, h := range []*Codec{MustNew(8), MustNew(16), MustNewAccuracy(1e-3)} {
				checkBlockDecode(t, data, size, h, 8, fmt.Sprintf("size=%d %s", size, h.Name()))
			}
		}
	})
}
