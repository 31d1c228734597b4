package zfp

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkKernel times the serial zfp kernels per block rank — 1-D (4-value
// blocks), 2-D (16) and 3-D (64) — at the two precisions the paper runs, so
// a change to the plane coder or the transforms shows its per-rank cost
// directly. The fields carry the golden-stream fixture waveform
// (goldenSynth). Run:
//
//	go test -run '^$' -bench Kernel ./internal/compress/zfp
//	go test -run '^$' -bench 'Kernel/3d.*/p16/decompress' ./internal/compress/zfp
func BenchmarkKernel(b *testing.B) {
	shapes := []struct {
		name string
		dims []int
	}{
		{"1d-4096", []int{4096}},
		{"2d-256x256", []int{256, 256}},
		{"3d-64x64x64", []int{64, 64, 64}},
	}
	for _, sh := range shapes {
		f := goldenSynth(b, sh.dims...)
		b.Run(sh.name, func(b *testing.B) {
			for _, p := range []int{8, 16} {
				c := MustNew(p).WithWorkers(1)
				enc, err := c.Compress(context.Background(), f)
				if err != nil {
					b.Fatal(err)
				}
				b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
					b.Run("compress", func(b *testing.B) {
						b.SetBytes(int64(8 * f.Len()))
						for i := 0; i < b.N; i++ {
							if _, err := c.Compress(context.Background(), f); err != nil {
								b.Fatal(err)
							}
						}
					})
					b.Run("decompress", func(b *testing.B) {
						b.SetBytes(int64(8 * f.Len()))
						for i := 0; i < b.N; i++ {
							if _, err := c.Decompress(context.Background(), enc); err != nil {
								b.Fatal(err)
							}
						}
					})
				})
			}
		})
	}
}
