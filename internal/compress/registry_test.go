package compress_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"lrm/internal/compress"
	"lrm/internal/compress/fpc"
	"lrm/internal/compress/sz"
	"lrm/internal/compress/zfp"
	"lrm/internal/grid"
)

// TestRegistry pins the single decoder registry: every built-in family
// decodes through DecoderCtxForWorkers, at any worker budget, into the
// same field as the codec's own Decompress; unknown families classify as
// corrupt; and a second registration of a family panics.
func TestRegistry(t *testing.T) {
	ctx := context.Background()
	// 64³ (2 MiB) clears the 512 KiB-per-shard cutover, so workers=8
	// really shards the zfp and sz decoders.
	f := grid.New(64, 64, 64)
	for i := range f.Data {
		f.Data[i] = math.Sin(float64(i)/97) + 0.25*math.Cos(float64(i)/13)
	}
	for _, c := range []compress.Codec{
		zfp.MustNew(16),
		sz.MustNew(sz.Abs, 1e-5),
		fpc.MustNew(16),
		compress.NewFlate(6),
	} {
		fam := compress.CodecFamily(c.Name())
		enc, err := c.Compress(ctx, f)
		if err != nil {
			t.Fatalf("%s: compress: %v", fam, err)
		}
		want, err := c.Decompress(ctx, enc)
		if err != nil {
			t.Fatalf("%s: decompress: %v", fam, err)
		}
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", fam, workers), func(t *testing.T) {
				dec, err := compress.DecoderCtxForWorkers(fam, workers)
				if err != nil {
					t.Fatal(err)
				}
				got, err := dec(ctx, enc)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Data) != len(want.Data) {
					t.Fatalf("decoded %d values, want %d", len(got.Data), len(want.Data))
				}
				for i := range want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("value %d = %v, codec Decompress gives %v", i, got.Data[i], want.Data[i])
					}
				}
			})
		}
	}

	t.Run("unknown family is corrupt", func(t *testing.T) {
		_, err := compress.DecoderCtxForWorkers("martian", 1)
		if !errors.Is(err, compress.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})

	t.Run("duplicate registration panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected duplicate-registration panic")
			}
		}()
		compress.Register("flate", nil)
	})

	if compress.CodecFamily("zfp(p=16)") != "zfp" || compress.CodecFamily("flate") != "flate" {
		t.Fatal("CodecFamily broken")
	}
}
