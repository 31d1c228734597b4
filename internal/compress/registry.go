package compress

import (
	"context"
	"fmt"
	"sync"

	"lrm/internal/grid"
)

// Decoder decompresses one self-describing stream of a codec family at a
// decode-side worker budget. Streams carry their own configuration, so a
// single decoder per family suffices regardless of how the encoder was
// configured. workers <= 0 selects the codec's default pool size;
// implementations must return identical fields at every worker count (the
// same contract as Parallelizable on the compress side). ctx carries trace
// propagation exactly as in Codec.Decompress.
type Decoder func(ctx context.Context, b []byte, workers int) (*grid.Field, error)

var (
	registryMu sync.RWMutex
	decoders   = map[string]Decoder{}
)

// Register installs the decoder for a codec family (the part of a codec
// name before any '('). Codec packages call this from init, so importing a
// codec package is what makes its streams decodable. Registering a family
// twice panics: it would silently shadow a codec.
func Register(family string, d Decoder) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := decoders[family]; dup {
		panic(fmt.Sprintf("compress: decoder %q registered twice", family))
	}
	decoders[family] = d
}

// DecoderCtxForWorkers returns the decode function registered for a codec
// family, bound to the given worker budget. An unknown family wraps
// ErrCorrupt: the family name comes from an archive, so a name nothing
// registered is a damaged (or foreign) stream.
func DecoderCtxForWorkers(family string, workers int) (func(ctx context.Context, b []byte) (*grid.Field, error), error) {
	registryMu.RLock()
	d, ok := decoders[family]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("compress: no decoder registered for family %q: %w", family, ErrCorrupt)
	}
	return func(ctx context.Context, b []byte) (*grid.Field, error) { return d(ctx, b, workers) }, nil
}

// CodecFamily strips the parameterisation from a codec name:
// "zfp(p=16)" -> "zfp".
func CodecFamily(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '(' {
			return name[:i]
		}
	}
	return name
}

func init() {
	Register("flate", func(ctx context.Context, b []byte, _ int) (*grid.Field, error) {
		return NewFlate(6).Decompress(ctx, b)
	})
}
