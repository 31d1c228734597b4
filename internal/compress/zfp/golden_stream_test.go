package zfp

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"lrm/internal/bitstream"
	"lrm/internal/compress"
	"lrm/internal/grid"
	"lrm/internal/parallel"
)

// The hashes below were captured from the pre-rewrite scalar kernels (the
// bit-by-bit encodePlane/decodePlane and the full transpose64 path), before
// the batch-of-64 rewrites landed. The rewritten kernels MUST reproduce
// these streams byte for byte at every worker count: the rewrite is a
// latency optimization with zero format budget.

// goldenSynth fills a field with the fixture waveform used to capture the
// golden hashes.
func goldenSynth(tb testing.TB, dims ...int) *grid.Field {
	tb.Helper()
	f := grid.New(dims...)
	for i := range f.Data {
		x := float64(i)
		f.Data[i] = math.Sin(x*0.017)*3.5 + math.Cos(x*0.0013)*11 + 0.25*math.Sin(x*0.41)
	}
	return f
}

func goldenHash(b []byte) string {
	s := sha256.Sum256(b)
	return fmt.Sprintf("%x", s[:8])
}

// fieldHash digests the IEEE-754 bits of every decoded sample, so a decoder
// change that moves even one low bit of one value changes the digest.
func fieldHash(f *grid.Field) string {
	b := make([]byte, 0, 8*f.Len())
	for _, v := range f.Data {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return goldenHash(b)
}

// goldenRow pins one (codec, field) cell: the compressed stream and the
// field decoded from it.
type goldenRow struct {
	stream, decoded string
}

var goldenFields = []struct {
	name string
	dims []int
}{
	{"1d-37", []int{37}},
	{"1d-4096", []int{4096}},
	{"2d-33x47", []int{33, 47}},
	{"2d-128x96", []int{128, 96}},
	{"3d-16", []int{16, 16, 16}},
	{"3d-31x17x9", []int{31, 17, 9}},
	{"3d-40x44x48", []int{40, 44, 48}},
}

var zfpGoldenStreams = map[[2]string]goldenRow{
	{"zfp-p8", "1d-37"}:       {"104964385a3c9147", "bfb9823e0f2970ba"},
	{"zfp-p8", "1d-4096"}:     {"c0fc8fec4a6c018d", "2e253e3bf53b6d7c"},
	{"zfp-p8", "2d-33x47"}:    {"f12c93a9e8358017", "d9e081a85370ff96"},
	{"zfp-p8", "2d-128x96"}:   {"1d300cad2e5a4161", "5d86079bad8a4da8"},
	{"zfp-p8", "3d-16"}:       {"db58a6a1294ab86d", "a1c9de5f4d30c668"},
	{"zfp-p8", "3d-31x17x9"}:  {"81f4c81897b40fa8", "ef2a564d94891e66"},
	{"zfp-p8", "3d-40x44x48"}: {"b3e4d7e337d3f1d4", "b433e13bb80ea6a8"},

	{"zfp-p16", "1d-37"}:       {"2cde9f085cf55124", "1341e17de9d160d3"},
	{"zfp-p16", "1d-4096"}:     {"da410b69e06f0a42", "7b240d32c82952e1"},
	{"zfp-p16", "2d-33x47"}:    {"d5d41e73bde5f02d", "da830a3d9f71478c"},
	{"zfp-p16", "2d-128x96"}:   {"05833ca1c99bdb69", "49af6327f797b487"},
	{"zfp-p16", "3d-16"}:       {"ef38a862a3bc6b8a", "6369dc758f208156"},
	{"zfp-p16", "3d-31x17x9"}:  {"d9ce57198ee9819d", "aea0463395054e68"},
	{"zfp-p16", "3d-40x44x48"}: {"e3aa206f20a45a8d", "31bf4d644bd90641"},

	{"zfp-p60", "1d-37"}:       {"ae2300fbf1c963e6", "14a3560a62463a40"},
	{"zfp-p60", "1d-4096"}:     {"843ef42ae9865fe9", "83f3171a787b7d2b"},
	{"zfp-p60", "2d-33x47"}:    {"4e3387f36bc6bdd6", "1b68f834df8c3f4e"},
	{"zfp-p60", "2d-128x96"}:   {"9b6ad88b993abedf", "db7475e69e0cf66d"},
	{"zfp-p60", "3d-16"}:       {"f708572c7abd231b", "222b2e25bd4bc65e"},
	{"zfp-p60", "3d-31x17x9"}:  {"e2c6b5b1ee5b3f33", "ffa371ae03169c21"},
	{"zfp-p60", "3d-40x44x48"}: {"ff37e35508e63d58", "6240379fcf9fadb7"},

	{"zfp-a1e-6", "1d-37"}:       {"9b52128a71081a42", "27601a57ed11f7c6"},
	{"zfp-a1e-6", "1d-4096"}:     {"269a7ab025b3320f", "a043dcffd8050793"},
	{"zfp-a1e-6", "2d-33x47"}:    {"4178162951d9f3ee", "0f43e5e64be8e9ea"},
	{"zfp-a1e-6", "2d-128x96"}:   {"d95e3bfee3258d9d", "cc782c3e52aa05b9"},
	{"zfp-a1e-6", "3d-16"}:       {"58757788e97b472b", "0594817ce5b0e86d"},
	{"zfp-a1e-6", "3d-31x17x9"}:  {"bde71e04e8684e97", "90bf2718a09c7cc4"},
	{"zfp-a1e-6", "3d-40x44x48"}: {"035231bbd0a46aec", "9800e37d81bb9dd0"},

	{"zfp-r7", "1d-37"}:       {"16035d4a30191763", "bfb9823e0f2970ba"},
	{"zfp-r7", "1d-4096"}:     {"801ce80a6426f8bb", "af2ea36d9441983e"},
	{"zfp-r7", "2d-33x47"}:    {"607d3f5941f91da7", "8482e15789d9ef44"},
	{"zfp-r7", "2d-128x96"}:   {"8a49d344ee27645f", "87acb7b86f190526"},
	{"zfp-r7", "3d-16"}:       {"659c28d6b29b2c45", "a07deeb3fdccaf21"},
	{"zfp-r7", "3d-31x17x9"}:  {"23bf1ca760c71c40", "299a26671592dddd"},
	{"zfp-r7", "3d-40x44x48"}: {"7662077a474930cc", "7c4833ae36591712"},
}

func zfpGoldenCodec(t *testing.T, name string) *Codec {
	t.Helper()
	switch name {
	case "zfp-p8":
		return MustNew(8)
	case "zfp-p16":
		return MustNew(16)
	case "zfp-p60":
		return MustNew(60)
	case "zfp-a1e-6":
		return MustNewAccuracy(1e-6)
	case "zfp-r7":
		return MustNewRate(7)
	}
	t.Fatalf("unknown codec fixture %q", name)
	return nil
}

// TestGoldenStreams locks the compressed output to the pre-rewrite scalar
// kernels, and the decoded field to the decoder that preceded the bit-sliced
// block decoder, at workers=1 and workers=8 (with the size cutover disabled
// so the 8-way path genuinely shards even the small fixtures).
func TestGoldenStreams(t *testing.T) {
	for key, want := range zfpGoldenStreams {
		cn, fn := key[0], key[1]
		var dims []int
		for _, gf := range goldenFields {
			if gf.name == fn {
				dims = gf.dims
			}
		}
		f := goldenSynth(t, dims...)
		base := zfpGoldenCodec(t, cn)
		for _, workers := range []int{1, 8} {
			c := base.WithParallel(parallel.Config{Workers: workers, MinShardBytes: -1})
			enc, err := c.Compress(context.Background(), f)
			if err != nil {
				t.Fatalf("%s/%s workers=%d: %v", cn, fn, workers, err)
			}
			if got := goldenHash(enc); got != want.stream {
				t.Errorf("%s/%s workers=%d: stream hash %s, want golden %s", cn, fn, workers, got, want.stream)
			}
			back, err := c.Decompress(context.Background(), enc)
			if err != nil {
				t.Fatalf("%s/%s workers=%d decode: %v", cn, fn, workers, err)
			}
			if back.Len() != f.Len() {
				t.Fatalf("%s/%s: round trip length %d != %d", cn, fn, back.Len(), f.Len())
			}
			if got := fieldHash(back); got != want.decoded {
				t.Errorf("%s/%s workers=%d: decoded field hash %s, want golden %s", cn, fn, workers, got, want.decoded)
			}
		}
	}
}

// --- scalar reference implementations (the pre-rewrite kernels) ---

// encodePlaneScalar is the original bit-by-bit plane encoder, kept verbatim
// as the reference the batch kernel is proved against.
func encodePlaneScalar(w *bitstream.Writer, x uint64, size, n int) int {
	if n > 0 {
		w.WriteBits(bits.Reverse64(x)>>(64-uint(n)), uint(n))
		x >>= uint(n)
	}
	acc, cnt := uint64(0), uint(0)
	for n < size {
		if x == 0 {
			acc, cnt = acc<<1, cnt+1
			break
		}
		acc, cnt = acc<<1|1, cnt+1
		if cnt == 64 {
			w.WriteBits(acc, 64)
			acc, cnt = 0, 0
		}
		for n < size-1 {
			bit := x & 1
			acc, cnt = acc<<1|bit, cnt+1
			if cnt == 64 {
				w.WriteBits(acc, 64)
				acc, cnt = 0, 0
			}
			if bit != 0 {
				break
			}
			x >>= 1
			n++
		}
		x >>= 1
		n++
	}
	if cnt > 0 {
		w.WriteBits(acc, cnt)
	}
	return n
}

// decodePlaneScalar is the original per-bit plane decoder.
func decodePlaneScalar(r *bitstream.Reader, size, n int) (uint64, int, error) {
	var x uint64
	if n > 0 {
		v, err := r.ReadBits(uint(n))
		if err != nil {
			return 0, 0, err
		}
		x = bits.Reverse64(v) >> (64 - uint(n))
	}
	for n < size {
		b, err := r.ReadBit()
		if err != nil {
			return 0, 0, err
		}
		if b == 0 {
			break
		}
		for n < size-1 {
			bb, err := r.ReadBit()
			if err != nil {
				return 0, 0, err
			}
			if bb != 0 {
				break
			}
			n++
		}
		x |= 1 << uint(n)
		n++
	}
	return x, n, nil
}

// encodePlanesScalar is the pre-bit-sliced block encoder: every plane is
// extracted from the coefficients bit by bit and coded by encodePlaneScalar.
func encodePlanesScalar(w *bitstream.Writer, nb []uint64, size, kmin int) {
	n := 0
	for k := intprec - 1; k >= kmin; k-- {
		var plane uint64
		for i := 0; i < size; i++ {
			plane |= (nb[i] >> uint(k) & 1) << uint(i)
		}
		n = encodePlaneScalar(w, plane, size, n)
	}
}

// decodeBlockScalar is the per-bit reference for decodeBlock: the block
// header through ReadBit/ReadBits, then one decodePlaneScalar call per plane
// and a scalar scatter of each plane's bits into the coefficients. It
// returns the same failure values as decodeBlock, so callers can compare
// error outcomes exactly.
func decodeBlockScalar(r *bitstream.Reader, nb []uint64, h *Codec) (int, error) {
	ne, err := r.ReadBit()
	if err != nil {
		return 0, errTruncBlock
	}
	if ne == 0 {
		return emptyEmax, nil
	}
	e, err := r.ReadBits(15)
	if err != nil {
		return 0, errTruncExponent
	}
	emax := int(e) - 16384
	kmin := kminFor(h.mode, h.precision, h.tolerance, emax)
	clear(nb)
	n := 0
	for k := intprec - 1; k >= kmin; k-- {
		var plane uint64
		plane, n, err = decodePlaneScalar(r, len(nb), n)
		if err != nil {
			return 0, errTruncPlane
		}
		for i := range nb {
			nb[i] |= (plane >> uint(i) & 1) << uint(k)
		}
	}
	return emax, nil
}

// randomBlock returns size negabinary coefficients shaped like a decorrelated
// block: magnitudes spread over the whole word range, sparse and dense bit
// patterns mixed, and now and then an all-zero coefficient.
func randomBlock(rng *rand.Rand, size int) []uint64 {
	nb := make([]uint64, size)
	for i := range nb {
		switch rng.Intn(4) {
		case 0:
			nb[i] = rng.Uint64() >> uint(rng.Intn(64))
		case 1:
			nb[i] = (rng.Uint64() & rng.Uint64() & rng.Uint64()) >> uint(rng.Intn(8))
		case 2:
			nb[i] = rng.Uint64()
		}
	}
	return nb
}

// blockStream writes lead empty blocks and then one non-empty block —
// marker, exponent emax and the planes down to kmin — with the scalar
// reference encoder. Leads 0..7 move the block's end through every bit
// offset of its last byte, so byte-granular cuts truncate it at every
// residue.
func blockStream(nb []uint64, lead, emax, kmin int) []byte {
	var w bitstream.Writer
	w.WriteBits(0, uint(lead))
	w.WriteBits(1<<15|uint64(emax+16384), 16)
	encodePlanesScalar(&w, nb, len(nb), kmin)
	return w.Bytes()
}

// blockModes are the stream parameter sets the block differentials run
// under: precision 16, 8 and 60 fix kmin at 48, 56 and 4; accuracy mode
// moves it with the block exponent.
var blockModes = []*Codec{MustNew(16), MustNew(8), MustNew(60), MustNewAccuracy(1e-9)}

// TestEncodePlaneMatchesScalar drives random blocks of every size through
// the bit-sliced encoder and the per-plane scalar reference and requires
// bit-identical streams.
func TestEncodePlaneMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, size := range []int{4, 16, 64} {
		for trial := 0; trial < 400; trial++ {
			nb := randomBlock(rng, size)
			kmin := intprec - rng.Intn(MaxPrecision+1) // 4..64
			var fast, slow bitstream.Writer
			encodePlanes(&fast, append([]uint64(nil), nb...), size, kmin)
			encodePlanesScalar(&slow, nb, size, kmin)
			if fast.Len() != slow.Len() || string(fast.Bytes()) != string(slow.Bytes()) {
				t.Fatalf("size=%d trial=%d kmin=%d: stream mismatch\nbatch:  %x\nscalar: %x",
					size, trial, kmin, fast.Bytes(), slow.Bytes())
			}
		}
	}
}

// checkBlockDecode decodes buf as a sequence of blocks with decodeBlock and
// with the per-bit reference, requiring the same coefficients, exponents,
// bit positions and failure values, until both fail or maxBlocks pass. It
// returns the number of blocks decoded.
func checkBlockDecode(t *testing.T, payload []byte, size int, h *Codec, maxBlocks int, label string) int {
	t.Helper()
	r := bitstream.NewReader(payload)
	buf := padded(payload)
	got := make([]uint64, size)
	want := make([]uint64, size)
	pos := 0
	for b := 0; b < maxBlocks; b++ {
		emax, next, err := decodeBlock(buf, pos, got, h)
		wantEmax, wantErr := decodeBlockScalar(r, want, h)
		if err != wantErr {
			t.Fatalf("%s block %d: error %v, reference %v", label, b, err, wantErr)
		}
		if err != nil {
			return b
		}
		if emax != wantEmax || next != r.Pos() {
			t.Fatalf("%s block %d: (emax %d, pos %d), reference (%d, %d)", label, b, emax, next, wantEmax, r.Pos())
		}
		if emax != emptyEmax {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s block %d: coeff %d = %#x, reference %#x", label, b, i, got[i], want[i])
				}
			}
		}
		pos = next
	}
	return maxBlocks
}

// TestDecodePlaneMatchesScalar decodes scalar-encoded block streams with the
// block decoder and the per-bit reference, in full and cut to every byte
// prefix, asserting identical coefficients, positions and error outcomes.
func TestDecodePlaneMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, size := range []int{4, 16, 64} {
		for _, h := range blockModes {
			for trial := 0; trial < 60; trial++ {
				// Two blocks back to back, so the second starts mid-byte.
				var w bitstream.Writer
				var want [][]uint64
				for b := 0; b < 2; b++ {
					nb := randomBlock(rng, size)
					emax := rng.Intn(40) - 20
					kmin := kminFor(h.mode, h.precision, h.tolerance, emax)
					w.WriteBits(1<<15|uint64(emax+16384), 16)
					encodePlanesScalar(&w, nb, size, kmin)
					want = append(want, maskBelow(nb, kmin))
				}
				buf := w.Bytes()
				label := fmt.Sprintf("size=%d %s trial=%d", size, h.Name(), trial)
				if n := checkBlockDecode(t, buf, size, h, 2, label); n != 2 {
					t.Fatalf("%s: full stream decoded only %d blocks", label, n)
				}
				got := make([]uint64, size)
				_, next, _ := decodeBlock(padded(buf), 0, got, h)
				for i := range got {
					if got[i] != want[0][i] {
						t.Fatalf("%s: coeff %d = %#x, encoded %#x", label, i, got[i], want[0][i])
					}
				}
				if _, _, err := decodeBlock(padded(buf), next, got, h); err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i] != want[1][i] {
						t.Fatalf("%s: second block coeff %d = %#x, encoded %#x", label, i, got[i], want[1][i])
					}
				}
				for cut := 0; cut < len(buf); cut++ {
					checkBlockDecode(t, buf[:cut], size, h, 2, fmt.Sprintf("%s cut=%d", label, cut))
				}
			}
		}
	}
}

// padded returns b followed by the windowPad zero bytes decodeBlock expects.
func padded(b []byte) []byte {
	return append(append([]byte(nil), b...), make([]byte, windowPad)...)
}

// maskBelow returns nb with every plane below kmin cleared — what the
// decoder reconstructs from planes kmin and above.
func maskBelow(nb []uint64, kmin int) []uint64 {
	mask := ^uint64(0) << uint(kmin)
	if kmin >= 64 {
		mask = 0
	}
	out := make([]uint64, len(nb))
	for i, u := range nb {
		out[i] = u & mask
	}
	return out
}

// TestTransposeTopMatchesFull verifies the prefix-limited butterfly against
// the full anti-transpose for every prefix length.
func TestTransposeTopMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		var src [64]uint64
		for i := range src {
			src[i] = rng.Uint64()
		}
		full := src
		transpose64(&full)
		for rows := 0; rows <= 64; rows++ {
			top := src
			transposeTop(&top, rows)
			for i := 0; i < rows; i++ {
				if top[i] != full[i] {
					t.Fatalf("trial=%d rows=%d: word %d = %#x, want %#x", trial, rows, i, top[i], full[i])
				}
			}
		}
		// transposeFrom16 is the full transpose of a matrix whose words
		// [16, 64) are zero; it must not read them.
		low := src
		for i := 16; i < 64; i++ {
			low[i] = 0
		}
		want := low
		transpose64(&want)
		from := src // garbage above word 16 must be ignored
		transposeFrom16(&from)
		if from != want {
			t.Fatalf("trial=%d: transposeFrom16 differs from the full transpose", trial)
		}
	}
}

// TestEncodePlanesMatchesScalarPath cross-checks the bit-sliced block coder
// at every block size (4, 16 and 64 values) against the scalar per-plane
// references: the encoder against encodePlaneScalar's stream, the block
// decoder against decodePlaneScalar's coefficients, and every truncated
// prefix of each block stream must fail in the block decoder exactly when
// it fails in the reference.
func TestEncodePlanesMatchesScalarPath(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, size := range []int{4, 16, 64} {
		for trial := 0; trial < 100; trial++ {
			nb := make([]uint64, size)
			for i := range nb {
				nb[i] = rng.Uint64() >> uint(rng.Intn(60))
			}
			for _, kmin := range []int{4, 16, 32, 48, 60, 63, 64} {
				var fast, slow bitstream.Writer
				// encodePlanes consumes its scratch (in-place transpose), so
				// feed it a copy and keep nb for the scalar reference.
				encodePlanes(&fast, append([]uint64(nil), nb...), size, kmin)
				encodePlanesScalar(&slow, nb, size, kmin)
				if fast.Len() != slow.Len() || string(fast.Bytes()) != string(slow.Bytes()) {
					t.Fatalf("size=%d trial=%d kmin=%d: bit-sliced stream != scalar slicing stream", size, trial, kmin)
				}

				// A precision-mode header whose kmin is the one under test
				// (precision 0, for kmin 64, is only reachable this way).
				h := &Codec{mode: modePrecision, precision: uint(intprec - kmin)}
				lead := trial % 8
				buf := blockStream(nb, lead, 0, kmin)
				label := fmt.Sprintf("size=%d trial=%d kmin=%d", size, trial, kmin)
				got := make([]uint64, size)
				if _, _, err := decodeBlock(padded(buf), lead, got, h); err != nil {
					t.Fatalf("%s: decodeBlock: %v", label, err)
				}
				want := maskBelow(nb, kmin)
				for i := range nb {
					if got[i] != want[i] {
						t.Fatalf("%s: coeff %d = %#x, want %#x", label, i, got[i], want[i])
					}
				}
				for cut := 0; cut <= len(buf); cut++ {
					checkBlockDecode(t, buf[:cut], size, h, lead+1, fmt.Sprintf("%s cut=%d", label, cut))
				}
			}
		}
	}
}

// TestCompressMatchesAcrossWorkerCounts asserts stream identity over random
// fields for a spread of worker counts, with the cutover both on and off.
func TestCompressMatchesAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	f := grid.New(24, 20, 28)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64())
	}
	for _, c := range []*Codec{MustNew(16), MustNewAccuracy(1e-7), MustNewRate(9)} {
		serial, err := c.WithWorkers(1).Compress(context.Background(), f)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			for _, minShard := range []int64{0, -1, 1 << 30} {
				cc := c.WithParallel(parallel.Config{Workers: workers, MinShardBytes: minShard})
				enc, err := cc.Compress(context.Background(), f)
				if err != nil {
					t.Fatal(err)
				}
				if string(enc) != string(serial) {
					t.Fatalf("%s workers=%d minShard=%d: stream differs from serial", c.Name(), workers, minShard)
				}
				back, err := cc.Decompress(context.Background(), enc)
				if err != nil {
					t.Fatal(err)
				}
				if back.Len() != f.Len() {
					t.Fatal("round trip length mismatch")
				}
			}
		}
	}
}

var _ compress.ParallelTunable = (*Codec)(nil)
