package main

import (
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"lrm/internal/compress"
	"lrm/internal/compress/zfp"
	"lrm/internal/core"
	"lrm/internal/dataset"
	"lrm/internal/grid"
	"lrm/internal/parallel"
	"lrm/internal/reduce"
)

// digestSeed keys every digest the benchmark compares; expected and
// observed digests are always taken in the same process.
var digestSeed = maphash.MakeSeed()

func digest(b []byte) uint64 { return maphash.Bytes(digestSeed, b) }

// libraryDatasets are the paper's Fig. 3/6 inputs the library workloads
// run on: Heat3d (64³) and Laplace (256²) at dataset.Large.
var libraryDatasets = []string{"Heat3d", "Laplace"}

// setupLibrary generates the library workloads' fields. Generation runs
// five times and setup_s is the median, so a slow repetition does not
// move it; dataset.generate_s is the same number, the only set-up work.
func setupLibrary(out *outcome) (map[string]*grid.Field, error) {
	var fields map[string]*grid.Field
	var times []float64
	for rep := 0; rep < 5; rep++ {
		t := time.Now()
		fs := map[string]*grid.Field{}
		for _, name := range libraryDatasets {
			p, err := dataset.Generate(name, dataset.Large)
			if err != nil {
				return nil, fmt.Errorf("generate %s: %w", name, err)
			}
			fs[name] = p.Full
		}
		times = append(times, time.Since(t).Seconds())
		fields = fs
	}
	out.values["setup_s"] = median(times)
	out.values["dataset.generate_s"] = median(times)
	out.details["setup_s"] = map[string]any{"repetitions": times}
	return fields, nil
}

// bind returns the codec as core binds it for a parallel.Config, so a
// replayed codec call runs the same kernel configuration as the call made
// inside core.
func bind(c compress.Codec, workers int) compress.Codec {
	cfg := parallel.Config{Workers: workers}
	if p, ok := c.(compress.ParallelTunable); ok {
		return p.WithParallel(cfg)
	}
	if p, ok := c.(compress.Parallelizable); ok {
		return p.WithWorkers(workers)
	}
	return c
}

// cell is one configuration of the pipeline on one field.
type cell struct {
	dataset string
	field   *grid.Field
	label   string // candidate label from core.DefaultCandidates
	model   reduce.Model
	family  string
	data    compress.Codec
	delta   compress.Codec
	workers int

	// Reference, taken on the cell's first check.
	refDone    bool
	refArchive uint64
	bound      float64 // NaN when the codec has none (see errorBound)
}

func (c *cell) name() string { return c.dataset + "/" + c.family + "/" + c.label }

func (c *cell) opts() core.Options {
	return core.Options{Model: c.model, DataCodec: c.data, DeltaCodec: c.delta,
		Parallel: parallel.Config{Workers: c.workers}}
}

// modelKey is the metric-name form of a candidate label: "one-base" →
// "onebase".
func modelKey(label string) string { return strings.ReplaceAll(label, "-", "") }

func newCell(ds string, f *grid.Field, cand core.Candidate, family string, workers int) (*cell, error) {
	data, delta, err := core.PaperCodecs(family)
	if err != nil {
		return nil, err
	}
	return &cell{dataset: ds, field: f, label: cand.Label, model: cand.Model, family: family,
		data: data, delta: delta, workers: workers, bound: math.NaN()}, nil
}

// precondCells is the precond op set: both datasets × every default
// candidate except SVD × the paper's zfp and sz configurations.
func precondCells(fields map[string]*grid.Field, workers int) ([]*cell, error) {
	var cells []*cell
	for _, ds := range libraryDatasets {
		for _, fam := range []string{"zfp", "sz"} {
			for _, cand := range core.DefaultCandidates() {
				if cand.Label == "svd" {
					continue
				}
				c, err := newCell(ds, fields[ds], cand, fam, workers)
				if err != nil {
					return nil, err
				}
				cells = append(cells, c)
			}
		}
	}
	return cells, nil
}

// verdict is the outcome of checking one decoded output against its input.
type verdict struct {
	ok     bool
	why    string
	relErr float64
}

// verify checks dims, finiteness, the error bound (bit-exactness when
// the codec is lossless) and returns max|x − x′| / value range of x.
func verify(orig, got *grid.Field, bound float64, lossless bool) verdict {
	if got == nil || len(got.Dims) != len(orig.Dims) {
		return verdict{why: "wrong rank"}
	}
	for i := range orig.Dims {
		if got.Dims[i] != orig.Dims[i] {
			return verdict{why: fmt.Sprintf("dims %v, want %v", got.Dims, orig.Dims)}
		}
	}
	var maxErr, maxAbs float64
	for i, v := range orig.Data {
		w := got.Data[i]
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return verdict{why: fmt.Sprintf("non-finite output at %d", i)}
		}
		if lossless && math.Float64bits(v) != math.Float64bits(w) {
			return verdict{why: fmt.Sprintf("lossless output differs at %d", i)}
		}
		maxErr = max(maxErr, math.Abs(v-w))
		maxAbs = max(maxAbs, math.Abs(v))
	}
	// The pipeline's subtraction and re-addition are each exactly rounded,
	// so a recomposed value may sit a few ulps of the field's magnitude past
	// the codec's bound without any stage being wrong.
	if !math.IsNaN(bound) && maxErr > bound+4*(maxAbs+bound)*0x1p-52 {
		return verdict{why: fmt.Sprintf("max error %g exceeds declared bound %g", maxErr, bound)}
	}
	lo, hi := orig.MinMax()
	rng := hi - lo
	if rng == 0 {
		rng = 1
	}
	return verdict{ok: true, relErr: maxErr / rng}
}

// errorBound is the bound a decoded output is checked against: the bound
// the codec declares through compress.ErrorBounded, 0 for lossless codecs,
// NaN when there is none. zfp in precision mode declares none, because its
// error scales with each block's largest magnitude 2^e: dropping the
// planes below the top p leaves an error of about 2^(e+8−p). The zfp
// package's own tests allow that much on O(1) data; one crop of the
// service pool exceeds it by 8%. The check allows one bit more,
// 2^(e+9−p), with the field's largest magnitude standing in for every
// block's; zfp.max_rel_err reports the error itself.
func errorBound(c compress.Codec, f *grid.Field) float64 {
	if c.Lossless() {
		return 0
	}
	if eb, ok := c.(compress.ErrorBounded); ok {
		if b, ok := eb.AbsErrorBound(f); ok {
			return b
		}
	}
	if z, ok := c.(*zfp.Codec); ok && z.Precision() > 0 {
		var m float64
		for _, v := range f.Data {
			m = max(m, math.Abs(v))
		}
		_, e := math.Frexp(m)
		return math.Ldexp(1, e+9-z.Precision())
	}
	return math.NaN()
}

// reference computes the cell's end-to-end bound: the data codec
// on the field for direct compression; for a reduced model, the delta
// codec on the delta, since decompression rebuilds the same stored
// reconstruction and adds the decoded delta.
func (c *cell) reference(archive []byte) error {
	c.refDone = true
	c.refArchive = digest(archive)
	if c.model == nil {
		c.bound = errorBound(c.data, c.field)
		return nil
	}
	rp, err := replayCompress(nil, c, 0, -1)
	if err != nil {
		return err
	}
	deltaCodec := c.delta
	if deltaCodec == nil {
		deltaCodec = c.data
	}
	c.bound = errorBound(deltaCodec, rp.delta)
	return nil
}

// check verifies one compress/decompress round trip of the cell: the
// archive must be byte-identical to the cell's first one, and the decoded
// field must pass verify.
func (c *cell) check(archive []byte, got *grid.Field) verdict {
	if !c.refDone {
		if err := c.reference(archive); err != nil {
			return verdict{why: "reference: " + err.Error()}
		}
	} else if digest(archive) != c.refArchive {
		return verdict{why: "archive differs from the cell's first archive"}
	}
	return verify(c.field, got, c.bound, c.data.Lossless() && (c.delta == nil || c.delta.Lossless()))
}

// replay is the benchmark's decomposition of one core.Compress: the same
// public calls core makes, in the same order, each in its own span.
type replay struct {
	repValStream, deltaStream, metaStream []byte
	rep                                   *reduce.Rep
	delta                                 *grid.Field
	layerNs                               int64 // reduce, codec, reconstruct and delta calls: core's children
	deltaNs                               int64 // delta subtraction + delta compression (core's core.delta stage)
	repBytes                              int
	direct                                []byte
}

// timed runs fn inside a span and returns its duration.
func timed(rec *recorder, name string, op int64, parent int, in int64, fn func() (int64, error)) (int64, error) {
	s := rec.begin(name, op, parent)
	t := time.Now()
	outBytes, err := fn()
	d := time.Since(t).Nanoseconds()
	rec.end(s, in, outBytes)
	return d, err
}

// replayCompress decomposes core.Compress for the cell. Spans named core.*
// are work core does itself through a public call (rep verify, meta
// flate); everything else is a child layer of core.
func replayCompress(rec *recorder, c *cell, op int64, parent int) (*replay, error) {
	ctx := context.Background()
	data := bind(c.data, c.workers)
	delta := c.delta
	if delta == nil {
		delta = c.data
	}
	delta = bind(delta, c.workers)
	f := c.field
	fb := int64(8 * f.Len())
	rp := &replay{}
	if c.model == nil {
		d, err := timed(rec, c.family+".compress", op, parent, fb, func() (int64, error) {
			s, err := compress.CompressCtx(ctx, data, f)
			rp.direct = s
			return int64(len(s)), err
		})
		rp.layerNs += d
		return rp, err
	}
	d, err := timed(rec, "reduce."+modelKey(c.label)+".fit", op, parent, fb, func() (int64, error) {
		r, err := c.model.Reduce(f)
		rp.rep = r
		if err != nil {
			return 0, err
		}
		return int64(r.SizeBytes()), nil
	})
	rp.layerNs += d
	if err != nil {
		return nil, err
	}
	stored := *rp.rep
	if len(rp.rep.Values) > 0 {
		vf, err := grid.FromData(rp.rep.Values, len(rp.rep.Values))
		if err != nil {
			return nil, err
		}
		d, err := timed(rec, c.family+".compress", op, parent, int64(8*vf.Len()), func() (int64, error) {
			s, err := compress.CompressCtx(ctx, data, vf)
			rp.repValStream = s
			return int64(len(s)), err
		})
		rp.layerNs += d
		if err != nil {
			return nil, err
		}
		_, err = timed(rec, "core.rep_verify", op, parent, int64(len(rp.repValStream)), func() (int64, error) {
			back, err := compress.DecompressCtx(ctx, data, rp.repValStream)
			if err != nil {
				return 0, err
			}
			stored.Values = back.Data
			return int64(8 * back.Len()), nil
		})
		if err != nil {
			return nil, err
		}
	}
	var recon *grid.Field
	d, err = timed(rec, "reduce.reconstruct", op, parent, int64(stored.SizeBytes()), func() (int64, error) {
		r, err := reduce.Reconstruct(&stored)
		recon = r
		return fb, err
	})
	rp.layerNs += d
	if err != nil {
		return nil, err
	}
	d, err = timed(rec, "grid.sub", op, parent, 2*fb, func() (int64, error) {
		df, err := f.Sub(recon)
		rp.delta = df
		return fb, err
	})
	rp.layerNs += d
	rp.deltaNs += d
	if err != nil {
		return nil, err
	}
	d, err = timed(rec, compress.CodecFamily(delta.Name())+".compress", op, parent, fb, func() (int64, error) {
		s, err := compress.CompressCtx(ctx, delta, rp.delta)
		rp.deltaStream = s
		return int64(len(s)), err
	})
	rp.layerNs += d
	rp.deltaNs += d
	if err != nil {
		return nil, err
	}
	_, err = timed(rec, "core.meta_flate", op, parent, int64(len(rp.rep.Meta)), func() (int64, error) {
		s, err := compress.FlateBytes(rp.rep.Meta, 6)
		rp.metaStream = s
		return int64(len(s)), err
	})
	rp.repBytes = len(rp.metaStream) + len(rp.repValStream)
	return rp, err
}

// reconcile compares the replay's stream sizes with core's result. A
// mismatch means the decomposition describes a different program.
func (rp *replay) reconcile(res *core.Result) error {
	if rp.rep == nil {
		return nil
	}
	if len(rp.repValStream) != res.RepValueBytes || len(rp.deltaStream) != res.DeltaBytes || len(rp.metaStream) != res.RepMetaBytes {
		return fmt.Errorf("replay sizes rep=%d delta=%d meta=%d, core rep=%d delta=%d meta=%d",
			len(rp.repValStream), len(rp.deltaStream), len(rp.metaStream), res.RepValueBytes, res.DeltaBytes, res.RepMetaBytes)
	}
	return nil
}

// replayDecompress decomposes core.Decompress of the replayed streams
// through the registry decoders core uses, and returns the layer time.
func replayDecompress(rec *recorder, c *cell, rp *replay, op int64, parent int) (int64, error) {
	ctx := context.Background()
	fb := int64(8 * c.field.Len())
	dec := func(family string) (func(context.Context, []byte) (*grid.Field, error), error) {
		return compress.DecoderCtxForWorkers(family, c.workers)
	}
	dataDec, err := dec(c.family)
	if err != nil {
		return 0, err
	}
	if rp.rep == nil {
		return timed(rec, c.family+".decompress", op, parent, int64(len(rp.direct)), func() (int64, error) {
			_, err := dataDec(ctx, rp.direct)
			return fb, err
		})
	}
	var layer int64
	if _, err := timed(rec, "core.meta_inflate", op, parent, int64(len(rp.metaStream)), func() (int64, error) {
		m, err := compress.InflateBytes(rp.metaStream)
		return int64(len(m)), err
	}); err != nil {
		return 0, err
	}
	stored := *rp.rep
	if len(rp.repValStream) > 0 {
		d, err := timed(rec, c.family+".decompress", op, parent, int64(len(rp.repValStream)), func() (int64, error) {
			vf, err := dataDec(ctx, rp.repValStream)
			if err != nil {
				return 0, err
			}
			stored.Values = vf.Data
			return int64(8 * vf.Len()), nil
		})
		layer += d
		if err != nil {
			return 0, err
		}
	}
	var recon, delta *grid.Field
	d, err := timed(rec, "reduce.reconstruct", op, parent, int64(stored.SizeBytes()), func() (int64, error) {
		r, err := reduce.Reconstruct(&stored)
		recon = r
		return fb, err
	})
	layer += d
	if err != nil {
		return 0, err
	}
	deltaFam := compress.CodecFamily(c.delta.Name())
	deltaDec, err := dec(deltaFam)
	if err != nil {
		return 0, err
	}
	d, err = timed(rec, deltaFam+".decompress", op, parent, int64(len(rp.deltaStream)), func() (int64, error) {
		df, err := deltaDec(ctx, rp.deltaStream)
		delta = df
		return fb, err
	})
	layer += d
	if err != nil {
		return 0, err
	}
	d, err = timed(rec, "grid.add", op, parent, 2*fb, func() (int64, error) {
		return fb, recon.AddInPlace(delta)
	})
	return layer + d, err
}

// libAccum gathers the end-to-end numbers of a library workload.
type libAccum struct {
	compMBs, decMBs, selectS []float64 // one value per pass
	// model-select's winner decodes, ns per decode for the whole run and
	// field bytes per decode, by pair.
	decSamples           map[string][]float64
	decBytes             map[string]int64
	opMs                 []float64 // one value per op
	movedBytes           int64
	opNs                 int64
	origBytes, archBytes int64 // over the first pass's archives
	maxRelErr            float64
	familyRelErr         map[string]float64 // max_rel_err by codec family
	peakRSS              []float64          // MB, one per pass
	rssReset             bool
	failures             map[string]int
}

func (a *libAccum) fail(what string) {
	if a.failures == nil {
		a.failures = map[string]int{}
	}
	if a.failures[what] == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", what)
	}
	a.failures[what]++
}

func (a *libAccum) relErr(family string, e float64) {
	a.maxRelErr = max(a.maxRelErr, e)
	if a.familyRelErr == nil {
		a.familyRelErr = map[string]float64{}
	}
	a.familyRelErr[family] = max(a.familyRelErr[family], e)
}

// clock decides how many passes a library workload runs: passes continue
// until the program's own calls have taken --seconds, so the reference
// work of a first pass (and the checks) does not shorten the measurement.
// A traced run counts wall time instead, since its replays double the
// work per pass.
type clock struct {
	o        options
	start    time.Time
	measured float64 // ms
	passes   int
}

func newClock(o options) *clock { return &clock{o: o, start: time.Now()} }

func (c *clock) add(ms float64) { c.measured += ms; c.passes++ }

func (c *clock) more() bool {
	if c.passes == 0 {
		return true
	}
	if c.o.traced {
		return time.Since(c.start).Seconds() < c.o.seconds
	}
	return c.measured < 1000*c.o.seconds
}

func (a *libAccum) finish(out *outcome) {
	out.values["compress_mb_s"] = median(a.compMBs)
	out.values["decompress_mb_s"] = median(a.decMBs)
	if len(a.decSamples) > 0 {
		// Pooled over the run: Σ field MB / Σ each pair's median decode.
		var b, ns float64
		counts := map[string]int{}
		for k, xs := range a.decSamples {
			b += float64(a.decBytes[k])
			ns += median(xs)
			counts[k] = len(xs)
		}
		out.values["decompress_mb_s"] = b / 1e6 / (ns / 1e9)
		out.details["decompress_samples"] = counts
	}
	out.values["select_s"] = median(a.selectS)
	latencySummary(out, "serve_p50_ms", "serve_p99_ms", a.opMs)
	out.values["serve_mb_s"] = float64(a.movedBytes) / 1e6 / (float64(a.opNs) / 1e9)
	out.values["ratio"] = float64(a.origBytes) / float64(a.archBytes)
	out.values["max_rel_err"] = a.maxRelErr
	// Per family, so that a change in one codec's accuracy moves a
	// deterministic number even when the other family's error is larger.
	out.values["zfp.max_rel_err"] = a.familyRelErr["zfp"]
	out.values["sz.max_rel_err"] = a.familyRelErr["sz"]
	// Each pass restarts the peak resident set; the median pass peak is
	// steadier than one peak over the whole phase, which depends on where
	// a collection happened to fall.
	out.values["peak_rss_mb"] = median(a.peakRSS)
	out.details["peak_rss_reset"] = a.rssReset
	out.details["passes"] = len(a.compMBs)
	out.details["pass_compress_mb_s"] = a.compMBs
	out.details["pass_decompress_mb_s"] = a.decMBs
	out.details["failures"] = a.failures
}

// runPrecond is the precond workload: every cell compressed, decompressed
// and checked, with the workers set explicitly to GOMAXPROCS and
// observability off.
func runPrecond(o options) (*outcome, error) {
	out := newOutcome()
	fields, err := setupLibrary(out)
	if err != nil {
		return nil, err
	}
	cells, err := precondCells(fields, o.workers)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	acc := &libAccum{}
	var rec *recorder
	var tr *tracedLib
	if o.traced {
		// Untraced passes first: their real-call time is the reference the
		// traced passes' overhead is measured against.
		tr = &tracedLib{}
		for i := 0; i < 2; i++ {
			tr.untracedMs = append(tr.untracedMs, precondPass(cells, rng, nil, nil, out, &libAccum{}))
		}
		rec = newRecorder()
	}
	runtime.GC()
	for c := newClock(o); c.more(); {
		acc.rssReset = resetPeakRSS("self")
		realMs := precondPass(cells, rng, rec, tr, out, acc)
		acc.peakRSS = append(acc.peakRSS, peakRSSMB("self"))
		c.add(realMs)
		if tr != nil {
			tr.tracedMs = append(tr.tracedMs, realMs)
		}
	}
	acc.finish(out)
	if o.traced {
		if err := tracedLibraryLayers(o, out, rec, tr, fields, cells); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tracedLib carries the traced run's per-op decompositions.
type tracedLib struct {
	untracedMs, tracedMs []float64 // real-call ms per pass
	coreSelfMs           []float64
	deltaMs              []float64
	repBytes             []float64
	chunkedSelfMs        []float64
	reconcileErrs        []string
	opSeq                int64
}

// precondPass runs every cell once in a seeded order and returns the
// summed time of the real core calls in ms. With a recorder it also
// replays each op layer by layer.
func precondPass(cells []*cell, rng *rand.Rand, rec *recorder, tr *tracedLib, out *outcome, acc *libAccum) float64 {
	var cBytes, cNs, dBytes, dNs int64
	first := len(acc.compMBs) == 0
	for _, i := range rng.Perm(len(cells)) {
		c := cells[i]
		var op int64
		if tr != nil {
			tr.opSeq++
			op = tr.opSeq
		}
		fb := int64(8 * c.field.Len())
		root := rec.begin("op", op, -1)
		out.attempted++
		s := rec.begin("core.compress", op, root)
		t0 := time.Now()
		res, err := core.Compress(c.field, c.opts())
		t1 := time.Now()
		if err != nil {
			rec.end(s, fb, 0)
			rec.end(root, 0, 0)
			out.failed++
			acc.fail("compress: " + err.Error())
			acc.opMs = append(acc.opMs, math.Inf(1))
			continue
		}
		rec.end(s, fb, int64(len(res.Archive)))
		s = rec.begin("core.decompress", op, root)
		t2 := time.Now()
		got, err := core.DecompressWithOpts(res.Archive, core.DecompressOpts{Parallel: parallel.Config{Workers: c.workers}})
		t3 := time.Now()
		rec.end(s, int64(len(res.Archive)), fb)
		cNs += t1.Sub(t0).Nanoseconds()
		dNs += t3.Sub(t2).Nanoseconds()
		cBytes += fb
		dBytes += fb
		opNs := t1.Sub(t0).Nanoseconds() + t3.Sub(t2).Nanoseconds()
		if rec != nil {
			tracedReplay(rec, tr, c, res, op, root, t1.Sub(t0).Nanoseconds(), t3.Sub(t2).Nanoseconds())
		}
		chk := rec.begin("bench.check", op, root)
		var v verdict
		if err != nil {
			v = verdict{why: "decompress: " + err.Error()}
		} else {
			v = c.check(res.Archive, got)
		}
		rec.end(chk, 0, 0)
		rec.end(root, 0, 0)
		if !v.ok {
			out.failed++
			acc.fail(c.name() + ": " + v.why)
			acc.opMs = append(acc.opMs, math.Inf(1))
			continue
		}
		acc.opMs = append(acc.opMs, float64(opNs)/1e6)
		acc.opNs += opNs
		acc.movedBytes += 2 * fb
		acc.relErr(c.family, v.relErr)
		if first {
			acc.origBytes += int64(res.OriginalBytes)
			acc.archBytes += int64(len(res.Archive))
		}
	}
	acc.compMBs = append(acc.compMBs, float64(cBytes)/1e6/(float64(cNs)/1e9))
	acc.decMBs = append(acc.decMBs, float64(dBytes)/1e6/(float64(dNs)/1e9))
	// Choosing a model for each (dataset, codec) means compressing with
	// every candidate and comparing ratios: the compress side of a pass is
	// one selection over the non-SVD candidates.
	acc.selectS = append(acc.selectS, float64(cNs)/1e9)
	return float64(cNs+dNs) / 1e6
}

// tracedReplay decomposes one op of a traced pass and records core's self
// time, the delta stage and the stream-size reconciliation.
func tracedReplay(rec *recorder, tr *tracedLib, c *cell, res *core.Result, op int64, root int, compNs, decNs int64) {
	rc := rec.begin("replay.compress", op, root)
	rp, err := replayCompress(rec, c, op, rc)
	rec.end(rc, 0, 0)
	if err != nil {
		tr.reconcileErrs = append(tr.reconcileErrs, c.name()+": replay: "+err.Error())
		return
	}
	if err := rp.reconcile(res); err != nil {
		tr.reconcileErrs = append(tr.reconcileErrs, c.name()+": "+err.Error())
	}
	rd := rec.begin("replay.decompress", op, root)
	decLayer, err := replayDecompress(rec, c, rp, op, rd)
	rec.end(rd, 0, 0)
	if err != nil {
		tr.reconcileErrs = append(tr.reconcileErrs, c.name()+": replay decompress: "+err.Error())
		return
	}
	tr.coreSelfMs = append(tr.coreSelfMs, float64(compNs-rp.layerNs+decNs-decLayer)/1e6)
	if c.model != nil {
		tr.deltaMs = append(tr.deltaMs, float64(rp.deltaNs)/1e6)
		tr.repBytes = append(tr.repBytes, float64(rp.repBytes))
	}
}

// msPairs are model-select's (dataset, codec) pairs, as lrmpack
// -select runs them.
var msPairs = []struct{ dataset, family string }{{"Heat3d", "zfp"}, {"Laplace", "sz"}}

// winnerDecodeTime is how long each pass decodes each winner's archive,
// over and over. A decode takes a few to a few tens of milliseconds, and
// a small shared host's speed swings by tens of percent from one second
// to the next, so a fixed handful of decodes samples the host more than
// the decoder. decompress_mb_s is taken from each pair's median decode
// over the whole run.
const winnerDecodeTime = time.Second

// winnerWarmup decodes precede the timed ones in each pass, so that the
// heap already holds the decoder's buffers when timing starts.
const winnerWarmup = 2

// selectRef is the reference a pair's first selection establishes.
type selectRef struct {
	winner  string
	ratios  []core.SelectionResult
	archive []byte
	result  *core.Result
	cell    *cell
}

// runModelSelect is the model-select workload: core.SelectModel over
// core.DefaultCandidates on Heat3d with zfp and Laplace with sz.
func runModelSelect(o options) (*outcome, error) {
	out := newOutcome()
	fields, err := setupLibrary(out)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	refs := make([]*selectRef, len(msPairs))
	acc := &libAccum{}
	var rec *recorder
	var tr *tracedLib
	if o.traced {
		tr = &tracedLib{}
		tr.untracedMs = append(tr.untracedMs, selectPass(o, fields, rng, refs, nil, nil, out, &libAccum{}))
		rec = newRecorder()
	}
	runtime.GC()
	for c := newClock(o); c.more(); {
		acc.rssReset = resetPeakRSS("self")
		realMs := selectPass(o, fields, rng, refs, rec, tr, out, acc)
		acc.peakRSS = append(acc.peakRSS, peakRSSMB("self"))
		c.add(realMs)
		if tr != nil {
			tr.tracedMs = append(tr.tracedMs, realMs)
		}
	}
	acc.finish(out)
	if o.traced {
		cells, err := precondCells(fields, o.workers)
		if err != nil {
			return nil, err
		}
		if err := tracedLibraryLayers(o, out, rec, tr, fields, cells); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// selectPass runs one selection per pair in a seeded order and returns
// the summed time of the selections and the winners' decodes in ms.
func selectPass(o options, fields map[string]*grid.Field, rng *rand.Rand, refs []*selectRef,
	rec *recorder, tr *tracedLib, out *outcome, acc *libAccum) float64 {
	var passNs, compBytes, decBytes, decNs, decWallNs int64
	first := len(acc.compMBs) == 0
	for _, i := range rng.Perm(len(msPairs)) {
		pair := msPairs[i]
		f := fields[pair.dataset]
		fb := int64(8 * f.Len())
		data, delta, err := core.PaperCodecs(pair.family)
		if err != nil {
			panic(err) // the pairs name built-in families
		}
		opts := core.Options{DataCodec: data, DeltaCodec: delta, Parallel: parallel.Config{Workers: o.workers}}
		var op int64
		if tr != nil {
			tr.opSeq++
			op = tr.opSeq
		}
		root := rec.begin("op", op, -1)
		out.attempted++
		s := rec.begin("core.select_model", op, root)
		t0 := time.Now()
		best, results, err := core.SelectModel(f, core.DefaultCandidates(), opts)
		selNs := time.Since(t0).Nanoseconds()
		rec.end(s, fb, 0)
		passNs += selNs
		if err != nil {
			rec.end(root, 0, 0)
			out.failed++
			acc.fail("select: " + err.Error())
			acc.opMs = append(acc.opMs, math.Inf(1))
			continue
		}
		okCands := 0
		for _, r := range results {
			if r.Err == nil {
				okCands++
			}
		}
		// The check: the winner and every candidate's ratio must repeat the
		// first selection exactly; the winner's archive (recompressed once,
		// outside the timed call) must decode within its declared bound.
		chk := rec.begin("bench.check", op, root)
		ref := refs[i]
		why := ""
		if ref == nil {
			ref, err = newSelectRef(pair.dataset, f, best, results, pair.family, o.workers)
			if err != nil {
				why = err.Error()
			} else {
				refs[i] = ref
			}
		} else if best.Label != ref.winner || !sameResults(results, ref.ratios) {
			why = fmt.Sprintf("selection %s differs from the first (%s)", best.Label, ref.winner)
		}
		var v verdict
		if why == "" {
			// Decode the winner's archive repeatedly; the median is its time.
			var ds []float64
			var got *grid.Field
			// Collect the selection's garbage first, so that the
			// decodes do not share the cores with its marking.
			runtime.GC()
			start := time.Now()
			for k := 0; why == "" && (k < winnerWarmup+1 || time.Since(start) < winnerDecodeTime); k++ {
				t := time.Now()
				got, err = core.DecompressWithOpts(ref.archive, core.DecompressOpts{Parallel: parallel.Config{Workers: o.workers}})
				if k >= winnerWarmup {
					ds = append(ds, float64(time.Since(t).Nanoseconds()))
				}
				if err != nil {
					why = "decompress winner: " + err.Error()
				}
			}
			decWallNs += time.Since(start).Nanoseconds()
			if why == "" {
				v = ref.cell.check(ref.archive, got)
				why = v.why
				decNs += int64(median(ds))
				decBytes += fb
				if acc.decSamples == nil {
					acc.decSamples, acc.decBytes = map[string][]float64{}, map[string]int64{}
				}
				acc.decSamples[pair.dataset] = append(acc.decSamples[pair.dataset], ds...)
				acc.decBytes[pair.dataset] = fb
			}
		}
		rec.end(chk, 0, 0)
		if rec != nil && why == "" {
			tracedSelectReplay(rec, tr, o, ref, pair.dataset, pair.family, f, op, root, selNs)
		}
		rec.end(root, 0, 0)
		if why != "" {
			out.failed++
			acc.fail(pair.dataset + "/" + pair.family + ": " + why)
			acc.opMs = append(acc.opMs, math.Inf(1))
			continue
		}
		acc.opMs = append(acc.opMs, float64(selNs)/1e6)
		acc.opNs += selNs
		acc.movedBytes += int64(okCands) * fb
		compBytes += int64(okCands) * fb
		acc.relErr(pair.family, v.relErr)
		if first {
			acc.origBytes += fb
			acc.archBytes += int64(len(ref.archive))
		}
	}
	acc.compMBs = append(acc.compMBs, float64(compBytes)/1e6/(float64(passNs)/1e9))
	acc.decMBs = append(acc.decMBs, float64(decBytes)/1e6/(float64(max(decNs, 1))/1e9))
	acc.selectS = append(acc.selectS, float64(passNs)/1e9)
	return float64(passNs+decWallNs) / 1e6
}

func newSelectRef(ds string, f *grid.Field, best core.Candidate, results []core.SelectionResult, family string, workers int) (*selectRef, error) {
	c, err := newCell(ds, f, best, family, workers)
	if err != nil {
		return nil, err
	}
	res, err := core.Compress(f, c.opts())
	if err != nil {
		return nil, fmt.Errorf("recompress winner %s: %w", best.Label, err)
	}
	if err := c.reference(res.Archive); err != nil {
		return nil, err
	}
	return &selectRef{winner: best.Label, ratios: results, archive: res.Archive, result: res, cell: c}, nil
}

func sameResults(a, b []core.SelectionResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Archives are deterministic, so a repeated selection must
		// reproduce every ratio bit for bit.
		if a[i].Label != b[i].Label || a[i].Ratio != b[i].Ratio || (a[i].Err == nil) != (b[i].Err == nil) { //lrmlint:ignore floatcmp ratios of deterministic archives must repeat exactly
			return false
		}
	}
	return true
}

// tracedSelectReplay replays every candidate of one selection. core's
// self time for the selection is the SelectModel call minus the layers
// its candidates' compressions call; the winner's replay must reproduce
// the stream sizes of its core.Compress archive.
func tracedSelectReplay(rec *recorder, tr *tracedLib, o options, ref *selectRef, ds, family string, f *grid.Field, op int64, root int, selNs int64) {
	rs := rec.begin("replay.select", op, root)
	defer rec.end(rs, 0, 0)
	var layerNs int64
	for _, cand := range core.DefaultCandidates() {
		c, err := newCell(ds, f, cand, family, o.workers)
		if err != nil {
			tr.reconcileErrs = append(tr.reconcileErrs, err.Error())
			return
		}
		rp, err := replayCompress(rec, c, op, rs)
		if err != nil {
			tr.reconcileErrs = append(tr.reconcileErrs, c.name()+": replay: "+err.Error())
			continue
		}
		layerNs += rp.layerNs
		if cand.Label == ref.winner {
			if err := rp.reconcile(ref.result); err != nil {
				tr.reconcileErrs = append(tr.reconcileErrs, c.name()+": "+err.Error())
			}
		}
		if c.model != nil {
			tr.deltaMs = append(tr.deltaMs, float64(rp.deltaNs)/1e6)
			tr.repBytes = append(tr.repBytes, float64(rp.repBytes))
		}
	}
	tr.coreSelfMs = append(tr.coreSelfMs, float64(selNs-layerNs)/1e6)
}
