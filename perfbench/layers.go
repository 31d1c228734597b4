package main

import (
	"context"
	"fmt"
	"math/rand"

	"lrm/internal/compress"
	"lrm/internal/core"
	"lrm/internal/grid"
	"lrm/internal/linalg"
	"lrm/internal/mpi"
	"lrm/internal/obs"
	"lrm/internal/obs/trace"
	"lrm/internal/parallel"
)

// codecFamilies are the four codec families the service negotiates.
var codecFamilies = []string{"zfp", "sz", "fpc", "flate"}

// libraryProbe fills the library per-layer metrics a workload's own traced
// loop did not exercise, on the workload's own fields: every reduced model
// not yet fitted, both linalg kernels on the field matricized as reduce
// does it, direct codec calls for families without both compress and
// decompress spans, and the chunked container's self time.
func libraryProbe(rec *recorder, tr *tracedLib, fields []*grid.Field, workers int) error {
	var missing []core.Candidate
	for _, cand := range core.DefaultCandidates() {
		if cand.Model != nil && len(rec.durationsMs("reduce."+modelKey(cand.Label)+".fit")) == 0 {
			missing = append(missing, cand)
		}
	}
	var probeFams []string
	for _, fam := range codecFamilies {
		if len(rec.durationsMs(fam+".compress")) == 0 || len(rec.durationsMs(fam+".decompress")) == 0 {
			probeFams = append(probeFams, fam)
		}
	}
	for fi, f := range fields {
		for _, cand := range missing {
			c, err := newCell(fmt.Sprintf("probe%d", fi), f, cand, "zfp", workers)
			if err != nil {
				return err
			}
			tr.opSeq++
			var res *core.Result
			realNs, err := timed(rec, "core.compress", tr.opSeq, -1, int64(8*f.Len()), func() (int64, error) {
				r, err := core.Compress(f, c.opts())
				res = r
				if err != nil {
					return 0, err
				}
				return int64(len(r.Archive)), nil
			})
			if err != nil {
				return fmt.Errorf("probe %s: %w", c.name(), err)
			}
			root := rec.begin("replay.compress", tr.opSeq, -1)
			rp, err := replayCompress(rec, c, tr.opSeq, root)
			rec.end(root, 0, 0)
			if err != nil {
				return fmt.Errorf("probe %s: %w", c.name(), err)
			}
			if err := rp.reconcile(res); err != nil {
				tr.reconcileErrs = append(tr.reconcileErrs, c.name()+": "+err.Error())
			}
			tr.coreSelfMs = append(tr.coreSelfMs, float64(realNs-rp.layerNs)/1e6)
			tr.repBytes = append(tr.repBytes, float64(rp.repBytes))
			tr.deltaMs = append(tr.deltaMs, float64(rp.deltaNs)/1e6)
		}

		// linalg on the field matricized as reduce does it (leading dims
		// flattened into rows): the SVD the svd model runs, and the
		// symmetric eigen-solve of the centered column covariance PCA runs.
		rows, cols := f.Matricize()
		mat, err := linalg.MatrixFromData(append([]float64(nil), f.Data...), rows, cols)
		if err != nil {
			return err
		}
		tr.opSeq++
		if _, err := timed(rec, "linalg.svd", tr.opSeq, -1, int64(8*f.Len()), func() (int64, error) {
			_, err := linalg.SVD(mat)
			return 0, err
		}); err != nil {
			return fmt.Errorf("probe linalg.SVD: %w", err)
		}
		linalg.CenterColumns(mat, linalg.ColumnMeans(mat))
		cov := linalg.Covariance(mat)
		if _, err := timed(rec, "linalg.eigensym", tr.opSeq, -1, int64(8*cov.Rows*cov.Cols), func() (int64, error) {
			_, _, err := linalg.EigenSym(cov)
			return 0, err
		}); err != nil {
			return fmt.Errorf("probe linalg.EigenSym: %w", err)
		}

		for _, fam := range probeFams {
			codec, _, err := core.PaperCodecs(fam)
			if err != nil {
				return err
			}
			dec, err := compress.DecoderCtxForWorkers(fam, workers)
			if err != nil {
				return err
			}
			codec = bind(codec, workers)
			var stream []byte
			tr.opSeq++
			if _, err := timed(rec, fam+".compress", tr.opSeq, -1, int64(8*f.Len()), func() (int64, error) {
				s, err := compress.CompressCtx(context.Background(), codec, f)
				stream = s
				return int64(len(s)), err
			}); err != nil {
				return fmt.Errorf("probe %s compress: %w", fam, err)
			}
			if _, err := timed(rec, fam+".decompress", tr.opSeq, -1, int64(len(stream)), func() (int64, error) {
				g, err := dec(context.Background(), stream)
				if err != nil {
					return 0, err
				}
				return int64(8 * g.Len()), nil
			}); err != nil {
				return fmt.Errorf("probe %s decompress: %w", fam, err)
			}
		}

		if err := chunkedSelf(rec, tr, f, "zfp"); err != nil {
			return err
		}
	}
	return nil
}

// chunkedSelf times core.CompressChunked at one worker against the
// core.Compress calls it makes for its slabs, replayed one by one: the
// difference is the container's own work (framing, CRCs, scheduling).
func chunkedSelf(rec *recorder, tr *tracedLib, f *grid.Field, family string) error {
	codec, _, err := core.PaperCodecs(family)
	if err != nil {
		return err
	}
	chunks := min(8, f.Dims[0])
	opts := core.Options{DataCodec: codec, Parallel: parallel.Config{Workers: 1}}
	tr.opSeq++
	op := tr.opSeq
	var res *core.Result
	d, err := timed(rec, "core.compress_chunked", op, -1, int64(8*f.Len()), func() (int64, error) {
		r, err := core.CompressChunked(f, opts, chunks)
		res = r
		if err != nil {
			return 0, err
		}
		return int64(len(r.Archive)), nil
	})
	if err != nil {
		return fmt.Errorf("probe chunked: %w", err)
	}
	slab := f.Len() / f.Dims[0]
	root := rec.begin("replay.chunked", op, -1)
	var childNs int64
	var archived int
	for c := 0; c < chunks; c++ {
		lo, hi := mpi.Slab1D(f.Dims[0], chunks, c)
		sub, err := grid.FromData(f.Data[lo*slab:hi*slab], append([]int{hi - lo}, f.Dims[1:]...)...)
		if err != nil {
			return err
		}
		cd, err := timed(rec, "core.compress", op, root, int64(8*sub.Len()), func() (int64, error) {
			r, err := core.Compress(sub, opts)
			if err != nil {
				return 0, err
			}
			archived += len(r.Archive)
			return int64(len(r.Archive)), nil
		})
		if err != nil {
			return fmt.Errorf("probe chunk %d: %w", c, err)
		}
		childNs += cd
	}
	rec.end(root, 0, 0)
	if archived >= len(res.Archive) {
		tr.reconcileErrs = append(tr.reconcileErrs, fmt.Sprintf("chunked archive %d bytes holds less than its chunks' %d", len(res.Archive), archived))
	}
	tr.chunkedSelfMs = append(tr.chunkedSelfMs, float64(d-childNs)/1e6)
	return nil
}

// refBlock is the precond reference the traced run of every workload
// takes: one pass with observability off, one with obs and trace on as
// lrmserve sets them, and one at a single worker, repeated and
// alternated; plus the program's own counters from the observed pass.
type refBlock struct {
	offMs, onMs, serialMs []float64
	counters              map[string]int64
}

func referenceBlock(cells []*cell, seed int64, out *outcome) *refBlock {
	rb := &refBlock{}
	rng := rand.New(rand.NewSource(seed))
	serial := make([]*cell, len(cells))
	for i, c := range cells {
		cp := *c
		cp.workers = 1
		serial[i] = &cp
	}
	acc := &libAccum{}
	pass := func(cs []*cell) float64 {
		return precondPass(cs, rng, nil, nil, out, acc)
	}
	for rep := 0; rep < 3; rep++ {
		rb.offMs = append(rb.offMs, pass(cells))
		obs.SetEnabled(true)
		trace.SetEnabled(true)
		obs.Reset()
		rb.onMs = append(rb.onMs, pass(cells))
		rb.counters = obs.Snapshot().Counters
		obs.SetEnabled(false)
		trace.SetEnabled(false)
		rb.serialMs = append(rb.serialMs, pass(serial))
	}
	if len(acc.failures) > 0 {
		out.details["reference_failures"] = acc.failures
	}
	return rb
}

// countMetrics turns the program's counters over some stretch of work
// into the per-layer count metrics.
func countMetrics(out *outcome, c map[string]int64) {
	frac := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	out.values["sz.bin_hit_frac"] = frac(c["sz.bin_hits"], c["sz.bin_hits"]+c["sz.unpredictable"])
	out.values["zfp.empty_block_frac"] = frac(c["zfp.empty_blocks"], c["zfp.blocks"])
	out.values["huffman.bytes_out"] = float64(c["stage.sz.huffman.bytes_out"])
	out.values["parallel.tasks"] = float64(c["parallel.tasks"])
}

// libraryLayers assembles the library per-layer metrics from a traced
// run's spans and decompositions.
func libraryLayers(out *outcome, rec *recorder, tr *tracedLib) {
	for _, cand := range core.DefaultCandidates() {
		if cand.Model != nil {
			name := "reduce." + modelKey(cand.Label) + ".fit"
			out.values[name+"_ms"] = median(rec.durationsMs(name))
		}
	}
	out.values["linalg.svd_ms"] = median(rec.durationsMs("linalg.svd"))
	out.values["linalg.eigensym_ms"] = median(rec.durationsMs("linalg.eigensym"))
	out.values["reduce.reconstruct_ms"] = median(rec.durationsMs("reduce.reconstruct"))
	out.values["reduce.rep_bytes"] = median(tr.repBytes)
	out.values["core.delta_ms"] = median(tr.deltaMs)
	out.values["core.self_ms"] = median(tr.coreSelfMs)
	out.values["core.chunked.self_ms"] = median(tr.chunkedSelfMs)
	for _, fam := range codecFamilies {
		out.values[fam+".compress_mb_s"] = rec.throughputMBs(fam+".compress", false)
		out.values[fam+".decompress_mb_s"] = rec.throughputMBs(fam+".decompress", true)
	}
	for _, fam := range []string{"zfp", "sz", "fpc"} {
		out.values[fam+".ratio"] = rec.bytesRatio(fam + ".compress")
	}
	out.values["bench.trace_overhead_frac"] = median(tr.tracedMs)/median(tr.untracedMs) - 1
	out.values["bench.layer_sum_frac"] = rec.layerSumFrac()
	out.details["spans"] = len(rec.spans)
	if len(tr.reconcileErrs) > 0 {
		out.invalid = append(out.invalid, tr.reconcileErrs...)
	}
}

// tracedLibraryLayers finishes a library workload's traced run: probes
// for the layers its loop did not reach, the precond reference block, a
// short run of the service, and the span file.
func tracedLibraryLayers(o options, out *outcome, rec *recorder, tr *tracedLib, fields map[string]*grid.Field, cells []*cell) error {
	var fs []*grid.Field
	for _, ds := range libraryDatasets {
		fs = append(fs, fields[ds])
	}
	if err := libraryProbe(rec, tr, fs, o.workers); err != nil {
		return err
	}
	libraryLayers(out, rec, tr)
	rb := referenceBlock(cells, o.seed, out)
	rb.report(out)
	countMetrics(out, rb.counters)
	if err := serveProbe(o, out, rec, tr); err != nil {
		return err
	}
	return rec.write(o.spanOut)
}

func (rb *refBlock) report(out *outcome) {
	out.values["obs.overhead_frac"] = median(rb.onMs)/median(rb.offMs) - 1
	out.values["parallel.speedup"] = median(rb.serialMs) / median(rb.offMs)
	out.details["reference_block_ms"] = map[string]any{"off": rb.offMs, "on": rb.onMs, "workers1": rb.serialMs}
}
