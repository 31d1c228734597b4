package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"lrm/internal/compress"
	"lrm/internal/compress/fpc"
	"lrm/internal/compress/sz"
	"lrm/internal/compress/zfp"
	"lrm/internal/core"
	"lrm/internal/grid"
	"lrm/internal/obs"
	"lrm/internal/parallel"
	"lrm/internal/sim/astro"
	"lrm/internal/sim/cfd"
	"lrm/internal/sim/sedov"
)

// server is one lrmserve process started with its default flags; only the
// listen address is chosen, on loopback.
type server struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{}
}

var servingAddr = regexp.MustCompile(`addr=(\S+)`)

func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	// The server must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start lrmserve: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		// Drain the log for the whole life of the process so the server
		// never blocks on a full pipe.
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if !sent && strings.Contains(line, "lrmserve: serving") {
				if m := servingAddr.FindStringSubmatch(line); m != nil {
					addrc <- m[1]
					sent = true
				}
			}
		}
		_ = cmd.Wait()
		close(s.done)
	}()
	select {
	case s.addr = <-addrc:
	case <-s.done:
		return nil, errors.New("lrmserve exited before serving")
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, errors.New("lrmserve did not report its address")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + s.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, errors.New("lrmserve never became healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM, as an orchestrator would, and
// waits for the process to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(45 * time.Second):
		s.kill()
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.done
}

// vars reads the server's obs registry from /debug/vars.
func (s *server) vars(c *http.Client) (*obs.Snap, error) {
	resp, err := c.Get("http://" + s.addr + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Lrm obs.Snap `json:"lrm"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return &doc.Lrm, nil
}

// entry is one payload of the service workload. Expected digests are
// computed in set-up, so the timed loop compares bytes and never decodes.
type entry struct {
	dims     []int
	family   string
	query    string // codec negotiation for /v1/compress
	raw      []byte // field bytes; kept only for compress payloads
	archive  []byte
	archSum  uint64
	fieldSum uint64 // digest of the decoded field's bytes
	fieldLen int
	dimsStr  string
}

// familyCodec is the codec lrmserve negotiates for each query the
// benchmark sends.
func familyCodec(family string) (compress.Codec, string, error) {
	switch family {
	case "zfp":
		c, err := zfp.New(16)
		return c, "codec=zfp&precision=16", err
	case "sz":
		c, err := sz.New(sz.ValueRangeRel, 1e-4)
		return c, "codec=sz&mode=rel&bound=1e-4", err
	case "fpc":
		c, err := fpc.New(12)
		return c, "codec=fpc&level=12", err
	case "flate":
		return compress.NewFlate(6), "codec=flate&level=6", nil
	}
	return nil, "", fmt.Errorf("unknown family %q", family)
}

// buildEntry compresses f as lrmserve would (chunked container, the
// server's default chunk count), decodes it once to learn the response
// digest, and checks the decoded field against the codec's error bound.
func buildEntry(f *grid.Field, family string, keepRaw bool, workers int) (*entry, verdict, error) {
	codec, query, err := familyCodec(family)
	if err != nil {
		return nil, verdict{}, err
	}
	chunks := min(8, f.Dims[0])
	res, err := core.CompressChunked(f, core.Options{DataCodec: codec, Parallel: parallel.Config{Workers: workers}}, chunks)
	if err != nil {
		return nil, verdict{}, err
	}
	got, err := core.DecompressWithOpts(res.Archive, core.DecompressOpts{Parallel: parallel.Config{Workers: workers}})
	if err != nil {
		return nil, verdict{}, err
	}
	e := &entry{dims: f.Dims, family: family, query: query, archive: res.Archive,
		archSum: digest(res.Archive), fieldLen: 8 * f.Len(), dimsStr: dimsString(f.Dims)}
	e.fieldSum = digest(got.Bytes())
	if keepRaw {
		e.raw = f.Bytes()
	}
	return e, verify(f, got, errorBound(codec, f), codec.Lossless()), nil
}

func dimsString(dims []int) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = strconv.Itoa(d)
	}
	return strings.Join(parts, ",")
}

// pool is the service probe's payload set.
type pool struct {
	entries  []*entry
	compress []*entry // entries whose raw field is kept for /v1/compress
	decoded  int64    // Σ decoded bytes: the cache working set
	badRefs  []string
}

// Pool layout. Sizes run from 32 KiB to 8 MiB in powers of two, and the
// count per size falls as 1/size, so every size carries the same bytes
// while small payloads dominate by count. The decoded total is about 4×
// lrmserve's default 64 MiB response cache, so uniform draws hit the cache
// about a quarter of the time.
var (
	poolShapes = [][]int{{16, 16, 16}, {32, 16, 16}, {32, 32, 16}, {32, 32, 32}, {64, 32, 32},
		{64, 64, 32}, {64, 64, 64}, {128, 64, 64}, {128, 128, 64}}
	poolCounts = []int{910, 455, 228, 114, 57, 28, 14, 7, 4}
)

// maxCompressBytes caps /v1/compress payloads; decompress payloads run to
// 8 MiB. A multi-MiB flate or fpc compress holds one of the two
// connections of a 2-core host for 0.1–0.25 s, and every request arriving
// meanwhile queues behind it.
const maxCompressBytes = 1 << 20

const (
	baseN          = 128      // extent of the solver fields payloads are cut from
	defaultCacheMB = 64       // lrmserve's default response cache, MiB
	poolLayoutSeed = 20190520 // the pool is the same for every --seed
)

// simBases generates the solver fields payloads are cut from.
func simBases() []*grid.Field {
	return []*grid.Field{
		astro.Generate(astro.Default(baseN)),
		sedov.Generate(sedov.Default(baseN)),
		cfd.GenerateYf17(cfd.DefaultYf17(baseN)),
		cfd.GenerateFish(cfd.DefaultFish(baseN)),
	}
}

// crop copies the block of base at offset off with the given shape.
func crop(base *grid.Field, off, shape []int) *grid.Field {
	f := grid.New(shape...)
	n1, n2 := base.Dims[1], base.Dims[2]
	for z := 0; z < shape[0]; z++ {
		for y := 0; y < shape[1]; y++ {
			src := ((off[0]+z)*n1+(off[1]+y))*n2 + off[2]
			copy(f.Data[(z*shape[1]+y)*shape[2]:], base.Data[src:src+shape[2]])
		}
	}
	return f
}

// poolFamily assigns codec families round robin. Payloads of 2 MiB and
// more use the two lossy families only: an fpc or flate decode of several
// MiB holds both cores of a 2-core host for 0.1 s or more.
func poolFamily(i int, shape []int) string {
	if 8*shape[0]*shape[1]*shape[2] >= 2<<20 {
		return codecFamilies[i%2]
	}
	return codecFamilies[i%4]
}

// poolSpec is one planned payload: which base, where, what shape, which
// codec family, and whether its raw bytes serve compress requests.
type poolSpec struct {
	base    int
	off     []int
	shape   []int
	family  string
	keepRaw bool
}

func planPool() []poolSpec {
	rng := rand.New(rand.NewSource(poolLayoutSeed))
	var specs []poolSpec
	for k, shape := range poolShapes {
		for i := 0; i < poolCounts[k]; i++ {
			off := make([]int, 3)
			for d := range off {
				off[d] = rng.Intn(baseN - shape[d] + 1)
			}
			// Families cycle fastest, so every size has every family, and
			// every fourth run of four entries up to maxCompressBytes keeps
			// its raw field for /v1/compress.
			specs = append(specs, poolSpec{base: (i/4 + k) % 4, off: off, shape: shape,
				family: poolFamily(i, shape), keepRaw: (i/4)%4 == 0 && 8*shape[0]*shape[1]*shape[2] <= maxCompressBytes})
		}
	}
	return specs
}

// buildPool makes the payload pool. Duplicate payloads (a crop of a
// constant region) would share a cache key, so a duplicate is moved until
// its archive is new.
func buildPool(bases []*grid.Field, workers int) (*pool, error) {
	p := &pool{}
	seen := map[uint64]bool{}
	for _, sp := range planPool() {
		for try := 0; ; try++ {
			f := crop(bases[sp.base], sp.off, sp.shape)
			e, v, err := buildEntry(f, sp.family, sp.keepRaw, workers)
			if err != nil {
				return nil, err
			}
			if seen[e.archSum] && try < 64 {
				for d := range sp.off {
					sp.off[d] = (sp.off[d] + 7*(d+1)) % (baseN - sp.shape[d] + 1)
				}
				continue
			}
			seen[e.archSum] = true
			if !v.ok {
				p.badRefs = append(p.badRefs, fmt.Sprintf("%s %v: %s", sp.family, sp.shape, v.why))
			}
			p.entries = append(p.entries, e)
			if e.raw != nil {
				p.compress = append(p.compress, e)
			}
			p.decoded += int64(e.fieldLen)
			break
		}
	}
	return p, nil
}

// --- the load generator ---

// reqResult is one request's outcome.
type reqResult struct {
	compress bool
	latency  time.Duration // from when the request was due to the end of its body
	ok       bool
	why      string
	ttfb     time.Duration // request written → first response byte
	transfer time.Duration // first byte → end of body
	cacheHit bool
}

type client struct {
	http *http.Client
	base string
	rec  *recorder
	mu   sync.Mutex
	op   int64
}

// newClient returns a client with at most conns connections whose traced
// requests record spans in rec, numbering their ops after lastOp.
func newClient(addr string, conns int, rec *recorder, lastOp int64) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, MaxIdleConns: conns,
		DisableCompression: true, IdleConnTimeout: time.Minute}
	return &client{http: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, base: "http://" + addr, rec: rec, op: lastOp}
}

func (c *client) nextOp() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.op++
	return c.op
}

// do sends one request and checks the response against the entry's
// expected digest. With traced set it records the request's client-side
// phases (net/http/httptrace) as spans.
func (c *client) do(e *entry, isCompress bool, traced bool) reqResult {
	r := reqResult{compress: isCompress}
	var url string
	var body []byte
	if isCompress {
		url = c.base + "/v1/compress?dims=" + e.dimsStr + "&" + e.query
		body = e.raw
	} else {
		url = c.base + "/v1/decompress"
		body = e.archive
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		r.why = err.Error()
		return r
	}
	var op int64
	root := -1
	// The transport calls these hooks from its own goroutines.
	var phaseMu sync.Mutex
	var getConn, gotConn, wrote, first time.Time
	if traced {
		op = c.nextOp()
		root = c.rec.begin("serve.request", op, -1)
		stamp := func(t *time.Time) {
			phaseMu.Lock()
			*t = time.Now()
			phaseMu.Unlock()
		}
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GetConn:              func(string) { stamp(&getConn) },
			GotConn:              func(httptrace.GotConnInfo) { stamp(&gotConn) },
			WroteRequest:         func(httptrace.WroteRequestInfo) { stamp(&wrote) },
			GotFirstResponseByte: func() { stamp(&first) },
		}))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		r.why = "transport: " + err.Error()
		c.rec.end(root, 0, 0)
		return r
	}
	var h maphash.Hash
	h.SetSeed(digestSeed)
	n, err := io.Copy(&h, resp.Body)
	resp.Body.Close()
	end := time.Now()
	if traced {
		phaseMu.Lock()
		if first.IsZero() {
			first = end
		}
		r.ttfb = first.Sub(wrote)
		r.transfer = end.Sub(first)
		c.rec.add("http.conn_wait", op, root, getConn, gotConn)
		c.rec.add("http.write", op, root, gotConn, wrote)
		c.rec.add("serve.ttfb", op, root, wrote, first)
		c.rec.add("serve.transfer", op, root, first, end)
		phaseMu.Unlock()
		c.rec.end(root, int64(len(body)), n)
	}
	switch {
	case err != nil:
		r.why = "reading body: " + err.Error()
	case resp.StatusCode != http.StatusOK:
		r.why = "status " + strconv.Itoa(resp.StatusCode)
	case isCompress && (int(n) != len(e.archive) || h.Sum64() != e.archSum):
		r.why = "compress response differs from the expected archive"
	case !isCompress && (int(n) != e.fieldLen || h.Sum64() != e.fieldSum || resp.Header.Get("X-Lrm-Dims") != e.dimsStr):
		r.why = "decompress response differs from the expected field"
	default:
		r.ok = true
	}
	r.cacheHit = resp.Header.Get("X-Lrm-Cache") == "hit"
	return r
}

// sequencer hands out the request stream. Every prefix of the stream
// holds each stratum (request kind × payload size × codec family) in its
// pool proportion to within about one request — a smooth weighted round
// robin whose starting phase comes from the seed. Half the requests
// compress, half decompress. Within a stratum the entry is drawn
// uniformly, so every decompress payload is equally likely and the
// response cache sees the uniform popularity its hit rate assumes.
type sequencer struct {
	rng    *rand.Rand
	strata []*stratum
	total  int
}

type stratum struct {
	compress bool
	entries  []*entry
	weight   int
	current  int
}

func newSequencer(p *pool, seed int64) *sequencer {
	sq := &sequencer{rng: rand.New(rand.NewSource(seed))}
	group := func(es []*entry, compress bool, scale int) {
		idx := map[string]*stratum{}
		for _, e := range es {
			key := e.family + "/" + strconv.Itoa(e.fieldLen)
			st := idx[key]
			if st == nil {
				st = &stratum{compress: compress}
				idx[key] = st
				sq.strata = append(sq.strata, st)
			}
			st.entries = append(st.entries, e)
			st.weight += scale
		}
	}
	// Scaling each side by the other side's size makes the two kinds'
	// total weights equal.
	group(p.entries, false, len(p.compress))
	group(p.compress, true, len(p.entries))
	for _, st := range sq.strata {
		sq.total += st.weight
	}
	for _, st := range sq.strata {
		st.current = sq.rng.Intn(sq.total)
	}
	return sq
}

func (sq *sequencer) next() (*entry, bool) {
	var pick *stratum
	for _, st := range sq.strata {
		st.current += st.weight
		if pick == nil || st.current > pick.current {
			pick = st
		}
	}
	pick.current -= sq.total
	return pick.entries[sq.rng.Intn(len(pick.entries))], pick.compress
}

// openLoop sends requests on a seeded Poisson schedule at rate per
// second for the duration, whatever the server's progress, and returns
// each request's result plus how late the generator issued each one.
func openLoop(c *client, d *sequencer, rate float64, dur time.Duration) ([]reqResult, []float64) {
	var mu sync.Mutex
	var results []reqResult
	var late []float64
	var wg sync.WaitGroup
	arrivals := rand.New(rand.NewSource(d.rng.Int63()))
	start := time.Now()
	due := start
	for {
		due = due.Add(time.Duration(arrivals.ExpFloat64() / rate * float64(time.Second)))
		if due.Sub(start) >= dur {
			break
		}
		e, isCompress := d.next()
		time.Sleep(time.Until(due))
		late = append(late, ms(time.Since(due)))
		wg.Add(1)
		go func(due time.Time) {
			defer wg.Done()
			r := c.do(e, isCompress, true)
			r.latency = time.Since(due)
			mu.Lock()
			results = append(results, r)
			mu.Unlock()
		}(due)
	}
	wg.Wait()
	return results, late
}

// The probe's load: seeded Poisson arrivals at a fixed rate, far below
// what a 2-core host sustains, so requests rarely queue on the client's
// connections, and long enough for a few hundred decompress requests.
const (
	probeRate     = 67 // requests per second
	probeSeconds  = 10
	probeOverhead = 10 // requests per endpoint timed against direct core calls
)

// probeStats is what the service probe measured.
type probeStats struct {
	results       []reqResult
	late          []float64
	failures      map[string]int
	attempted     int64
	failed        int64
	before, after *obs.Snap
	overheadMs    map[string][]float64 // by endpoint
}

func (st *probeStats) count(r reqResult) {
	st.attempted++
	if !r.ok {
		st.failed++
		if st.failures == nil {
			st.failures = map[string]int{}
		}
		st.failures[r.why]++
	}
}

// serveProbe measures the service layers in a library workload's traced
// run. It starts the real lrmserve binary with its default flags (so
// metrics, tracing, history, SLO tracking, quality sampling and the
// continuous profiler are all on), fills the response cache with an
// untimed warm-up, runs the open loop over a pool whose decoded size is
// about 4× the cache, and then times single requests against the direct
// core calls on the same payloads. The requests' spans join the traced
// run's recorder.
func serveProbe(o options, out *outcome, rec *recorder, tr *tracedLib) error {
	p, err := buildPool(simBases(), o.workers)
	if err != nil {
		return err
	}
	for _, why := range p.badRefs {
		out.invalid = append(out.invalid, "serve probe reference: "+why)
	}
	srv, err := startServer(o.lrmserve)
	if err != nil {
		return err
	}
	defer srv.stop()
	c := newClient(srv.addr, runtime.NumCPU(), rec, tr.opSeq)
	defer c.http.CloseIdleConnections()
	st := &probeStats{overheadMs: map[string][]float64{}}

	// Warm-up, untimed: decode distinct payloads until their decoded bytes
	// fill the response cache.
	wrng := rand.New(rand.NewSource(o.seed + 7))
	var filled int64
	for _, i := range wrng.Perm(len(p.entries)) {
		if filled >= defaultCacheMB<<20 {
			break
		}
		e := p.entries[i]
		st.count(c.do(e, false, false))
		filled += int64(e.fieldLen)
	}

	if st.before, err = srv.vars(c.http); err != nil {
		return err
	}
	st.results, st.late = openLoop(c, newSequencer(p, o.seed), probeRate, probeSeconds*time.Second)
	for _, r := range st.results {
		st.count(r)
	}
	if st.after, err = srv.vars(c.http); err != nil {
		return err
	}
	if err := overheadProbe(o, srv, c, p, st); err != nil {
		return err
	}

	tr.opSeq = c.op
	out.attempted += st.attempted
	out.failed += st.failed
	serveLayerMetrics(out, st)
	out.details["serve_probe"] = map[string]any{
		"entries":            len(p.entries),
		"compress_payloads":  len(p.compress),
		"decoded_mb":         float64(p.decoded) / (1 << 20),
		"cache_mb":           defaultCacheMB,
		"predicted_hit_rate": float64(defaultCacheMB<<20) / float64(p.decoded),
		"rate":               probeRate,
		"seconds":            probeSeconds,
		"failures":           st.failures,
	}
	// The probe exists to exercise the cache's miss path and the decode
	// behind it; a run where the pool never overflowed the cache, or where
	// no uncached request could be timed, did not measure them.
	if out.values["serve.cache.evictions"] == 0 {
		out.invalid = append(out.invalid, "serve probe: the response cache never evicted, so the pool did not overflow it")
	}
	for _, ep := range []string{"compress", "decompress"} {
		if n := len(st.overheadMs[ep]); n < probeOverhead {
			out.invalid = append(out.invalid, fmt.Sprintf("serve probe: %d of %d uncached %s requests timed for serve.overhead_ms", n, probeOverhead, ep))
		}
	}
	return nil
}

// overheadProbe sends single requests, one at a time, and times each on
// the server (the delta of its serve.<endpoint>.ns histogram) and as the
// direct core call on the same payload. The difference is what the
// service adds: body read, negotiation, admission, cache and write.
func overheadProbe(o options, srv *server, c *client, p *pool, st *probeStats) error {
	rng := rand.New(rand.NewSource(o.seed + 11))
	for _, ep := range []string{"compress", "decompress"} {
		isCompress := ep == "compress"
		for tries := 0; len(st.overheadMs[ep]) < probeOverhead && tries < 20*probeOverhead; tries++ {
			var e *entry
			if isCompress {
				e = p.compress[rng.Intn(len(p.compress))]
			} else {
				e = p.entries[rng.Intn(len(p.entries))]
			}
			b, err := srv.vars(c.http)
			if err != nil {
				return err
			}
			r := c.do(e, isCompress, false)
			st.count(r)
			a, err := srv.vars(c.http)
			if err != nil {
				return err
			}
			if !r.ok || r.cacheHit {
				continue // a cache hit runs no core call to compare against
			}
			h := "serve." + ep + ".ns"
			serverNs := a.Histograms[h].Sum - b.Histograms[h].Sum
			direct, err := directCall(e, isCompress, o.workers)
			if err != nil {
				return err
			}
			st.overheadMs[ep] = append(st.overheadMs[ep], float64(serverNs-direct.Nanoseconds())/1e6)
		}
	}
	return nil
}

// directCall times the core call the server makes for the request.
func directCall(e *entry, isCompress bool, workers int) (time.Duration, error) {
	if isCompress {
		codec, _, err := familyCodec(e.family)
		if err != nil {
			return 0, err
		}
		f, err := grid.FromBytes(e.raw, e.dims...)
		if err != nil {
			return 0, err
		}
		t := time.Now()
		_, err = core.CompressChunkedCtx(context.Background(), f, core.Options{DataCodec: codec, Parallel: parallel.Config{Workers: workers}}, min(8, e.dims[0]))
		return time.Since(t), err
	}
	t := time.Now()
	_, err := core.DecompressWithOptsCtx(context.Background(), e.archive, core.DecompressOpts{Parallel: parallel.Config{Workers: workers}})
	return time.Since(t), err
}

// serveLayerMetrics derives the service per-layer metrics from the
// client-side phase spans and the server's counter deltas over the open
// loop.
func serveLayerMetrics(out *outcome, st *probeStats) {
	delta := func(name string) int64 { return st.after.Counters[name] - st.before.Counters[name] }
	var ttfbC, ttfbD, transfer, lat []float64
	for _, r := range st.results {
		if !r.ok {
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, ms(r.latency))
		if r.compress {
			ttfbC = append(ttfbC, ms(r.ttfb))
		} else {
			ttfbD = append(ttfbD, ms(r.ttfb))
		}
		transfer = append(transfer, ms(r.transfer))
	}
	out.values["serve.compress.ttfb_ms"] = median(ttfbC)
	out.values["serve.decompress.ttfb_ms"] = median(ttfbD)
	out.values["serve.transfer_ms"] = median(transfer)
	var sum, cnt int64
	for _, ep := range []string{"serve.compress.ns", "serve.decompress.ns"} {
		sum += st.after.Histograms[ep].Sum - st.before.Histograms[ep].Sum
		cnt += st.after.Histograms[ep].Count - st.before.Histograms[ep].Count
	}
	out.values["serve.server_ms"] = float64(sum) / float64(max(cnt, 1)) / 1e6
	out.values["serve.overhead_ms"] = median(append(append([]float64(nil), st.overheadMs["compress"]...), st.overheadMs["decompress"]...))
	hits, misses := delta("serve.cache.hits"), delta("serve.cache.misses")
	out.values["serve.cache.hit_rate"] = float64(hits) / float64(max(hits+misses, 1))
	out.values["serve.cache.evictions"] = float64(delta("serve.cache.evictions"))
	out.values["serve.rejected"] = float64(delta("serve.rejected.admission") + delta("serve.rejected.quota") + delta("serve.rejected.draining"))
	out.values["quality.sampled"] = float64(delta("quality.sampled"))
	late, _, _ := tail(st.late)
	out.values["loadgen.late_p99_ms"] = late
	latTail, pct, n := tail(lat)
	out.details["serve_layers"] = map[string]any{
		"open_loop_latency_ms": map[string]any{"p50": finite(median(lat)), "tail": finite(latTail), "percentile": pct, "samples": n},
		"overhead_ms":          map[string]any{"compress": finite(median(st.overheadMs["compress"])), "decompress": finite(median(st.overheadMs["decompress"]))},
		"ttfb_samples":         len(ttfbC) + len(ttfbD),
		"server_requests":      cnt,
		"generator_behind":     late > 10,
	}
}
