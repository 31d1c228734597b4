// Command perfbench is the repository's benchmark: two seeded workloads
// (precond, model-select) that measure the paper's reduce → delta → codec
// pipeline as the library ships it, end to end and layer by layer, with
// the lrmserve service as it ships measured layer by layer in their
// traced runs.
//
// Run it through run.sh from the repository root, which builds this
// program and cmd/lrmserve from the same tree:
//
//	bash perfbench/run.sh --workload precond --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics listed in BENCHMARK.json; with --trace 1 they are
// the per-layer metrics, taken in a separate traced run. The line before
// it records the configuration and the sample counts behind each number.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"lrm/internal/obs"
	"lrm/internal/obs/trace"
)

// spec is the part of BENCHMARK.json the program checks its output
// against: every run must report exactly the listed metrics.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, in the key order the
// benchmark contract fixes.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run hands back: its metric values by name,
// op accounting, and the details that explain the numbers.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	// invalid records checks that make the run's numbers untrustworthy
	// even when every op succeeded (a traced decomposition that does not
	// reproduce the program's stream sizes, for instance).
	invalid []string
	details map[string]any
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, details: map[string]any{}}
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	root     string // repository root (holds BENCHMARK.json and go.mod)
	lrmserve string // path of the lrmserve binary built from this tree
	workers  int    // parallel.Config.Workers passed to every library call
	spanOut  string // where the traced run writes its spans
}

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: precond or model-select")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.lrmserve, "lrmserve", "", "lrmserve binary built from the tree under test")
	flag.Parse()
	o.traced = traceFlag == 1
	o.workers = runtime.GOMAXPROCS(0)
	o.spanOut = filepath.Join(o.root, ".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))

	sp, err := readSpec(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	known := map[string]bool{"precond": true, "model-select": true}
	if !known[o.workload] || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", o.workload, o.seconds, traceFlag)
		return 2
	}
	if o.lrmserve == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -lrmserve is required (run through run.sh)")
		return 2
	}

	// The library workloads measure the configuration lrmpack ships:
	// observability off. Only the traced run's reference block turns it on,
	// to price it.
	obs.SetEnabled(false)
	trace.SetEnabled(false)

	var out *outcome
	switch o.workload {
	case "precond":
		out, err = runPrecond(o)
	case "model-select":
		out, err = runModelSelect(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	out.values["error_frac"] = float64(out.failed) / float64(max(1, out.attempted))
	want := sp.EndToEnd
	if o.traced {
		want = sp.PerLayer
	}
	res := result{
		Correct:   out.failed == 0 && len(out.invalid) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range want {
		v, ok := out.values[m.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not measure %s\n", o.workload, m.Name)
			return 1
		}
		res.Metrics[m.Name] = metric{Value: finite(v), Unit: m.Unit}
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no op was attempted")
		return 1
	}
	out.details["config"] = configRecord(o)
	out.details["invalid"] = out.invalid
	detail, err := json.Marshal(map[string]any{"details": out.details})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: details:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result:", err)
		return 1
	}
	fmt.Println(string(detail))
	fmt.Println(string(line))
	return 0
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// finite maps +Inf (a percentile that landed on a failed op) to the
// largest float64, which JSON can carry.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	case math.IsNaN(v):
		return math.MaxFloat64
	}
	return v
}

// configRecord is the configuration every result is recorded with.
func configRecord(o options) map[string]any {
	obsState := "off"
	if o.traced {
		obsState = "off in the measured passes; on in the reference block's observed passes and in the service probe's lrmserve (shipped configuration)"
	}
	return map[string]any{
		"workload":         o.workload,
		"seed":             o.seed,
		"seconds":          o.seconds,
		"traced":           o.traced,
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"parallel_workers": o.workers,
		"obs":              obsState,
		"go":               runtime.Version(),
		"commit":           commitOf(o.root),
	}
}

// commitOf names the tree under test by a digest of every Go source and
// module file in it, which identifies the code whether or not the checkout
// is a git repository.
func commitOf(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// --- statistics ---

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile that still has at least ten samples
// beyond it (p99 once there are 1000 samples), the percentile it is, and
// the sample count. With twenty samples or fewer that percentile would be
// the median or below it, so the tail is the maximum.
func tail(xs []float64) (v, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return math.NaN(), 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n >= 1000 {
		r := int(math.Ceil(0.99*float64(n))) - 1
		return s[r], 99, n
	}
	if n <= 20 {
		return s[n-1], 100, n
	}
	return s[n-11], 100 * float64(n-10) / float64(n), n
}

// latencySummary fills name_p50/name_tail style values plus the sample
// count detail for a set of latencies in milliseconds.
func latencySummary(out *outcome, p50Name, tailName string, ms []float64) {
	out.values[p50Name] = median(ms)
	v, pct, n := tail(ms)
	out.values[tailName] = v
	out.details[tailName] = map[string]any{"percentile": pct, "samples": n}
	out.details[p50Name] = map[string]any{"samples": n}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// resetPeakRSS restarts a process's VmHWM at its current resident set
// (procfs clear_refs, value 5), so a later peakRSSMB covers only what
// follows. It reports whether the kernel accepted the reset.
func resetPeakRSS(pid string) bool {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads VmHWM (peak resident set) of a process from procfs.
func peakRSSMB(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
