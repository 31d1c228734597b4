package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// withObs enables recording for one test and restores the previous state
// (and a clean registry) afterwards.
func withObs(t *testing.T) {
	t.Helper()
	prev := SetEnabled(true)
	Reset()
	t.Cleanup(func() {
		SetEnabled(prev)
		Reset()
	})
}

func TestCounterGaugeBasics(t *testing.T) {
	withObs(t)
	c := GetCounter("test.counter")
	if GetCounter("test.counter") != c {
		t.Fatal("GetCounter is not idempotent")
	}
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}

	g := GetGauge("test.gauge")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	g.SetMax(5)
	if got := g.Value(); got != 7 {
		t.Fatalf("SetMax lowered the gauge to %d", got)
	}
	g.SetMax(99)
	if got := g.Value(); got != 99 {
		t.Fatalf("SetMax = %d, want 99", got)
	}

	fg := GetFloatGauge("test.float")
	fg.Set(0.625)
	if got := fg.Value(); got != 0.625 {
		t.Fatalf("float gauge = %v, want 0.625", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	withObs(t)
	h := GetHistogram("test.hist", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{2, 2, 0, 1} // <=10: {5,10}; <=100: {11,100}; <=1000: none; +Inf: {5000}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, s.Counts[i], w, s)
		}
	}
	if s.Count != 5 || s.Sum != 5+10+11+100+5000 {
		t.Fatalf("count/sum = %d/%d", s.Count, s.Sum)
	}
}

func TestResetKeepsRegistrations(t *testing.T) {
	withObs(t)
	c := GetCounter("test.reset")
	c.Add(42)
	h := GetHistogram("test.reset.hist", nil)
	h.Observe(123456)
	Reset()
	if c.Value() != 0 {
		t.Fatal("Reset did not zero the counter")
	}
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 {
		t.Fatal("Reset did not zero the histogram")
	}
	// The hoisted pointer must still record after Reset.
	c.Inc()
	if GetCounter("test.reset").Value() != 1 {
		t.Fatal("hoisted counter pointer invalidated by Reset")
	}
}

func TestStageObserveRecordsStageMetrics(t *testing.T) {
	withObs(t)
	StageObserve("test.stage", 250, 100, 40, 0, "")
	StageObserve("test.stage.child", 50, 0, 0, 7, "")

	snap := Snapshot()
	if got := snap.Counters["stage.test.stage.calls"]; got != 1 {
		t.Fatalf("calls = %d, want 1", got)
	}
	if got := snap.Counters["stage.test.stage.bytes_in"]; got != 100 {
		t.Fatalf("bytes_in = %d, want 100", got)
	}
	if got := snap.Counters["stage.test.stage.bytes_out"]; got != 40 {
		t.Fatalf("bytes_out = %d, want 40", got)
	}
	if got := snap.Counters["stage.test.stage.child.items"]; got != 7 {
		t.Fatalf("child items = %d, want 7", got)
	}
	if got := snap.Counters["stage.test.stage.ns_total"]; got != 250 {
		t.Fatalf("ns_total = %d, want 250", got)
	}
	h, ok := snap.Histograms["stage.test.stage.ns"]
	if !ok || h.Count != 1 {
		t.Fatalf("duration histogram missing or count != 1: %+v", h)
	}
}

func TestStageAdd(t *testing.T) {
	withObs(t)
	StageAdd("test.accum", 1000, 4)
	StageAdd("test.accum", 500, 2)
	snap := Snapshot()
	if got := snap.Counters["stage.test.accum.ns_total"]; got != 1500 {
		t.Fatalf("ns_total = %d, want 1500", got)
	}
	if got := snap.Counters["stage.test.accum.calls"]; got != 2 {
		t.Fatalf("calls = %d, want 2", got)
	}
	if got := snap.Counters["stage.test.accum.items"]; got != 6 {
		t.Fatalf("items = %d, want 6", got)
	}
}

// promLine matches every legal sample or comment line of the text
// exposition format we emit.
var promLine = regexp.MustCompile(
	`^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)|` +
		`# HELP [a-zA-Z_:][a-zA-Z0-9_:]* [^\n]*|` +
		`# exemplar [^\n]*|` +
		`[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="([0-9]+|\+Inf)"\})? -?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?)$`)

func TestWritePromParses(t *testing.T) {
	withObs(t)
	GetCounter("test.prom/counter-a").Add(3)
	GetGauge("test.prom.gauge").Set(-5)
	GetFloatGauge("test.prom.float").Set(1.5)
	h := GetHistogram("test.prom.hist", []int64{10, 100})
	h.Observe(7)
	h.Observe(70)
	h.Observe(700)

	var buf bytes.Buffer
	if err := WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("exposition must end with a newline")
	}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if !promLine.MatchString(line) {
			t.Fatalf("invalid exposition line: %q", line)
		}
	}
	// Sanitized name, cumulative buckets, +Inf == count.
	if !strings.Contains(out, "lrm_test_prom_counter_a 3") {
		t.Fatalf("sanitized counter missing:\n%s", out)
	}
	for _, want := range []string{
		`lrm_test_prom_hist_bucket{le="10"} 1`,
		`lrm_test_prom_hist_bucket{le="100"} 2`,
		`lrm_test_prom_hist_bucket{le="+Inf"} 3`,
		`lrm_test_prom_hist_count 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	withObs(t)
	GetCounter("test.json.counter").Add(9)
	var buf bytes.Buffer
	if err := WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snap
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v", err)
	}
	if snap.Counters["test.json.counter"] != 9 {
		t.Fatalf("round-tripped counter = %d, want 9", snap.Counters["test.json.counter"])
	}
}

func TestHandlerEndpoints(t *testing.T) {
	withObs(t)
	GetCounter("test.http.counter").Inc()
	h := Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "lrm_test_http_counter 1") {
		t.Fatalf("/metrics: code %d body %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/vars: code %d", rec.Code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["lrm"]; !ok {
		t.Fatal("/debug/vars does not publish the lrm registry snapshot")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/pprof/: code %d", rec.Code)
	}
}

// TestConcurrentRecording exercises every metric type from many goroutines;
// run with -race this is the data-race gate for the registry.
func TestConcurrentRecording(t *testing.T) {
	withObs(t)
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			c := GetCounter("test.conc.counter")
			g := GetGauge("test.conc.gauge")
			h := GetHistogram("test.conc.hist", nil)
			for i := 0; i < iters; i++ {
				c.Inc()
				g.SetMax(int64(i))
				h.Observe(int64(i))
				StageObserve("test.conc.span", 1, 0, 0, 1, "")
			}
		}()
	}
	wg.Wait()
	snap := Snapshot()
	if got := snap.Counters["test.conc.counter"]; got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := snap.Counters["stage.test.conc.span.items"]; got != workers*iters {
		t.Fatalf("span items = %d, want %d", got, workers*iters)
	}
	if got := snap.Gauges["test.conc.gauge"]; got != iters-1 {
		t.Fatalf("gauge high-water = %d, want %d", got, iters-1)
	}
}
