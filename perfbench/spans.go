package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// recorder keeps the traced run's spans in memory; they are written out
// once, when the run ends. A nil recorder records nothing, so the measured
// (untraced) runs pay one nil check per boundary.
//
// Spans are taken around calls into the program's public functions only;
// the program itself is not changed or instrumented by the benchmark.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

// span is one timed call. Parent is an index into the recorder's spans,
// -1 for a root; every span of one op shares the op id.
type span struct {
	Name     string `json:"name"`
	Op       int64  `json:"op"`
	Parent   int    `json:"parent"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	BytesIn  int64  `json:"bytes_in,omitempty"`
	BytesOut int64  `json:"bytes_out,omitempty"`
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its handle (-1 when not recording).
func (r *recorder) begin(name string, op int64, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, StartNs: now, EndNs: -1})
	return len(r.spans) - 1
}

// end closes span i with the bytes it consumed and produced.
func (r *recorder) end(i int, in, out int64) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[i]
	s.EndNs, s.BytesIn, s.BytesOut = now, in, out
}

// add records an already-measured interval (client-side HTTP phases come
// from httptrace callbacks rather than from a call the benchmark wraps).
func (r *recorder) add(name string, op int64, parent int, start, end time.Time) {
	if r == nil || end.Before(start) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent,
		StartNs: start.Sub(r.epoch).Nanoseconds(), EndNs: end.Sub(r.epoch).Nanoseconds()})
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// selfNs returns every span's self time: its duration minus the part of
// its interval that its children cover (the union, so overlapping
// children are not counted twice).
func (r *recorder) selfNs() []int64 {
	kids := make([][]int, len(r.spans))
	for i, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, k := range kids[i] {
			lo, hi := max(r.spans[k].StartNs, s.StartNs), min(r.spans[k].EndNs, s.EndNs)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		curHi = -1
		for _, v := range ivs {
			if v.lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = v.lo, v.hi
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = s.dur() - covered
	}
	return self
}

// durationsMs returns the durations of every closed span with the name.
func (r *recorder) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.EndNs >= 0 {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// throughputMBs is Σ bytes / Σ time over the named spans, counting input
// bytes (compress) or output bytes (decompress) as the field's size.
func (r *recorder) throughputMBs(name string, useOut bool) float64 {
	var bytes, ns int64
	for _, s := range r.spans {
		if s.Name != name || s.EndNs < 0 {
			continue
		}
		ns += s.dur()
		if useOut {
			bytes += s.BytesOut
		} else {
			bytes += s.BytesIn
		}
	}
	if ns == 0 {
		return 0
	}
	return float64(bytes) / 1e6 / (float64(ns) / 1e9)
}

// bytesRatio is Σ in / Σ out over the named spans.
func (r *recorder) bytesRatio(name string) float64 {
	var in, out int64
	for _, s := range r.spans {
		if s.Name == name && s.EndNs >= 0 {
			in += s.BytesIn
			out += s.BytesOut
		}
	}
	if out == 0 {
		return 0
	}
	return float64(in) / float64(out)
}

// replaySpan reports whether a span is the container of a replayed op:
// its children are the calls into the program that the real core call
// makes, and its own self time is the benchmark's glue between them.
func replaySpan(name string) bool {
	return strings.HasPrefix(name, "replay.")
}

// layerSumFrac is Σ self time of the program calls inside the replays
// divided by the replays' wall time: how much of a replayed op the
// per-layer numbers account for. Time the replay spends outside any
// layer (the benchmark's own work, or a call no span covers) lowers it.
func (r *recorder) layerSumFrac() float64 {
	self := r.selfNs()
	inReplay := make([]bool, len(r.spans))
	var layers, wall int64
	for i, s := range r.spans {
		// A parent is always recorded before its children.
		if s.Parent >= 0 {
			inReplay[i] = inReplay[s.Parent] || replaySpan(r.spans[s.Parent].Name)
		}
		if s.EndNs < 0 {
			continue
		}
		if replaySpan(s.Name) {
			wall += s.dur()
		} else if inReplay[i] {
			layers += self[i]
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(layers) / float64(wall)
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
