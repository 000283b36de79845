package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a module. Spans of one
// build or one request share Req; Parent is the enclosing span's ID (0 at
// the root).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Req     int64   `json:"req"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// tracer keeps spans in memory and writes them out when the run ends. A
// disabled tracer records nothing, so untraced runs pay one branch per
// call site.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	req   atomic.Int64
	// The headline figure of each end-to-end loop iteration (ms), split
	// by whether the iteration was traced; their medians give the
	// tracing overhead.
	traced, untraced samples
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// newReq returns a fresh per-build or per-request id.
func (t *tracer) newReq() int64 { return t.req.Add(1) }

// loopReq returns the id of iteration k of an end-to-end loop. In a
// traced run every odd iteration gets a negative id, which records no
// spans, so the loop measures the same work traced and untraced.
func (t *tracer) loopReq(k int) int64 {
	r := t.newReq()
	if t.on && k%2 == 1 {
		return -r
	}
	return r
}

// headline records the headline figure d (ms) of the loop iteration req.
func (t *tracer) headline(req int64, d float64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if req < 0 {
		t.untraced = append(t.untraced, d)
	} else {
		t.traced = append(t.traced, d)
	}
}

// begin opens a span and returns its ID (0 when tracing is off or req is
// an untraced loop iteration).
func (t *tracer) begin(name string, parent int, req int64) int {
	if !t.on || req < 0 {
		return 0
	}
	now := ms(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, StartMS: now, EndMS: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := ms(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndMS = now
	t.mu.Unlock()
}

// do runs fn inside a span and returns the span's duration in
// milliseconds (measured even when tracing is off).
func (t *tracer) do(name string, parent int, req int64, fn func(id int)) float64 {
	id := t.begin(name, parent, req)
	start := time.Now()
	fn(id)
	d := ms(time.Since(start))
	t.end(id)
	return d
}

// durations returns the durations of every closed span named name.
func (t *tracer) durations(name string) samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out samples
	for _, s := range t.spans {
		if s.Name == name && s.EndMS >= 0 {
			out = append(out, s.EndMS-s.StartMS)
		}
	}
	return out
}

// childSum returns, for every closed span named parentName, the summed
// duration of its direct children named childName.
func (t *tracer) childSum(parentName, childName string) samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	sums := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == parentName && s.EndMS >= 0 {
			sums[s.ID] = 0
		}
	}
	for _, s := range t.spans {
		if _, ok := sums[s.Parent]; ok && s.Name == childName && s.EndMS >= 0 {
			sums[s.Parent] += s.EndMS - s.StartMS
		}
	}
	out := make(samples, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	return out
}

// computeSelf fills every span's SelfMS: its duration minus the part of
// that interval its children cover (overlapping children count once).
func (t *tracer) computeSelf() {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][][2]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.EndMS >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.StartMS, s.EndMS})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.EndMS < 0 {
			continue
		}
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := 0.0, s.StartMS
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.EndMS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.SelfMS = s.EndMS - s.StartMS - covered
	}
}

// selfTime totals the spans of one name.
type selfTime struct {
	Name    string
	Count   int
	TotalMS float64
	SelfMS  float64
}

// selfTimes returns per-name totals, largest self time first.
func (t *tracer) selfTimes() []selfTime {
	t.computeSelf()
	t.mu.Lock()
	defer t.mu.Unlock()
	by := map[string]*selfTime{}
	for _, s := range t.spans {
		if s.EndMS < 0 {
			continue
		}
		st := by[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.TotalMS += s.EndMS - s.StartMS
		st.SelfMS += s.SelfMS
	}
	out := make([]selfTime, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// overheadPct returns how much slower the loop's traced iterations were
// than its untraced ones, in percent of the untraced median, and the
// number of iterations behind it. It is NaN without both kinds.
func (t *tracer) overheadPct() (float64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	off := t.untraced.median()
	return 100 * (t.traced.median() - off) / off, len(t.traced) + len(t.untraced)
}

// write stores every span as JSON under path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
