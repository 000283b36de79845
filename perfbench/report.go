package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// metric is one reported figure. Samples is how many measurements the
// value aggregates; it is printed in the report table, not in the result
// line.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"-"`
}

// report accumulates one run's operation counts and metrics.
type report struct {
	log io.Writer

	mu        sync.Mutex
	attempted int
	failed    int
	e2e       map[string]metric
	layers    map[string]metric
	notes     map[string]metric // table-only figures of one workload
	spans     []selfTime        // traced runs: per-name span totals
}

func newReport(log io.Writer) *report {
	return &report{log: log, e2e: map[string]metric{}, layers: map[string]metric{}, notes: map[string]metric{}}
}

// op records one attempted operation; a non-nil err counts it as failed.
// It reports whether the operation succeeded.
func (r *report) op(what string, err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil {
		return true
	}
	r.failLocked(what, err)
	return false
}

// fail marks an already-counted operation as failed (a check that runs
// after its operation was recorded as attempted).
func (r *report) fail(what string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failLocked(what, err)
}

// failLocked counts a failure and logs the first few; r.mu is held.
func (r *report) failLocked(what string, err error) {
	r.failed++
	if r.failed <= 20 {
		fmt.Fprintf(r.log, "perfbench: FAILED %s: %v\n", what, err)
	}
}

// e2eMetric records an end-to-end metric.
func (r *report) e2eMetric(name, unit string, v float64, samples int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.e2e[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// layer records a per-layer metric.
func (r *report) layer(name, unit string, v float64, samples int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.layers[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// note records a figure the result line does not carry (a tail
// percentile with few samples beyond it, or one only this workload has);
// it is printed in the report table.
func (r *report) note(name, unit string, v float64, samples int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result returns the end-to-end or per-layer result. A metric with no
// samples (every operation it measures failed) is left out, and the run
// is then not correct.
func (r *report) result(trace bool) result {
	all := r.e2e
	if trace {
		all = r.layers
	}
	m := make(map[string]metric, len(all))
	for name, v := range all {
		if !math.IsNaN(v.Value) && !math.IsInf(v.Value, 0) {
			m[name] = v
		}
	}
	ok := r.failed == 0 && r.attempted > 0 && len(m) == len(all)
	return result{Correct: ok, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// print writes the human-readable table (every metric with its unit and
// sample count; traced runs also list the end-to-end figures measured
// with tracing on, and span self times), then the JSON result line.
func (r *report) print(w io.Writer, trace bool) {
	section := func(title string, m map[string]metric) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintf(w, "# %s\n", title)
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "#   %-28s %14.4f %-6s n=%d\n", n, m[n].Value, m[n].Unit, m[n].Samples)
		}
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d\n", r.attempted, r.failed)
	if trace {
		section("end-to-end, measured WITH tracing (compare with an untraced run for overhead)", r.e2e)
		section("per-layer", r.layers)
		if len(r.spans) > 0 {
			fmt.Fprintf(w, "# span self time (span minus child coverage)\n")
			for _, s := range r.spans {
				fmt.Fprintf(w, "#   %-40s n=%-5d total=%10.2fms self=%10.2fms\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
			}
		}
	} else {
		section("end-to-end", r.e2e)
	}
	section("this workload only (not in the result line)", r.notes)
	line, _ := json.Marshal(r.result(trace)) // finite floats, strings and ints always encode
	fmt.Fprintln(w, string(line))
}

// samples is a set of measurements of one quantity.
type samples []float64

// quantile returns the q-quantile by linear interpolation between order
// statistics (q in [0, 1]); NaN when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
