package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// declared reads the metric units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// serverBinary builds trsparsed once for the tests.
func serverBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "trsparsed")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/trsparsed").CombinedOutput()
	if err != nil {
		t.Fatalf("building trsparsed: %v\n%s", err, out)
	}
	return bin
}

func tinyConfig(t *testing.T, workload, server string, trace bool) config {
	return config{workload: workload, seed: 3, seconds: 0.3, trace: trace, server: server,
		traceOut: t.TempDir(), tiny: true}
}

// Every workload reports every metric BENCHMARK.json declares: all the
// end-to-end metrics untraced, all the per-layer metrics traced.
func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	e2eUnits, layerUnits := declared(t)
	server := serverBinary(t)
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			rep, err := run(tinyConfig(t, w, server, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			res := rep.result(trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			units := e2eUnits
			if trace {
				units = layerUnits
			}
			for name := range units {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, name)
				case m.Unit != units[name]:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w, trace, name, m.Unit, units[name])
				}
			}
			for name := range res.Metrics {
				if _, ok := units[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not declared in BENCHMARK.json", w, trace, name)
				}
			}
			if !trace {
				for name, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w, name, m.Value)
					}
				}
			}
		}
	}
}

func TestCorruptSolutionCounted(t *testing.T) {
	server := serverBinary(t)
	for _, w := range workloadNames() {
		cfg := tinyConfig(t, w, server, false)
		cfg.corrupt = true
		rep, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res := rep.result(false); res.Correct || res.Failed == 0 {
			t.Errorf("%s: a corrupted solution went unnoticed (correct=%v failed=%d)", w, res.Correct, res.Failed)
		}
	}
}

func TestOracle(t *testing.T) {
	g := graph.MustNew(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 1}, {U: 0, V: 3, W: 0.5}})
	o := newOracle(g)

	// b = (L + s·I) x for a random x: the residual of x is rounding.
	x := []float64{0.3, -1.2, 0.7, 0.2}
	s := o.shift()
	b := make([]float64, 4)
	for i := range b {
		b[i] = s * x[i]
	}
	for _, e := range g.Edges {
		f := e.W * (x[e.U] - x[e.V])
		b[e.U] += f
		b[e.V] -= f
	}
	if err := o.checkSolve(b, x, true, 1e-12, nil); err != nil {
		t.Errorf("exact solution rejected: %v", err)
	}
	bad := append([]float64(nil), x...)
	bad[2] += 0.01
	if o.checkSolve(b, bad, true, 1e-3, nil) == nil {
		t.Error("wrong solution accepted")
	}
	if o.checkSolve(b, x, false, 1e-3, nil) == nil {
		t.Error("non-converged solution accepted")
	}

	for name, p := range map[string][]graph.Edge{
		"foreign edge": {{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 1, V: 3, W: 1}},
		"heavier edge": {{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2.5}, {U: 2, V: 3, W: 1}},
		"disconnected": {{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}},
	} {
		if o.checkSparsifier(graph.MustNew(4, p)) == nil {
			t.Errorf("%s: sparsifier accepted", name)
		}
	}
	if err := o.checkSparsifier(graph.MustNew(4, g.Edges[:3])); err != nil {
		t.Errorf("spanning tree rejected: %v", err)
	}
}

func TestRHSZeroMeanAndSeeded(t *testing.T) {
	a, b := rhs(50, 2, 9), rhs(50, 2, 9)
	for j := range a {
		var sum float64
		for i := range a[j] {
			sum += a[j][i]
			if a[j][i] != b[j][i] {
				t.Fatal("same seed gave different right-hand sides")
			}
		}
		if sum > 1e-9 || sum < -1e-9 {
			t.Errorf("rhs %d sums to %g, want 0", j, sum)
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	tr := newTracer(true)
	tr.spans = []span{
		{ID: 1, Name: "root", StartMS: 0, EndMS: 10},
		{ID: 2, Parent: 1, Name: "a", StartMS: 1, EndMS: 4},
		{ID: 3, Parent: 1, Name: "b", StartMS: 3, EndMS: 6}, // overlaps a: covered once
		{ID: 4, Parent: 3, Name: "c", StartMS: 3, EndMS: 4},
	}
	tr.computeSelf()
	for i, want := range []float64{5, 3, 2, 1} {
		if got := tr.spans[i].SelfMS; got != want {
			t.Errorf("span %s: self %v, want %v", tr.spans[i].Name, got, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := samples{}
	for i := 10; i >= 1; i-- {
		s = append(s, float64(i))
	}
	rand.New(rand.NewSource(1)).Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	if got := s.median(); got != 5.5 {
		t.Errorf("median %v, want 5.5", got)
	}
	if got := s.quantile(0.9); math.Abs(got-9.1) > 1e-12 {
		t.Errorf("p90 %v, want 9.1", got)
	}
}

func TestCheckShift(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}})
	d := graph.Delta{Set: []graph.Edge{{U: 1, V: 2, W: 4}}}
	versions, err := versionShifts(g, []graph.Delta{d})
	if err != nil {
		t.Fatal(err)
	}
	if versions[0] == versions[1] {
		t.Fatal("a reweight did not change the shift")
	}
	uniform := func(s float64) []float64 { return []float64{s, s, s} }
	if err := checkShift(uniform(versions[0]), versions); err != nil {
		t.Errorf("base shift rejected: %v", err)
	}
	if err := checkShift(uniform(versions[1]), versions[:1]); err == nil {
		t.Error("shift of a later version accepted")
	}
	if err := checkShift([]float64{versions[0], versions[0], versions[1]}, versions); err == nil {
		t.Error("non-uniform shift accepted")
	}

	// A solution of the base-shift system checks against that shift only.
	o := newOracle(g)
	o.apply(d)
	x := []float64{0.5, -1, 0.25}
	s := uniform(versions[0])
	b := make([]float64, 3)
	for i := range b {
		b[i] = s[i] * x[i]
	}
	for k, w := range o.w {
		f := w * (x[o.u[k]] - x[o.v[k]])
		b[o.u[k]] += f
		b[o.v[k]] -= f
	}
	if err := o.checkSolve(b, x, true, 1e-12, s); err != nil {
		t.Errorf("exact solution rejected under its own shift: %v", err)
	}
	if o.checkSolve(b, x, true, 1e-12, nil) == nil {
		t.Error("solution accepted under another shift")
	}
}

func TestTracingOverheadAlternates(t *testing.T) {
	tr := newTracer(true)
	for k := 0; k < 4; k++ {
		req := tr.loopReq(k)
		if id := tr.begin("x", 0, req); (id == 0) != (k%2 == 1) {
			t.Errorf("iteration %d: span id %d", k, id)
		}
		tr.headline(req, float64(100+10*(1-k%2)))
	}
	if pct, n := tr.overheadPct(); n != 4 || math.Abs(pct-10) > 1e-12 {
		t.Errorf("overhead %v%% over %d, want 10%% over 4", pct, n)
	}
	if off := newTracer(false); off.loopReq(1) < 0 {
		t.Error("loopReq negated an id with tracing off")
	}
}
