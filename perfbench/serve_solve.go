package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Request and response shapes of trsparsed's /v2 API, declared here so
// the benchmark encodes and decodes them without importing the server.
type (
	graphBody struct {
		N     int          `json:"n"`
		Edges [][3]float64 `json:"edges"`
	}
	sparsifyReq struct {
		Graph graphBody `json:"graph"`
	}
	sparsifyResp struct {
		Key             string       `json:"key"`
		SparsifierEdges [][3]float64 `json:"sparsifier_edges"`
		Precond         struct {
			MemBytes int64 `json:"mem_bytes"`
		} `json:"precond"`
	}
	solveReq struct {
		Key string      `json:"key"`
		B   []float64   `json:"b,omitempty"`
		Rhs [][]float64 `json:"rhs,omitempty"`
		Tol float64     `json:"tol"`
	}
	solveColumn struct {
		X          []float64 `json:"x"`
		Iterations int       `json:"iterations"`
		RelRes     float64   `json:"relres"`
		Converged  bool      `json:"converged"`
	}
	solveResp struct {
		Key        string        `json:"key"`
		X          []float64     `json:"x"`
		Iterations int           `json:"iterations"`
		RelRes     float64       `json:"relres"`
		Converged  bool          `json:"converged"`
		Results    []solveColumn `json:"results"`
	}
)

const (
	batchWidth = 8 // right-hand sides per batched request
	// singlesPerBatch is the request mix: each client sends this many
	// single-RHS requests, then one batch, and repeats.
	singlesPerBatch = 3
	singlePool      = 12 // distinct single-RHS bodies per run
	batchPool       = 3  // distinct batch bodies per run
)

// triCase returns the Tri2D case (thermal2 at scale 4 for side 262).
func triCase(side int) *graph.Graph { return gen.Tri2D(side, side, caseSeed) }

// server is one trsparsed subprocess.
type server struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{}
}

// startServer launches trsparsed on a kernel-chosen loopback port and
// waits until it reports the address it listens on.
func startServer(bin string, workers int) (*server, error) {
	if bin == "" {
		return nil, fmt.Errorf("serve-solve needs the trsparsed binary (-server)")
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(workers), "-cache", "4")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workers))
	// The server must not outlive the benchmark, even one that crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		// Keep draining the log so the server never blocks on it.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "serving on "); i >= 0 {
				f := strings.Fields(line[i+len("serving on "):])
				if len(f) > 0 {
					select {
					case addrc <- f[0]:
					default:
					}
				}
			}
		}
		close(s.done)
	}()
	select {
	case s.addr = <-addrc:
		return s, nil
	case <-s.done:
		cmd.Wait()
		return nil, fmt.Errorf("trsparsed exited before listening")
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("trsparsed did not report its address within 30s")
	}
}

// stop terminates the server and waits for it to exit.
func (s *server) stop() {
	s.cmd.Process.Kill()
	<-s.done
	s.cmd.Wait()
}

// peakRSSMB reads the server's peak resident set (VmHWM) in MB.
func (s *server) peakRSSMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / mb
		}
	}
	return 0
}

// post sends one pre-encoded body and reads the whole response.
func post(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, data)
	}
	return data, nil
}

// newClient returns a keep-alive client. Its timeout is far above any
// request's latency, so only a hung server trips it.
func newClient() *http.Client {
	return &http.Client{Timeout: 30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// request is one pre-encoded solve request and what answers it.
type request struct {
	body []byte
	rhs  [][]float64 // one column for a single request, batchWidth for a batch

	mu       sync.Mutex
	verified []byte   // first response, checked after the loop
	hash     uint64   // its hash
	others   [][]byte // later responses that differ from it
}

// record keeps a response for checking: the first one in full, later
// ones only when their bytes differ from it (solves are deterministic, so
// an identical response is as correct as the first).
func (r *request) record(data []byte) {
	h := fnv.New64a()
	h.Write(data)
	sum := h.Sum64()
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.verified == nil:
		r.verified, r.hash = data, sum
	case sum != r.hash:
		r.others = append(r.others, data)
	}
}

// check decodes one response to r and verifies every column.
func (r *request) check(b *bench, orc *oracle, data []byte) error {
	var resp solveResp
	if err := json.Unmarshal(data, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	cols := resp.Results
	if len(r.rhs) == 1 {
		cols = []solveColumn{{X: resp.X, Iterations: resp.Iterations, RelRes: resp.RelRes, Converged: resp.Converged}}
	}
	if len(cols) != len(r.rhs) {
		return fmt.Errorf("response has %d columns, want %d", len(cols), len(r.rhs))
	}
	for i, c := range cols {
		b.corruptOnce(c.X)
		if err := orc.checkSolve(r.rhs[i], c.X, c.Converged, solveTol, nil); err != nil {
			return fmt.Errorf("column %d: %w", i, err)
		}
	}
	return nil
}

// runServeSolve measures solving over HTTP against one sparsifier held by
// a trsparsed subprocess: 2 keep-alive clients in a closed loop.
func runServeSolve(b *bench) error {
	g := triCase(b.sz.triSide)
	orc := newOracle(g)
	b.logf("serve-solve: %d vertices, %d edges", g.N, g.M())

	// Encode every request before any timing.
	gb := graphBody{N: g.N, Edges: make([][3]float64, g.M())}
	for i, e := range g.Edges {
		gb.Edges[i] = [3]float64{float64(e.U), float64(e.V), e.W}
	}
	sparsifyBody, err := json.Marshal(sparsifyReq{Graph: gb})
	if err != nil {
		return err
	}
	gb = graphBody{}

	// Set-up: start the server and build the sparsifier, several times;
	// the last server serves the loop.
	var srv *server
	var built sparsifyResp
	var setup samples
	for i := 0; i < b.sz.serveSetups; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		srv, err = startServer(b.cfg.server, b.workers)
		if err != nil {
			return err
		}
		data, err := post(newClient(), "http://"+srv.addr+"/v2/sparsify", sparsifyBody)
		d := time.Since(t0)
		if err == nil {
			built = sparsifyResp{}
			err = json.Unmarshal(data, &built)
		}
		if err == nil {
			err = orc.checkSparsifier(sparsifierGraph(g.N, built.SparsifierEdges))
		}
		if !b.rep.op("sparsify over HTTP", err) {
			srv.stop()
			return fmt.Errorf("set-up failed: %w", err)
		}
		setup = append(setup, d.Seconds())
	}
	defer srv.stop()
	url := "http://" + srv.addr + "/v2/solve"

	singles, batches := make([]*request, singlePool), make([]*request, batchPool)
	cols := rhs(g.N, singlePool+batchPool*batchWidth, b.cfg.seed)
	for i := range singles {
		singles[i] = &request{rhs: cols[i : i+1]}
		singles[i].body, _ = json.Marshal(solveReq{Key: built.Key, B: cols[i], Tol: solveTol})
	}
	for i := range batches {
		lo := singlePool + i*batchWidth
		batches[i] = &request{rhs: cols[lo : lo+batchWidth]}
		batches[i].body, _ = json.Marshal(solveReq{Key: built.Key, Rhs: cols[lo : lo+batchWidth], Tol: solveTol})
	}

	// The closed loop: each client sends its next request when the
	// previous answer has been read, until the window has passed and the
	// clients together have sent the minimum number of singles, answered
	// or failed. It stops early if the server exits, and at the latest
	// after maxWindows windows.
	const maxWindows = 3
	var mu sync.Mutex
	var singleMS, batchMS samples
	var rhsDone, failedSingles int
	stop := make(chan struct{})
	var wg sync.WaitGroup
	runtime.GC()
	phase := time.Now()
	for c := 0; c < b.workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newClient()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				var r *request
				name := "http.solve"
				if k%(singlesPerBatch+1) == singlesPerBatch {
					r, name = batches[(c+k)%batchPool], "http.solve_batch8"
				} else {
					r = singles[(c*singlePool/2+k)%singlePool]
				}
				req := b.tr.loopReq(k)
				id := b.tr.begin(name, 0, req)
				t0 := time.Now()
				data, err := post(client, url, r.body)
				d := ms(time.Since(t0))
				b.tr.end(id)
				if !b.rep.op(name, err) {
					if len(r.rhs) == 1 {
						mu.Lock()
						failedSingles++
						mu.Unlock()
					}
					continue
				}
				r.record(data)
				mu.Lock()
				if len(r.rhs) == 1 {
					singleMS = append(singleMS, d)
					b.tr.headline(req, d)
				} else {
					batchMS = append(batchMS, d)
				}
				rhsDone += len(r.rhs)
				mu.Unlock()
			}
		}(c)
	}
wait:
	for {
		select {
		case <-srv.done:
			b.rep.op("trsparsed", errors.New("server exited during the loop"))
			break wait
		case <-time.After(20 * time.Millisecond):
		}
		mu.Lock()
		n := len(singleMS) + failedSingles
		mu.Unlock()
		switch elapsed := time.Since(phase); {
		case elapsed >= b.window() && n >= b.sz.minSingles:
			break wait
		case elapsed >= maxWindows*b.window():
			b.logf("serve-solve: stopping after %d singles, short of %d", n, b.sz.minSingles)
			break wait
		}
	}
	close(stop)
	wg.Wait()
	wall := time.Since(phase)

	// Check every response: the first answer to each request in full,
	// and any later answer whose bytes differ from it.
	for _, r := range append(singles, batches...) {
		for _, data := range append([][]byte{r.verified}, r.others...) {
			if data == nil {
				continue
			}
			if err := r.check(b, orc, data); err != nil {
				b.rep.fail("solve response", err)
			}
		}
	}

	b.rep.e2eMetric("setup_s", "s", setup.median(), len(setup))
	b.rep.e2eMetric("op_ms_p50", "ms", batchMS.median(), len(batchMS))
	b.rep.e2eMetric("solve_ms_p50", "ms", singleMS.median(), len(singleMS))
	b.rep.note("batch8_ms_p90", "ms", batchMS.quantile(0.9), len(batchMS))
	b.rep.note("solve_ms_p90", "ms", singleMS.quantile(0.9), len(singleMS))
	b.rep.e2eMetric("rhs_per_s", "1/s", float64(rhsDone)/wall.Seconds(), rhsDone)
	b.rep.e2eMetric("factor_mb", "MB", float64(built.Precond.MemBytes)/mb, 1)

	fixed := &request{rhs: rhs(g.N, 1, itersSeed)}
	fixed.body, _ = json.Marshal(solveReq{Key: built.Key, B: fixed.rhs[0], Tol: solveTol})
	data, err := post(newClient(), url, fixed.body)
	if err == nil {
		err = fixed.check(b, orc, data)
	}
	if b.rep.op("pcg_iters solve", err) {
		var resp solveResp
		json.Unmarshal(data, &resp)
		b.rep.e2eMetric("pcg_iters", "count", float64(resp.Iterations), 1)
	}

	if !b.cfg.trace {
		return nil
	}
	// Serving-only figures, for the report table: the server's peak
	// resident set, and what HTTP adds to a single-RHS solve beyond the
	// in-process solve and the codec.
	b.rep.note("server.rss_mb", "MB", srv.peakRSSMB(), 1)
	srv.stop()
	if err := traceLayers(b, g, orc, nil, nil); err != nil {
		return err
	}
	l := b.rep.layers
	b.rep.note("http.overhead_ms", "ms", singleMS.median()-l["core.solve_ms"].Value-
		l["codec.request_decode_ms"].Value-l["codec.response_encode_ms"].Value, len(singleMS))
	return nil
}

// sparsifierGraph builds the graph a sparsify response lists.
func sparsifierGraph(n int, edges [][3]float64) *graph.Graph {
	es := make([]graph.Edge, len(edges))
	for i, e := range edges {
		es[i] = graph.Edge{U: int(e[0]), V: int(e[1]), W: e[2]}
	}
	g, err := graph.New(n, es)
	if err != nil {
		return nil
	}
	return g
}
