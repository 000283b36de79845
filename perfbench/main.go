// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the library, the serving engine and the trsparsed
// HTTP binary from outside, on seeded closed-loop workloads, checks every
// output against its own oracle, and prints one JSON result line.
//
//	perfbench -workload build-circuit -seed 1 -seconds 15 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics, timed by spans the benchmark records
// around its own calls into each module. See README.md for the workloads
// and what each metric should move.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	server   string // path to a built trsparsed binary (serve-solve)
	traceOut string // directory the span file is written to ("" skips it)
	tiny     bool   // test-sized inputs and counts
	corrupt  bool   // test hook: corrupt the first checked solution vector
	log      io.Writer
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"build-circuit": runBuildCircuit,
	"serve-solve":   runServeSolve,
	"stream-update": runStreamUpdate,
}

// bench is the state one workload run shares with its helpers.
type bench struct {
	cfg     config
	sz      sizes
	ctx     context.Context
	workers int // GOMAXPROCS, construction Workers and client count
	tr      *tracer
	rep     *report
}

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout, cfg.trace)
}

func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: build-circuit | serve-solve | stream-update")
	seed := fs.Int64("seed", 1, "workload seed: right-hand sides, request order, deltas and warm-up graph")
	seconds := fs.Float64("seconds", 15, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 reports per-layer metrics from spans")
	server := fs.String("server", "", "trsparsed binary for serve-solve")
	traceOut := fs.String("trace-out", filepath.Join(".bench_build", "traces"), "directory for the span file of a traced run")
	tiny := fs.Bool("tiny", false, "test-sized inputs (seconds per workload)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if _, ok := workloads[*workload]; !ok {
		return config{}, fmt.Errorf("unknown workload %q (want one of %v)", *workload, workloadNames())
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return config{}, fmt.Errorf("-seconds must be positive")
	}
	return config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		server: *server, traceOut: *traceOut, tiny: *tiny, log: os.Stderr,
	}, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one workload and returns its report. An error means the
// benchmark itself could not run (no result is printed); failed
// operations are counted in the report instead.
func run(cfg config) (*report, error) {
	if cfg.log == nil {
		cfg.log = io.Discard
	}
	workers := runtime.NumCPU()
	runtime.GOMAXPROCS(workers)
	b := &bench{
		cfg:     cfg,
		sz:      sizesFor(cfg),
		ctx:     context.Background(),
		workers: workers,
		tr:      newTracer(cfg.trace),
		rep:     newReport(cfg.log),
	}
	start := time.Now()
	if err := workloads[cfg.workload](b); err != nil {
		return nil, err
	}
	b.logf("%s done in %.1fs", cfg.workload, time.Since(start).Seconds())
	if cfg.trace {
		pct, n := b.tr.overheadPct()
		b.rep.layer("trace.overhead_pct", "%", pct, n)
		b.rep.spans = b.tr.selfTimes()
		if cfg.traceOut != "" {
			path := filepath.Join(cfg.traceOut, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
			if err := b.tr.write(path); err != nil {
				b.logf("writing spans: %v", err)
			} else {
				b.logf("spans written to %s", path)
			}
		}
	}
	return b.rep, nil
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.cfg.log, "perfbench: "+format+"\n", args...)
}

// window is the measurement window.
func (b *bench) window() time.Duration {
	return time.Duration(b.cfg.seconds * float64(time.Second))
}

// sizes fixes the inputs and minimum counts of every workload.
type sizes struct {
	circuitSide int // build-circuit: CircuitGrid side (302 = G3_circuit at scale 4)
	triSide     int // serve-solve: Tri2D side (262 = thermal2 at scale 4)
	streamSide  int // stream-update: CircuitGrid side
	streamParts int // stream-update: shard threshold is n / streamParts
	tile        int // stream-update: side of each reweighted tile
	setups      int // stream-update set-ups per run (setup_s is their median)
	serveSetups int // serve-solve set-ups (each starts a server and builds)
	genSetups   int // build-circuit set-ups (graph generation is short, so more)
	minBuilds   int // build-circuit: cold builds per run, at least
	minSingles  int // serve-solve: single-RHS requests per run, at least
	pushes      int // stream-update: tile reweights pushed per run
	layerReps   int // traced replays per layer call
}

func sizesFor(cfg config) sizes {
	if cfg.tiny {
		return sizes{
			circuitSide: 40, triSide: 32, streamSide: 48, streamParts: 4, tile: 16,
			setups: 2, serveSetups: 2, genSetups: 2, minBuilds: 2, minSingles: 6, pushes: 8, layerReps: 2,
		}
	}
	return sizes{
		circuitSide: 302, triSide: 262, streamSide: 200, streamParts: 16, tile: 20,
		setups: 3, serveSetups: 2, genSetups: 11, minBuilds: 4, minSingles: 60, pushes: 80, layerReps: 3,
	}
}
