package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"time"

	trsparse "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/precond"
	"repro/internal/sparsify"
)

// maxBodyBytes caps request bodies; a 64 MiB Matrix Market file covers
// every SuiteSparse case the paper evaluates.
const maxBodyBytes = 64 << 20

// server wires the sparsification engine to the HTTP surface.
type server struct {
	eng   *engine.Engine
	start time.Time
}

func newServer(eng *engine.Engine) *server {
	return &server{eng: eng, start: time.Now()}
}

// handler builds the route table. /v2/* is the current surface: the same
// engine, plus per-request deadlines (?timeout_ms=) and structured error
// codes. /v1/* remains as a deprecation shim over the identical handlers —
// same request and response shapes as before — with Deprecation/Link
// headers pointing at the successor.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/sparsify", s.handleSparsify)
	mux.HandleFunc("POST /v2/update", s.handleUpdate)
	mux.HandleFunc("POST /v2/solve", s.handleSolve)
	mux.HandleFunc("POST /v2/partition", s.handlePartition)
	mux.HandleFunc("POST /v2/stream", s.handleStreamOpen)
	mux.HandleFunc("POST /v2/stream/{id}", s.handleStreamPush)
	mux.HandleFunc("GET /v2/stream/{id}", s.handleStreamStats)
	mux.HandleFunc("DELETE /v2/stream/{id}", s.handleStreamClose)
	mux.HandleFunc("GET /v2/stats", s.handleStats)
	mux.HandleFunc("POST /v1/sparsify", deprecated("/v2/sparsify", s.handleSparsify))
	mux.HandleFunc("POST /v1/solve", deprecated("/v2/solve", s.handleSolve))
	mux.HandleFunc("GET /v1/stats", deprecated("/v2/stats", s.handleStats))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// deprecated wraps a v1 route: it serves exactly the v2 handler but
// advertises the successor endpoint per RFC 8594-style headers so clients
// can migrate before /v1 is removed.
func deprecated(successor string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", fmt.Sprintf("<%s>; rel=\"successor-version\"", successor))
		h(w, r)
	}
}

// requestCtx derives the handler context: the client's disconnect context
// plus an optional per-request deadline from ?timeout_ms= (v2). Invalid or
// non-positive values are rejected by the caller via the returned error.
func requestCtx(r *http.Request) (context.Context, context.CancelFunc, error) {
	ctx := r.Context()
	raw := r.URL.Query().Get("timeout_ms")
	if raw == "" {
		return ctx, func() {}, nil
	}
	ms, err := strconv.ParseFloat(raw, 64)
	if err != nil || ms <= 0 || math.IsNaN(ms) || math.IsInf(ms, 0) {
		return nil, nil, fmt.Errorf("invalid timeout_ms %q (want a positive, finite number of milliseconds)", raw)
	}
	// Clamp absurd deadlines instead of letting the float→Duration
	// conversion overflow int64 into an already-expired context; anything
	// past a day is "no effective deadline" for this service.
	const maxTimeoutMS = 24 * 60 * 60 * 1000
	if ms > maxTimeoutMS {
		ms = maxTimeoutMS
	}
	ctx, cancel := context.WithTimeout(ctx, time.Duration(ms*float64(time.Millisecond)))
	return ctx, cancel, nil
}

// graphPayload is an inline graph: vertex count plus [u, v, w] triples.
type graphPayload struct {
	N     int          `json:"n"`
	Edges [][3]float64 `json:"edges"`
}

func (p *graphPayload) toGraph() (*graph.Graph, error) {
	if p == nil {
		return nil, errors.New("missing graph")
	}
	if p.N < 1 {
		return nil, fmt.Errorf("graph needs at least one vertex, got n=%d", p.N)
	}
	// Sparsification needs a connected graph, which takes at least n-1
	// edges; rejecting larger n here keeps a tiny request body from
	// driving O(n) adjacency allocations with an inflated vertex count.
	if p.N > len(p.Edges)+1 {
		return nil, fmt.Errorf("n=%d cannot be connected by %d edges", p.N, len(p.Edges))
	}
	edges := make([]graph.Edge, len(p.Edges))
	for i, e := range p.Edges {
		if e[0] != math.Trunc(e[0]) || e[1] != math.Trunc(e[1]) {
			return nil, fmt.Errorf("edge %d has non-integer endpoints [%g, %g]", i, e[0], e[1])
		}
		edges[i] = graph.Edge{U: int(e[0]), V: int(e[1]), W: e[2]}
	}
	return graph.New(p.N, edges)
}

func edgesPayload(g *graph.Graph) [][3]float64 {
	out := make([][3]float64, g.M())
	for i, e := range g.Edges {
		out[i] = [3]float64{float64(e.U), float64(e.V), e.W}
	}
	return out
}

type sparsifyRequest struct {
	Graph *graphPayload `json:"graph"`
}

// shardInfo is the response-side summary of a sharded build (or of the
// expander guard's decision to abandon one).
type shardInfo struct {
	Shards         int     `json:"shards"`
	CutEdges       int     `json:"cut_edges"`
	CutFraction    float64 `json:"cut_fraction"`
	CutRetained    int     `json:"cut_retained"`
	CutRecovered   int     `json:"cut_recovered"`
	FallbackSplits int     `json:"fallback_splits"`
	// ClustersRemote counts clusters of this build whose construction a
	// fleet worker answered (0 on fleet-less coordinators).
	ClustersRemote int `json:"clusters_remote,omitempty"`
	// Abandoned reports that the plan's cut fraction exceeded the guard
	// ceiling and the build fell back to the monolithic path.
	Abandoned bool `json:"abandoned,omitempty"`
}

// precondInfo is the response-side summary of how the artifact's
// preconditioner was built.
type precondInfo struct {
	Kind       string  `json:"kind"`
	Clusters   int     `json:"clusters,omitempty"`
	CoarseSize int     `json:"coarse_size,omitempty"`
	Colors     int     `json:"colors,omitempty"`
	FactorNNZ  int64   `json:"factor_nnz"`
	MemBytes   int64   `json:"mem_bytes"`
	BuildMS    float64 `json:"build_ms"`
}

// precondInfoOf extracts the preconditioner summary from an artifact.
func precondInfoOf(art *engine.Artifact) *precondInfo {
	ps := art.Handle.PrecondStats()
	if ps == nil {
		return nil
	}
	return &precondInfo{
		Kind:       ps.Kind,
		Clusters:   ps.Clusters,
		CoarseSize: ps.CoarseSize,
		Colors:     ps.Colors,
		FactorNNZ:  ps.FactorNNZ,
		MemBytes:   ps.MemBytes,
		BuildMS:    float64(ps.BuildTime) / float64(time.Millisecond),
	}
}

type sparsifyResponse struct {
	Key             string       `json:"key"`
	N               int          `json:"n"`
	M               int          `json:"m"`
	SparsifierEdges [][3]float64 `json:"sparsifier_edges,omitempty"`
	EdgeCount       int          `json:"sparsifier_edge_count"`
	Cached          bool         `json:"cached"`
	BuildMS         float64      `json:"build_ms"`
	// Sharded is non-nil when the artifact was built through the
	// partition-parallel pipeline (?shards=/?shard_threshold=, the
	// server's -shard-threshold default, or admission above
	// -max-vertices).
	Sharded *shardInfo `json:"sharded,omitempty"`
	// Precond reports how the artifact's preconditioner was built
	// (?precond=monolithic|schwarz|auto selects the strategy).
	Precond *precondInfo `json:"precond,omitempty"`
}

// buildOptsFrom parses the per-request build overrides: ?shards=K,
// ?shard_threshold=N (non-negative integers; 0 inherits the server
// default), ?precond=auto|monolithic|schwarz, and
// ?method=trace|grass|fegrass|er (absent inherits the server default).
func buildOptsFrom(r *http.Request) (engine.BuildOpts, error) {
	var bo engine.BuildOpts
	for _, p := range []struct {
		name string
		dst  *int
	}{
		{"shards", &bo.Shards},
		{"shard_threshold", &bo.ShardThreshold},
	} {
		raw := r.URL.Query().Get(p.name)
		if raw == "" {
			continue
		}
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			return bo, fmt.Errorf("invalid %s %q (want a non-negative integer)", p.name, raw)
		}
		*p.dst = v
	}
	if raw := r.URL.Query().Get("precond"); raw != "" {
		kind, err := precond.ParseKind(raw)
		if err != nil {
			return bo, fmt.Errorf("invalid precond %q (want auto, monolithic, or schwarz)", raw)
		}
		bo.Precond = kind
	}
	if raw := r.URL.Query().Get("method"); raw != "" {
		m, err := sparsify.ParseMethod(raw)
		if err != nil {
			return bo, fmt.Errorf("invalid method %q (want trace, grass, fegrass, or er)", raw)
		}
		bo.Method = &m
	}
	return bo, nil
}

// shardInfoOf extracts the response summary from a (possibly sharded)
// artifact.
func shardInfoOf(art *engine.Artifact) *shardInfo {
	st := art.Handle.ShardStats()
	if st == nil {
		return nil
	}
	return &shardInfo{
		Shards:         st.Shards,
		CutEdges:       st.CutEdges,
		CutFraction:    st.CutFraction,
		CutRetained:    st.CutRetained,
		CutRecovered:   st.CutRecovered,
		FallbackSplits: st.FallbackSplits,
		ClustersRemote: st.ClustersRemote,
		Abandoned:      st.Abandoned,
	}
}

// isMatrixMarket reports whether the request body is a Matrix Market file
// rather than JSON, judged by Content-Type (text/* or
// application/x-matrix-market) or an explicit ?format=mm.
func isMatrixMarket(r *http.Request) bool {
	if r.URL.Query().Get("format") == "mm" {
		return true
	}
	ct, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil {
		return false
	}
	return ct == "application/x-matrix-market" || strings.HasPrefix(ct, "text/")
}

// readGraph extracts the graph from a sparsify request body, accepting
// either JSON (inline edge list) or a raw Matrix Market upload.
func (s *server) readGraph(w http.ResponseWriter, r *http.Request) (*graph.Graph, error) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if isMatrixMarket(r) {
		return trsparse.ReadMatrixMarketGraph(body)
	}
	var req sparsifyRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding JSON body: %w", err)
	}
	return req.Graph.toGraph()
}

func (s *server) handleSparsify(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, err := requestCtx(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	bo, err := buildOptsFrom(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	g, err := s.readGraph(w, r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	art, cached, err := s.eng.SparsifyWith(ctx, g, bo)
	if err != nil {
		writeErr(w, statusOf(err), err)
		return
	}
	resp := sparsifyResponse{
		Key:       art.Key,
		N:         art.Fingerprint.N,
		M:         art.Fingerprint.M,
		EdgeCount: art.SparsifierGraph().M(),
		Cached:    cached,
		BuildMS:   float64(art.BuildTime) / float64(time.Millisecond),
		Sharded:   shardInfoOf(art),
		Precond:   precondInfoOf(art),
	}
	// ?edges=false skips materializing the sparsifier edge list — for
	// clients that only want the key for later /v1/solve calls, rendering
	// millions of [u,v,w] triples per request is pure memory amplification.
	if v := r.URL.Query().Get("edges"); v != "false" && v != "0" {
		resp.SparsifierEdges = edgesPayload(art.SparsifierGraph())
	}
	writeJSON(w, http.StatusOK, resp)
}

// updateRequest is an edge delta against a cached base artifact: set
// adds or reweights edges ([u, v, w] triples), remove deletes them
// ([u, v] pairs). The vertex set is fixed.
type updateRequest struct {
	Key    string       `json:"key"`
	Set    [][3]float64 `json:"set,omitempty"`
	Remove [][2]float64 `json:"remove,omitempty"`
}

func (r *updateRequest) toDelta() (graph.Delta, error) {
	var d graph.Delta
	for i, e := range r.Set {
		if e[0] != math.Trunc(e[0]) || e[1] != math.Trunc(e[1]) {
			return d, fmt.Errorf("set %d has non-integer endpoints [%g, %g]", i, e[0], e[1])
		}
		d.Set = append(d.Set, graph.Edge{U: int(e[0]), V: int(e[1]), W: e[2]})
	}
	for i, e := range r.Remove {
		if e[0] != math.Trunc(e[0]) || e[1] != math.Trunc(e[1]) {
			return d, fmt.Errorf("remove %d has non-integer endpoints [%g, %g]", i, e[0], e[1])
		}
		d.Remove = append(d.Remove, [2]int{int(e[0]), int(e[1])})
	}
	return d, nil
}

// reuseInfo is the response-side summary of what an incremental rebuild
// avoided: which fraction of the plan's clusters adopted their cached
// sparsifier verbatim, and how many Schwarz factors were reused.
type reuseInfo struct {
	// Incremental is false when the rebuild fell back to a full build
	// (monolithic base, rebalance guard replan, or abandoned plan).
	Incremental          bool    `json:"incremental"`
	Clusters             int     `json:"clusters"`
	ClustersReused       int     `json:"clusters_reused"`
	ClusterReuseFraction float64 `json:"cluster_reuse_fraction"`
	FactorsReused        int     `json:"factors_reused"`
}

func reuseInfoOf(art *engine.Artifact) *reuseInfo {
	st := art.Handle.ShardStats()
	if st == nil {
		return &reuseInfo{}
	}
	ri := &reuseInfo{
		Incremental:    st.Incremental,
		Clusters:       st.Shards,
		ClustersReused: st.ClustersReused,
	}
	if st.Shards > 0 {
		ri.ClusterReuseFraction = float64(st.ClustersReused) / float64(st.Shards)
	}
	if ps := art.Handle.PrecondStats(); ps != nil {
		ri.FactorsReused = ps.FactorsReused
	}
	return ri
}

type updateResponse struct {
	// Key identifies the NEW artifact (the updated graph's fingerprint);
	// BaseKey echoes the artifact the delta was applied to.
	Key       string       `json:"key"`
	BaseKey   string       `json:"base_key"`
	N         int          `json:"n"`
	M         int          `json:"m"`
	EdgeCount int          `json:"sparsifier_edge_count"`
	Cached    bool         `json:"cached"`
	BuildMS   float64      `json:"build_ms"`
	Reuse     *reuseInfo   `json:"reuse"`
	Sharded   *shardInfo   `json:"sharded,omitempty"`
	Precond   *precondInfo `json:"precond,omitempty"`
}

// handleUpdate serves the incremental rebuild path: POST a base artifact
// key plus an edge delta, get back a new artifact for the updated graph
// that reused every cluster the delta did not touch. The new artifact
// replaces any whole-graph cache entry under the same key (see
// MIGRATION.md).
func (s *server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, err := requestCtx(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	var req updateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding JSON body: %w", err))
		return
	}
	if req.Key == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing base artifact key"))
		return
	}
	d, err := req.toDelta()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if d.Empty() {
		writeErr(w, http.StatusBadRequest, errors.New("empty delta: pass set and/or remove"))
		return
	}
	art, cached, err := s.eng.Update(ctx, req.Key, d)
	if err != nil {
		writeErr(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, updateResponse{
		Key:       art.Key,
		BaseKey:   req.Key,
		N:         art.Fingerprint.N,
		M:         art.Fingerprint.M,
		EdgeCount: art.SparsifierGraph().M(),
		Cached:    cached,
		BuildMS:   float64(art.BuildTime) / float64(time.Millisecond),
		Reuse:     reuseInfoOf(art),
		Sharded:   shardInfoOf(art),
		Precond:   precondInfoOf(art),
	})
}

type solveRequest struct {
	// Key references an artifact from a previous /v1/sparsify response;
	// alternatively pass the graph inline.
	Key   string        `json:"key,omitempty"`
	Graph *graphPayload `json:"graph,omitempty"`
	B     []float64     `json:"b,omitempty"`
	// Rhs is the batched form: an array of right-hand-side vectors solved
	// together as one block solve (one matrix sweep and one
	// preconditioner apply per iteration serve every column). Exactly one
	// of B and Rhs must be set; every Rhs column must have the same
	// length.
	Rhs [][]float64 `json:"rhs,omitempty"`
	Tol float64     `json:"tol,omitempty"`
}

type solveResponse struct {
	Key        string    `json:"key"`
	X          []float64 `json:"x"`
	Iterations int       `json:"iterations"`
	RelRes     float64   `json:"relres"`
	Converged  bool      `json:"converged"`
	Cached     bool      `json:"cached"`
	// Precond reports the preconditioner the solve ran through. For
	// inline graphs ?precond= selects the strategy at build time; for
	// by-key solves the artifact's existing preconditioner is reported
	// (the key pins the build, so ?precond= cannot change it — re-POST
	// /v2/sparsify with the desired strategy instead).
	Precond *precondInfo `json:"precond,omitempty"`
}

// solveColumn is one right-hand side's outcome in a batched solve
// response: its solution plus its own convergence record (block PCG
// converges and deflates columns independently).
type solveColumn struct {
	X          []float64 `json:"x"`
	Iterations int       `json:"iterations"`
	RelRes     float64   `json:"relres"`
	Converged  bool      `json:"converged"`
}

// solveBatchResponse answers the batched request form (rhs array).
type solveBatchResponse struct {
	Key     string        `json:"key"`
	Results []solveColumn `json:"results"`
	Cached  bool          `json:"cached"`
	Precond *precondInfo  `json:"precond,omitempty"`
}

func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, err := requestCtx(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	bo, err := buildOptsFrom(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var req solveRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding JSON body: %w", err))
		return
	}
	if len(req.B) > 0 && len(req.Rhs) > 0 {
		writeErr(w, http.StatusBadRequest, errors.New("pass either b (one rhs) or rhs (a batch), not both"))
		return
	}
	if len(req.B) == 0 && len(req.Rhs) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("missing right-hand side: pass b (one vector) or rhs (an array of vectors)"))
		return
	}
	// Ragged batches are a malformed request, rejected here with the
	// machine-readable invalid_request code before any engine work: the
	// engine's own dimension check would blame the artifact instead.
	for i, col := range req.Rhs {
		if len(col) != len(req.Rhs[0]) {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("ragged rhs batch: column %d has length %d, column 0 has %d", i, len(col), len(req.Rhs[0])))
			return
		}
	}
	if len(req.Rhs) > 0 && len(req.Rhs[0]) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("rhs columns are empty"))
		return
	}

	var art *engine.Artifact
	cached := false
	switch {
	case req.Key != "":
		var ok bool
		if art, ok = s.eng.Lookup(req.Key); !ok {
			writeErr(w, http.StatusNotFound,
				fmt.Errorf("no cached artifact for key %q (evicted or never built); re-POST /v2/sparsify", req.Key))
			return
		}
		cached = true
	case req.Graph != nil:
		g, err := req.Graph.toGraph()
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		// Reject a mis-sized rhs before paying for sparsification and
		// factorization (the engine re-checks for the by-key path).
		n := len(req.B)
		if len(req.Rhs) > 0 {
			n = len(req.Rhs[0])
		}
		if n != g.N {
			writeErr(w, http.StatusBadRequest, fmt.Errorf(
				"rhs has length %d, graph has %d vertices (%w)", n, g.N, core.ErrDimension))
			return
		}
		if art, cached, err = s.eng.SparsifyWith(ctx, g, bo); err != nil {
			writeErr(w, statusOf(err), err)
			return
		}
	default:
		writeErr(w, http.StatusBadRequest, errors.New("pass either key or graph"))
		return
	}

	if len(req.Rhs) > 0 {
		results, err := s.eng.SolveBatchArtifact(ctx, art, req.Rhs, req.Tol)
		if err != nil {
			writeErr(w, statusOf(err), err)
			return
		}
		cols := make([]solveColumn, len(results))
		for i, r := range results {
			cols[i] = solveColumn{X: r.X, Iterations: r.Iterations, RelRes: r.RelRes, Converged: r.Converged}
		}
		writeJSON(w, http.StatusOK, solveBatchResponse{
			Key:     art.Key,
			Results: cols,
			Cached:  cached,
			Precond: precondInfoOf(art),
		})
		return
	}

	res, err := s.eng.SolveArtifact(ctx, art, req.B, req.Tol)
	if err != nil {
		writeErr(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, solveResponse{
		Key:        art.Key,
		X:          res.X,
		Iterations: res.Iterations,
		RelRes:     res.RelRes,
		Converged:  res.Converged,
		Cached:     cached,
		Precond:    precondInfoOf(art),
	})
}

type partitionRequest struct {
	// Key references an artifact from a previous /v2/sparsify response;
	// alternatively pass the graph inline.
	Key   string        `json:"key,omitempty"`
	Graph *graphPayload `json:"graph,omitempty"`
}

type partitionResponse struct {
	Key       string `json:"key"`
	Partition []int  `json:"partition"`
}

// handlePartition serves the paper's §4.3 application — a balanced
// spectral bipartition via the sparsifier-preconditioned Fiedler vector —
// through the same cached artifacts the solve path uses.
func (s *server) handlePartition(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, err := requestCtx(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	var req partitionRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding JSON body: %w", err))
		return
	}
	var art *engine.Artifact
	switch {
	case req.Key != "":
		var ok bool
		if art, ok = s.eng.Lookup(req.Key); !ok {
			writeErr(w, http.StatusNotFound,
				fmt.Errorf("no cached artifact for key %q (evicted or never built); re-POST /v2/sparsify", req.Key))
			return
		}
	case req.Graph != nil:
		g, err := req.Graph.toGraph()
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if art, _, err = s.eng.Sparsify(ctx, g); err != nil {
			writeErr(w, statusOf(err), err)
			return
		}
	default:
		writeErr(w, http.StatusBadRequest, errors.New("pass either key or graph"))
		return
	}
	part, err := s.eng.PartitionArtifact(ctx, art)
	if err != nil {
		writeErr(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, partitionResponse{Key: art.Key, Partition: part})
}

type statsResponse struct {
	engine.Stats
	HitRate       float64 `json:"cache_hit_rate"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	// CoalesceWindowMS echoes the configured -coalesce-window (0 when
	// request coalescing is disabled), so operators reading batch_p50
	// know what window produced it.
	CoalesceWindowMS float64 `json:"coalesce_window_ms"`
	// Streams is the per-session detail behind the aggregate stream_*
	// counters; absent when no sessions are open.
	Streams []engine.StreamStats `json:"streams,omitempty"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	writeJSON(w, http.StatusOK, statsResponse{
		Stats:            st,
		HitRate:          st.HitRate(),
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Workers:          s.eng.Options().Workers,
		CoalesceWindowMS: float64(s.eng.Options().CoalesceWindow) / float64(time.Millisecond),
		Streams:          s.eng.StreamStats(),
	})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// classify maps an engine or library error to its (HTTP status,
// machine-readable code) pair — the single source of the structured error
// taxonomy: cancellations and timeouts surface as 503 (the service is
// saturated, the per-request deadline passed, or the client gave up),
// oversized graphs as 413, dimension mismatches as 400, recovered panics
// as 500 (an engine fault, not the client's graph), everything else as
// 422 (the graph itself was unusable).
func classify(err error) (int, string) {
	switch {
	case errors.Is(err, core.ErrCanceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "canceled"
	case errors.Is(err, core.ErrDisconnected):
		return http.StatusUnprocessableEntity, "disconnected"
	case errors.Is(err, core.ErrNotSPD):
		return http.StatusUnprocessableEntity, "not_spd"
	case errors.Is(err, core.ErrTooLarge):
		return http.StatusRequestEntityTooLarge, "too_large"
	case errors.Is(err, core.ErrDimension):
		return http.StatusBadRequest, "dimension"
	case errors.Is(err, core.ErrNonFinite):
		return http.StatusUnprocessableEntity, "non_finite"
	case errors.Is(err, engine.ErrUnknownKey):
		return http.StatusNotFound, "unknown_key"
	case errors.Is(err, engine.ErrInternal):
		return http.StatusInternalServerError, "internal"
	case errors.Is(err, engine.ErrStreamBackpressure):
		return http.StatusTooManyRequests, "backpressure"
	case errors.Is(err, engine.ErrStreamClosed):
		return http.StatusConflict, "stream_closed"
	case errors.Is(err, engine.ErrStreamLimit):
		return http.StatusServiceUnavailable, "stream_limit"
	case errors.Is(err, engine.ErrBadDelta):
		return http.StatusBadRequest, "bad_delta"
	case errors.Is(err, errUnknownStream):
		return http.StatusNotFound, "unknown_stream"
	}
	return http.StatusUnprocessableEntity, "invalid_graph"
}

// statusOf is classify's status for call sites that pick the code later.
func statusOf(err error) int {
	status, _ := classify(err)
	return status
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Encode before committing the status so an encoding failure (e.g. a
	// NaN that slipped into a result) yields a clean 500 instead of a 200
	// with a truncated body.
	buf, err := json.Marshal(v)
	if err != nil {
		log.Printf("encoding response: %v", err)
		status = http.StatusInternalServerError
		buf = []byte(`{"error":"internal server error: unencodable response","code":"internal"}`)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(append(buf, '\n')); err != nil {
		log.Printf("writing response: %v", err)
	}
}

type errorResponse struct {
	Error string `json:"error"`
	// Code is the machine-readable member of the structured error
	// taxonomy: canceled | disconnected | not_spd | too_large | dimension
	// | non_finite | unknown_key | internal | invalid_request |
	// invalid_graph | backpressure | stream_closed | stream_limit |
	// bad_delta | unknown_stream.
	Code string `json:"code"`
}

func writeErr(w http.ResponseWriter, status int, err error) {
	// The code comes from the error taxonomy when it recognizes the error;
	// otherwise the handler-chosen status names the code (a 404 is an
	// unknown key, a 400 a malformed request, a 5xx an engine fault, and
	// the 422 fallback an unusable graph).
	_, code := classify(err)
	if code == "invalid_graph" {
		switch {
		case status == http.StatusNotFound:
			code = "unknown_key"
		case status == http.StatusBadRequest:
			code = "invalid_request"
		case status >= http.StatusInternalServerError:
			code = "internal"
		}
	}
	// Server faults keep their detail in the log, not the response body.
	// Cancellations also map to 5xx (503) but are the client's deadline,
	// not a fault — their message is useful and safe to return.
	if code == "internal" {
		log.Printf("internal error: %v", err)
		err = errors.New("internal server error")
	}
	writeJSON(w, status, errorResponse{Error: err.Error(), Code: code})
}
