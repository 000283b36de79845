package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/tdigest"
)

// latencyBucketsMS are the upper bounds (milliseconds, inclusive) of the
// job-latency histogram; the final implicit bucket is +Inf.
var latencyBucketsMS = [...]float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// histogram is a fixed-bucket latency histogram with atomic counters, safe
// for concurrent observation without locks.
type histogram struct {
	counts [len(latencyBucketsMS) + 1]atomic.Int64
	sumNS  atomic.Int64
	n      atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(latencyBucketsMS) && ms > latencyBucketsMS[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNS.Add(int64(d))
	h.n.Add(1)
}

// latencyTrack pairs the lock-free fixed-bucket histogram with a merging
// t-digest of the same observations. The buckets answer "what shape is
// the distribution" cheaply and compatibly with existing dashboards; the
// digest answers "what is p99, exactly" — fixed millisecond buckets
// cannot resolve microsecond-scale stream updates (everything lands in
// the first bucket and interpolation invents the answer). Observations
// take one short mutex hold; snapshots quantile under the same lock.
type latencyTrack struct {
	histogram
	mu sync.Mutex
	td *tdigest.TDigest
}

func (t *latencyTrack) observe(d time.Duration) {
	t.histogram.observe(d)
	t.mu.Lock()
	if t.td == nil {
		t.td = tdigest.New(0)
	}
	t.td.Add(float64(d) / float64(time.Microsecond))
	t.mu.Unlock()
}

// quantilesUS returns digest-exact percentiles in microseconds.
func (t *latencyTrack) quantilesUS(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	t.mu.Lock()
	if t.td != nil {
		for i, q := range qs {
			out[i] = t.td.Quantile(q)
		}
	}
	t.mu.Unlock()
	return out
}

// LatencyBucket is one histogram bucket in a stats snapshot.
type LatencyBucket struct {
	// LE is the bucket's inclusive upper bound in milliseconds;
	// +Inf is rendered as -1 for JSON friendliness.
	LE    float64 `json:"le_ms"`
	Count int64   `json:"count"`
}

// Stats is a point-in-time snapshot of engine counters.
type Stats struct {
	// Cache behaviour.
	Hits      int64 `json:"cache_hits"`
	Misses    int64 `json:"cache_misses"`
	Builds    int64 `json:"builds"`
	Evictions int64 `json:"evictions"`
	CacheLen  int   `json:"cache_len"`
	CacheCap  int   `json:"cache_cap"`
	// Sharded-pipeline behaviour: how many builds went through the
	// partition-parallel path, the total cluster count they produced,
	// how many plans the expander guard abandoned (high cut fraction →
	// monolithic fallback), and how many artifacts carry an
	// additive-Schwarz preconditioner instead of a monolithic factor.
	ShardedBuilds   int64 `json:"sharded_builds"`
	ShardsBuilt     int64 `json:"shards_built"`
	AbandonedPlans  int64 `json:"abandoned_plans"`
	SchwarzPreconds int64 `json:"schwarz_preconds"`
	// Incremental-rebuild behaviour: delta rebuilds served, clusters
	// whose cached sparsifier was adopted verbatim across all builds, and
	// the cluster store's own hit/miss/eviction accounting (one lookup
	// per planned cluster per sharded build).
	IncrementalBuilds int64 `json:"incremental_builds"`
	ClustersReused    int64 `json:"clusters_reused"`
	ClusterHits       int64 `json:"cluster_hits"`
	ClusterMisses     int64 `json:"cluster_misses"`
	ClusterEvictions  int64 `json:"cluster_evictions"`
	ClusterCacheLen   int   `json:"cluster_cache_len"`
	ClusterCacheCap   int   `json:"cluster_cache_cap"`
	// ClusterCacheBytes is the cluster store's accounted artifact
	// footprint; ClusterCacheMaxBytes the configured byte budget
	// (0 = count-bounded only).
	ClusterCacheBytes    int64 `json:"cluster_cache_bytes"`
	ClusterCacheMaxBytes int64 `json:"cluster_cache_max_bytes"`
	// ClustersRemote counts clusters whose construction a worker fleet
	// answered, summed across sharded builds (0 on fleet-less engines).
	ClustersRemote int64 `json:"clusters_remote"`
	// Fleet is the worker-fleet telemetry — per-worker health and
	// counters, degradation totals, remote latency — when a fleet is
	// configured; absent otherwise.
	Fleet *fabric.Stats `json:"fleet,omitempty"`
	// Solve-batching behaviour: block solves executed (window-coalesced
	// batches plus explicit batched requests), requests that joined an
	// already-open coalescing batch instead of solving alone, and the
	// exact batch-width percentiles over executed batches. A healthy
	// coalescing deployment shows BatchP50 > 1 under concurrent load;
	// BatchP50 == 1 means the window never caught two requests together.
	SolveBatches    int64   `json:"solve_batches"`
	SolvesCoalesced int64   `json:"solves_coalesced"`
	BatchP50        float64 `json:"batch_p50"`
	BatchP95        float64 `json:"batch_p95"`
	// Job behaviour.
	Jobs      int64 `json:"jobs_total"`
	InFlight  int64 `json:"jobs_in_flight"`
	Timeouts  int64 `json:"job_timeouts"`
	JobErrors int64 `json:"job_errors"`
	// Latency of completed jobs (queue wait + work), EXCLUDING
	// incremental delta rebuilds: those are fast by design, and folding
	// them into the same buckets would drag the percentiles down until
	// they stopped describing the cold path once delta traffic dominates.
	// The percentiles are derived from the histogram by linear
	// interpolation inside the containing bucket, so operators don't have
	// to re-derive them client-side; observations landing in the +Inf
	// bucket clamp to the largest finite bound.
	MeanLatencyMS float64         `json:"mean_latency_ms"`
	P50LatencyMS  float64         `json:"p50_latency_ms"`
	P95LatencyMS  float64         `json:"p95_latency_ms"`
	P99LatencyMS  float64         `json:"p99_latency_ms"`
	Latency       []LatencyBucket `json:"latency_histogram"`
	// Digest-exact percentiles in microseconds (merging t-digest behind
	// the fixed buckets): the buckets keep dashboard compatibility, the
	// digest resolves sub-millisecond tails the buckets flatten.
	P50LatencyUS float64 `json:"p50_latency_us"`
	P95LatencyUS float64 `json:"p95_latency_us"`
	P99LatencyUS float64 `json:"p99_latency_us"`
	// The same latency block for incremental (Update) builds only.
	IncrementalMeanLatencyMS float64         `json:"incremental_mean_latency_ms"`
	IncrementalP50LatencyMS  float64         `json:"incremental_p50_latency_ms"`
	IncrementalP95LatencyMS  float64         `json:"incremental_p95_latency_ms"`
	IncrementalP99LatencyMS  float64         `json:"incremental_p99_latency_ms"`
	IncrementalLatency       []LatencyBucket `json:"incremental_latency_histogram"`
	IncrementalP50LatencyUS  float64         `json:"incremental_p50_latency_us"`
	IncrementalP95LatencyUS  float64         `json:"incremental_p95_latency_us"`
	IncrementalP99LatencyUS  float64         `json:"incremental_p99_latency_us"`
	// Streaming-session behaviour (/v2/stream): open sessions, rebuilds
	// applied across all sessions, pushes that merged into an already
	// pending rebuild instead of paying their own, pushes refused for
	// backpressure, and the per-update rebuild latency — digest-exact in
	// microseconds, where stream updates actually live.
	StreamSessions     int             `json:"stream_sessions"`
	StreamUpdates      int64           `json:"stream_updates"`
	StreamCoalesced    int64           `json:"stream_coalesced"`
	StreamBackpressure int64           `json:"stream_backpressure"`
	StreamMeanMS       float64         `json:"stream_mean_latency_ms"`
	StreamLatency      []LatencyBucket `json:"stream_latency_histogram"`
	StreamP50US        float64         `json:"stream_p50_latency_us"`
	StreamP95US        float64         `json:"stream_p95_latency_us"`
	StreamP99US        float64         `json:"stream_p99_latency_us"`
}

// percentile estimates the q-quantile (0 < q < 1) in milliseconds from
// the bucket counts, interpolating linearly within the containing bucket.
func percentile(counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = latencyBucketsMS[i-1]
		}
		if i >= len(latencyBucketsMS) {
			// +Inf bucket: no finite upper bound to interpolate toward.
			return latencyBucketsMS[len(latencyBucketsMS)-1]
		}
		hi := latencyBucketsMS[i]
		frac := (rank - float64(prev)) / float64(c)
		return lo + frac*(hi-lo)
	}
	return latencyBucketsMS[len(latencyBucketsMS)-1]
}

// HitRate returns the cache hit fraction (0 when no lookups happened).
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// counters aggregates the engine's mutable telemetry.
type counters struct {
	hits               atomic.Int64
	misses             atomic.Int64
	builds             atomic.Int64
	shardedBuilds      atomic.Int64
	shardsBuilt        atomic.Int64
	abandonedPlans     atomic.Int64
	schwarzPreconds    atomic.Int64
	incrementalBuilds  atomic.Int64
	clustersReused     atomic.Int64
	clustersRemote     atomic.Int64
	solveBatches       atomic.Int64
	solvesCoalesced    atomic.Int64
	batchSizes         [batchSizeCap + 1]atomic.Int64
	jobs               atomic.Int64
	inFlight           atomic.Int64
	timeouts           atomic.Int64
	jobErrors          atomic.Int64
	streamUpdates      atomic.Int64
	streamCoalesced    atomic.Int64
	streamBackpressure atomic.Int64
	latency            latencyTrack
	incLatency         latencyTrack
	streamLatency      latencyTrack
}

// batchSizeCap bounds the exact batch-width distribution; batches wider
// than this (possible only with an explicit CoalesceMaxBatch above it or
// a wide client-supplied rhs array) clamp into the last slot, keeping
// the percentiles conservative rather than wrong.
const batchSizeCap = 64

// observeBatchSize records one executed block solve's width (in
// right-hand sides) into the exact size distribution.
func (c *counters) observeBatchSize(s int) {
	if s < 1 {
		return
	}
	if s > batchSizeCap {
		s = batchSizeCap
	}
	c.batchSizes[s].Add(1)
}

// batchPercentile returns the smallest batch width whose cumulative
// count reaches the q-quantile of the exact size distribution (0 when
// no batches ran). Unlike the latency percentiles there is no
// interpolation: widths are small integers and the exact counts are
// kept, so the answer is the true order statistic.
func batchPercentile(counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for s, c := range counts {
		cum += c
		if float64(cum) >= rank && c > 0 {
			return float64(s)
		}
	}
	return float64(len(counts) - 1)
}

// snapshotLatency renders one histogram into a bucket list, mean, and
// interpolated percentiles.
func snapshotLatency(h *histogram) (buckets []LatencyBucket, mean, p50, p95, p99 float64) {
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		le := -1.0 // +Inf bucket
		if i < len(latencyBucketsMS) {
			le = latencyBucketsMS[i]
		}
		counts[i] = h.counts[i].Load()
		buckets = append(buckets, LatencyBucket{LE: le, Count: counts[i]})
	}
	if n := h.n.Load(); n > 0 {
		mean = float64(h.sumNS.Load()) / float64(n) / float64(time.Millisecond)
	}
	return buckets, mean, percentile(counts, 0.50), percentile(counts, 0.95), percentile(counts, 0.99)
}

func (c *counters) snapshot() Stats {
	s := Stats{
		Hits:              c.hits.Load(),
		Misses:            c.misses.Load(),
		Builds:            c.builds.Load(),
		ShardedBuilds:     c.shardedBuilds.Load(),
		ShardsBuilt:       c.shardsBuilt.Load(),
		AbandonedPlans:    c.abandonedPlans.Load(),
		SchwarzPreconds:   c.schwarzPreconds.Load(),
		IncrementalBuilds: c.incrementalBuilds.Load(),
		ClustersReused:    c.clustersReused.Load(),
		ClustersRemote:    c.clustersRemote.Load(),
		SolveBatches:      c.solveBatches.Load(),
		SolvesCoalesced:   c.solvesCoalesced.Load(),
		Jobs:              c.jobs.Load(),
		InFlight:          c.inFlight.Load(),
		Timeouts:          c.timeouts.Load(),
		JobErrors:         c.jobErrors.Load(),
	}
	sizes := make([]int64, len(c.batchSizes))
	for i := range c.batchSizes {
		sizes[i] = c.batchSizes[i].Load()
	}
	s.BatchP50 = batchPercentile(sizes, 0.50)
	s.BatchP95 = batchPercentile(sizes, 0.95)
	s.Latency, s.MeanLatencyMS, s.P50LatencyMS, s.P95LatencyMS, s.P99LatencyMS = snapshotLatency(&c.latency.histogram)
	s.IncrementalLatency, s.IncrementalMeanLatencyMS, s.IncrementalP50LatencyMS,
		s.IncrementalP95LatencyMS, s.IncrementalP99LatencyMS = snapshotLatency(&c.incLatency.histogram)
	q := c.latency.quantilesUS(0.50, 0.95, 0.99)
	s.P50LatencyUS, s.P95LatencyUS, s.P99LatencyUS = q[0], q[1], q[2]
	q = c.incLatency.quantilesUS(0.50, 0.95, 0.99)
	s.IncrementalP50LatencyUS, s.IncrementalP95LatencyUS, s.IncrementalP99LatencyUS = q[0], q[1], q[2]
	s.StreamUpdates = c.streamUpdates.Load()
	s.StreamCoalesced = c.streamCoalesced.Load()
	s.StreamBackpressure = c.streamBackpressure.Load()
	var streamMean float64
	s.StreamLatency, streamMean, _, _, _ = snapshotLatency(&c.streamLatency.histogram)
	s.StreamMeanMS = streamMean
	q = c.streamLatency.quantilesUS(0.50, 0.95, 0.99)
	s.StreamP50US, s.StreamP95US, s.StreamP99US = q[0], q[1], q[2]
	return s
}
