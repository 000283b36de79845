package fabric

import (
	"sync/atomic"
	"time"
)

// remoteBucketsMS are the upper bounds (milliseconds, inclusive) of the
// remote-dispatch latency histogram; the final implicit bucket is +Inf.
// Same shape as the engine's job histogram so operators read one format.
var remoteBucketsMS = [...]float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// histogram is a fixed-bucket latency histogram with atomic counters.
type histogram struct {
	counts [len(remoteBucketsMS) + 1]atomic.Int64
	sumNS  atomic.Int64
	n      atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(remoteBucketsMS) && ms > remoteBucketsMS[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNS.Add(int64(d))
	h.n.Add(1)
}

// LatencyBucket is one histogram bucket in a stats snapshot (+Inf is
// rendered as -1 for JSON friendliness).
type LatencyBucket struct {
	LE    float64 `json:"le_ms"`
	Count int64   `json:"count"`
}

// percentile estimates the q-quantile (0 < q < 1) in milliseconds from
// bucket counts, interpolating linearly inside the containing bucket;
// +Inf observations clamp to the largest finite bound.
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
			lo = remoteBucketsMS[i-1]
		}
		if i >= len(remoteBucketsMS) {
			return remoteBucketsMS[len(remoteBucketsMS)-1]
		}
		hi := remoteBucketsMS[i]
		frac := (rank - float64(prev)) / float64(c)
		return lo + frac*(hi-lo)
	}
	return remoteBucketsMS[len(remoteBucketsMS)-1]
}

func (h *histogram) snapshot() (buckets []LatencyBucket, mean, p50, p95, p99 float64) {
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		le := -1.0 // +Inf bucket
		if i < len(remoteBucketsMS) {
			le = remoteBucketsMS[i]
		}
		counts[i] = h.counts[i].Load()
		buckets = append(buckets, LatencyBucket{LE: le, Count: counts[i]})
	}
	if n := h.n.Load(); n > 0 {
		mean = float64(h.sumNS.Load()) / float64(n) / float64(time.Millisecond)
	}
	return buckets, mean, percentile(counts, 0.50), percentile(counts, 0.95), percentile(counts, 0.99)
}

// WorkerHealth is the coordinator's view of one fleet member.
type WorkerHealth struct {
	URL string `json:"url"`
	// Up is false while the worker sits in its failure cooldown
	// (FailAfter consecutive failures tripped; it will be probed again
	// after ProbeAfter).
	Up bool `json:"up"`
	// Dispatched counts requests sent to this worker (retries and
	// hedges included); Retried those that were retry attempts, Hedged
	// those that were hedges, Failed the ones that errored (transport,
	// non-2xx, or malformed results).
	Dispatched int64 `json:"dispatched"`
	Retried    int64 `json:"retried"`
	Hedged     int64 `json:"hedged"`
	// HedgedWasted counts races this worker lost after being dispatched:
	// the other side answered first and this worker's in-flight request
	// (even a late success) was discarded. Dispatched − HedgedWasted −
	// Failed is the worker's useful-work count; without this column the
	// loser's late success inflated Dispatched with no offsetting signal.
	HedgedWasted int64 `json:"hedged_wasted"`
	Failed       int64 `json:"failed"`
	// LastError describes the most recent failure (empty when the
	// worker has never failed); LastErrorUnixMS its wall-clock time.
	LastError       string `json:"last_error,omitempty"`
	LastErrorUnixMS int64  `json:"last_error_unix_ms,omitempty"`
}

// Stats is a point-in-time snapshot of the Remote dispatcher's fleet
// telemetry: per-worker health and counters, degradation totals, and the
// remote-dispatch latency distribution (successful calls only — a
// timeout would otherwise read as a fast bucket entry at cancel time).
type Stats struct {
	Workers []WorkerHealth `json:"workers"`
	// RemoteClusters counts cluster builds answered by the fleet;
	// FallbackLocal those that degraded to the in-process dispatcher
	// (fleet down, retries exhausted). FallbackLocal > 0 is the
	// operator's early-warning signal: the build still succeeded, but
	// capacity silently moved back onto the coordinator.
	RemoteClusters int64 `json:"remote_clusters"`
	FallbackLocal  int64 `json:"fallback_local"`
	// PeerFetches counts one-hop peer cache fetches workers reported
	// attempting after a membership change moved a key; PeerHits the ones
	// the previous owner served (no rebuild). MembershipEpoch is the
	// current epoch counter — it bumps on every observed change of the
	// up-set.
	PeerFetches     int64 `json:"peer_fetches"`
	PeerHits        int64 `json:"peer_hits"`
	MembershipEpoch int64 `json:"membership_epoch"`
	// StreamFirstResultMS / StreamLastResultMS are the most recent
	// streamed dispatch's first- and last-result latencies;
	// StreamOverlapSavedMS is the cumulative stitch time streamed builds
	// overlapped with in-flight cluster builds (work the barrier path
	// would have serialized after the slowest cluster).
	StreamFirstResultMS  float64 `json:"stream_first_result_ms"`
	StreamLastResultMS   float64 `json:"stream_last_result_ms"`
	StreamOverlapSavedMS float64 `json:"stream_overlap_saved_ms"`

	MeanLatencyMS float64         `json:"remote_mean_latency_ms"`
	P50LatencyMS  float64         `json:"remote_p50_latency_ms"`
	P95LatencyMS  float64         `json:"remote_p95_latency_ms"`
	P99LatencyMS  float64         `json:"remote_p99_latency_ms"`
	Latency       []LatencyBucket `json:"remote_latency_histogram"`
}
