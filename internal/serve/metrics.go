package serve

import (
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// latWindow is how many recent request latencies the percentile window
// retains; old entries are overwritten ring-buffer style.
const latWindow = 8192

// batchLatWindow is how many recent engine batch execution times feed
// the rolling p99 used for deadline-headroom admission. Smaller than
// latWindow: admission must track the engine's *current* speed, and a
// long window would let ancient fast batches mask a slowdown.
const batchLatWindow = 512

// batchP99Every bounds how often the rolling batch p99 is recomputed:
// at most once per this many recorded batches, so admission checks on
// the request path never pay the sort.
const batchP99Every = 16

// Metrics aggregates serving statistics: request counters, a sliding
// window of wall-clock latencies (for percentiles), the batch-size
// histogram, spike totals, and — when requests carry labels — a live
// confusion matrix reusing internal/metrics.
type Metrics struct {
	mu        sync.Mutex
	start     time.Time
	accepted  uint64
	rejected  uint64
	expired   uint64
	failed    uint64
	completed uint64

	totalSpikes uint64
	// earlyExit counts completed predictions whose engine stopped the
	// output window early (undominated winner); eventsSaved sums the
	// spike arrivals those exits skipped. Both count across the batched
	// and direct paths — early exit is an engine property, not a
	// routing one.
	earlyExit   uint64
	eventsSaved uint64
	// latencyPath counts requests completed on the direct single-sample
	// path (Server.InferDirect).
	latencyPath uint64
	// streamSessions counts /v1/stream sessions opened on this server;
	// streamActive is the gauge of sessions currently attached (a
	// session that chases a hot-swap detaches here and attaches to the
	// replacement, so the gauge follows the serving engine);
	// streamFrames counts frames completed on the stream path (those
	// frames also count in completed — the identity accepted =
	// completed + expired + failed covers them).
	streamSessions uint64
	streamActive   int64
	streamFrames   uint64
	// parallelChunks mirrors the engine's cumulative ChunkReporter count
	// (0 when the engine runs sequentially).
	parallelChunks uint64
	// batchSizes[k] counts dispatched batches of k live samples
	// (index 0 unused).
	batchSizes []uint64

	lats  []time.Duration // ring buffer, latWindow cap
	latN  int             // next write position
	latCt int             // filled entries (≤ latWindow)

	// Engine batch execution times (queue wait excluded) — the service
	// floor a freshly admitted request cannot beat, so the admission
	// layer sheds deadlines tighter than its p99. Recorded even when the
	// clients of a batch have already gone: the engine ran regardless,
	// which is exactly what keeps the window alive under deadline storms.
	batchLats   []time.Duration // ring buffer, batchLatWindow cap
	batchLatN   int
	batchLatCt  int
	batchLatSeq uint64        // batches recorded since start
	bp99        time.Duration // cached p99 over batchLats
	bp99Seq     uint64        // batchLatSeq when bp99 was computed

	conf *metrics.Confusion // nil when class count unknown

	// pctScratch and bp99Scratch are the reusable sort buffers for
	// percentile computation (guarded by mu like everything else):
	// scrapes under load must not churn 8 KiB+ allocations against the
	// request path.
	pctScratch  []time.Duration
	bp99Scratch []time.Duration

	// engine is the serving engine's self-description (EngineDescriber),
	// "" when the engine doesn't implement the capability. Set once at
	// server construction (or swap), read under mu like everything else.
	engine string
}

func newMetrics(maxBatch, classes int) *Metrics {
	m := &Metrics{
		start:      time.Now(),
		batchSizes: make([]uint64, maxBatch+1),
		lats:       make([]time.Duration, latWindow),
		batchLats:  make([]time.Duration, batchLatWindow),
	}
	if c, err := metrics.NewConfusion(classes); err == nil {
		m.conf = c
	}
	return m
}

func (m *Metrics) accept() {
	m.mu.Lock()
	m.accepted++
	m.mu.Unlock()
}

func (m *Metrics) reject() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

func (m *Metrics) expire() {
	m.mu.Lock()
	m.expired++
	m.mu.Unlock()
}

func (m *Metrics) fail(n int) {
	m.mu.Lock()
	m.failed += uint64(n)
	m.mu.Unlock()
}

func (m *Metrics) complete(wall time.Duration, p Prediction, label int) {
	m.mu.Lock()
	m.completeLocked(wall, p, label)
	m.mu.Unlock()
}

// completeDirect is complete for the direct single-sample path; it
// additionally counts the routing decision.
func (m *Metrics) completeDirect(wall time.Duration, p Prediction, label int) {
	m.mu.Lock()
	m.latencyPath++
	m.completeLocked(wall, p, label)
	m.mu.Unlock()
}

func (m *Metrics) completeLocked(wall time.Duration, p Prediction, label int) {
	m.completed++
	m.totalSpikes += uint64(p.TotalSpikes)
	if p.EarlyExit {
		m.earlyExit++
	}
	m.eventsSaved += uint64(p.EventsSaved)
	m.lats[m.latN] = wall
	m.latN = (m.latN + 1) % latWindow
	if m.latCt < latWindow {
		m.latCt++
	}
	if label >= 0 && m.conf != nil && label < m.conf.Classes {
		m.conf.Add(label, p.Pred)
	}
}

// streamSession records a new session opening (total + gauge).
func (m *Metrics) streamSession() {
	m.mu.Lock()
	m.streamSessions++
	m.streamActive++
	m.mu.Unlock()
}

// streamAttach moves an existing session's gauge onto this server (a
// hot-swap chase); the session total stays with the server that opened
// it.
func (m *Metrics) streamAttach() {
	m.mu.Lock()
	m.streamActive++
	m.mu.Unlock()
}

// streamDetach drops the active-session gauge.
func (m *Metrics) streamDetach() {
	m.mu.Lock()
	m.streamActive--
	m.mu.Unlock()
}

// streamFrame counts one stream frame completed outside the
// frame-capable path (fallback through InferDirect/Infer, which did its
// own complete accounting).
func (m *Metrics) streamFrame() {
	m.mu.Lock()
	m.streamFrames++
	m.mu.Unlock()
}

// completeStream is complete for the stream frame path: the frame
// counts in the ordinary completion identity and in the stream ledger.
func (m *Metrics) completeStream(wall time.Duration, p Prediction, label int) {
	m.mu.Lock()
	m.streamFrames++
	m.completeLocked(wall, p, label)
	m.mu.Unlock()
}

func (m *Metrics) batchLatency(d time.Duration) {
	m.mu.Lock()
	m.batchLats[m.batchLatN] = d
	m.batchLatN = (m.batchLatN + 1) % batchLatWindow
	if m.batchLatCt < batchLatWindow {
		m.batchLatCt++
	}
	m.batchLatSeq++
	m.mu.Unlock()
}

// BatchLatencyP99 returns the rolling p99 of engine batch execution
// time, or 0 before any batch has run. The value is recomputed at most
// once per batchP99Every recorded batches and cached, so calling it on
// every admission decision is cheap.
func (m *Metrics) BatchLatencyP99() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.batchP99Locked()
}

func (m *Metrics) batchP99Locked() time.Duration {
	if m.batchLatCt == 0 {
		return 0
	}
	if m.bp99Seq != 0 && m.batchLatSeq-m.bp99Seq < batchP99Every {
		return m.bp99
	}
	if cap(m.bp99Scratch) < m.batchLatCt {
		m.bp99Scratch = make([]time.Duration, batchLatWindow)
	}
	window := m.bp99Scratch[:m.batchLatCt]
	copy(window, m.batchLats[:m.batchLatCt])
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	rank := int(math.Ceil(0.99 * float64(len(window))))
	if rank < 1 {
		rank = 1
	}
	m.bp99 = window[rank-1]
	m.bp99Seq = m.batchLatSeq
	return m.bp99
}

func (m *Metrics) setParallelChunks(v uint64) {
	m.mu.Lock()
	m.parallelChunks = v
	m.mu.Unlock()
}

func (m *Metrics) setEngine(desc string) {
	m.mu.Lock()
	m.engine = desc
	m.mu.Unlock()
}

func (m *Metrics) batchDone(size int) {
	m.mu.Lock()
	if size >= 0 && size < len(m.batchSizes) {
		m.batchSizes[size]++
	}
	m.mu.Unlock()
}

// Snapshot is a point-in-time copy of the serving statistics, shaped
// for JSON export on /metrics.
type Snapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`

	// Engine names the inference kernel serving this endpoint ("clocked",
	// "event", "quant", or a coding scheme name); omitted when the engine
	// doesn't describe itself.
	Engine string `json:"engine,omitempty"`

	Accepted  uint64 `json:"requests_accepted"`
	Rejected  uint64 `json:"requests_rejected"`
	Expired   uint64 `json:"requests_expired"`
	Failed    uint64 `json:"requests_failed"`
	Completed uint64 `json:"requests_completed"`

	ThroughputPerSec float64 `json:"throughput_per_sec"`

	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP90Ms float64 `json:"latency_p90_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
	LatencyMaxMs float64 `json:"latency_max_ms"`

	// BatchLatencyP99Ms is the rolling p99 of engine batch execution
	// time — the floor the admission layer sheds against.
	BatchLatencyP99Ms float64 `json:"batch_latency_p99_ms"`

	// BatchSizeHist[k] is the number of dispatched batches holding k
	// samples (index 0 unused).
	BatchSizeHist []uint64 `json:"batch_size_hist"`
	MeanBatchSize float64  `json:"mean_batch_size"`

	TotalSpikes     uint64  `json:"total_spikes"`
	SpikesPerSample float64 `json:"spikes_per_sample"`

	// EarlyExitTotal counts completed predictions that stopped their
	// output window at a provably undominated winner; EventsSaved sums
	// the spike arrivals those exits skipped.
	EarlyExitTotal uint64 `json:"early_exit_total"`
	EventsSaved    uint64 `json:"events_saved"`
	// LatencyPathTotal counts requests completed on the direct
	// single-sample path instead of the batching queue.
	LatencyPathTotal uint64 `json:"latency_path_total"`

	// StreamSessions counts /v1/stream sessions opened; StreamActive is
	// the current attached-session gauge; StreamFrames counts stream
	// frames completed (also included in requests_completed).
	StreamSessions uint64 `json:"stream_sessions"`
	StreamActive   int64  `json:"stream_sessions_active"`
	StreamFrames   uint64 `json:"stream_frames_total"`

	// ParallelChunks is the cumulative number of work chunks the engine
	// dispatched to its core.Pool (0 when serving sequentially).
	ParallelChunks uint64 `json:"parallel_chunks"`

	// Accuracy over labeled requests (LabeledTotal 0 means none seen).
	Accuracy     float64 `json:"accuracy"`
	LabeledTotal int     `json:"labeled_total"`
}

// addCounters adds o's cumulative counters into s — the ones a
// registry model carries across hot-swaps. Gauges and window-based
// statistics (latency percentiles, batch histogram) are left alone:
// they describe the serving engine only.
func (s *Snapshot) addCounters(o Snapshot) {
	s.Accepted += o.Accepted
	s.Rejected += o.Rejected
	s.Expired += o.Expired
	s.Failed += o.Failed
	s.Completed += o.Completed
	s.TotalSpikes += o.TotalSpikes
	s.EarlyExitTotal += o.EarlyExitTotal
	s.EventsSaved += o.EventsSaved
	s.LatencyPathTotal += o.LatencyPathTotal
	s.StreamSessions += o.StreamSessions
	s.StreamFrames += o.StreamFrames
}

// Snapshot captures the current statistics. Percentiles are computed
// over the sliding latency window (last 8192 completed requests).
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		UptimeSeconds:    time.Since(m.start).Seconds(),
		Engine:           m.engine,
		Accepted:         m.accepted,
		Rejected:         m.rejected,
		Expired:          m.expired,
		Failed:           m.failed,
		Completed:        m.completed,
		TotalSpikes:      m.totalSpikes,
		EarlyExitTotal:   m.earlyExit,
		EventsSaved:      m.eventsSaved,
		LatencyPathTotal: m.latencyPath,
		StreamSessions:   m.streamSessions,
		StreamActive:     m.streamActive,
		StreamFrames:     m.streamFrames,
		ParallelChunks:   m.parallelChunks,
		BatchSizeHist:    append([]uint64(nil), m.batchSizes...),
	}
	s.BatchLatencyP99Ms = float64(m.batchP99Locked()) / float64(time.Millisecond)
	if s.UptimeSeconds > 0 {
		s.ThroughputPerSec = float64(m.completed) / s.UptimeSeconds
	}
	if m.completed > 0 {
		s.SpikesPerSample = float64(m.totalSpikes) / float64(m.completed)
	}
	batches, samples := uint64(0), uint64(0)
	for k, n := range m.batchSizes {
		batches += n
		samples += uint64(k) * n
	}
	if batches > 0 {
		s.MeanBatchSize = float64(samples) / float64(batches)
	}
	if m.latCt > 0 {
		if cap(m.pctScratch) < m.latCt {
			m.pctScratch = make([]time.Duration, latWindow)
		}
		window := m.pctScratch[:m.latCt]
		copy(window, m.lats[:m.latCt])
		sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
		// Nearest-rank percentile: rank ⌈p·n⌉ (1-based). The previous
		// truncating interpolation index biased every percentile low —
		// p99 over 100 samples read window[98], reporting the 99th
		// sample as if one more could still exceed it.
		pct := func(p float64) float64 {
			rank := int(math.Ceil(p * float64(len(window))))
			if rank < 1 {
				rank = 1
			}
			if rank > len(window) {
				rank = len(window)
			}
			return float64(window[rank-1]) / float64(time.Millisecond)
		}
		s.LatencyP50Ms = pct(0.50)
		s.LatencyP90Ms = pct(0.90)
		s.LatencyP99Ms = pct(0.99)
		s.LatencyMaxMs = float64(window[len(window)-1]) / float64(time.Millisecond)
	}
	if m.conf != nil && m.conf.Total > 0 {
		s.Accuracy = m.conf.Accuracy()
		s.LabeledTotal = m.conf.Total
	}
	return s
}
