package gateway

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// hedgeWindow is how many recent winning-attempt latencies feed the
// p95 that sets the hedge delay; hedgeP95Every bounds how often the
// sort runs (the cached value serves the requests in between).
const (
	hedgeWindow   = 256
	hedgeP95Every = 16
)

// fleetMetrics holds the gateway-level request accounting. Every
// accepted request ends in exactly one of completed / failed / shed
// (counted at its single handler exit), so
//
//	accepted = completed + failed + shed
//
// holds as an identity — the same invariant the serve layer pins for
// its own queue.
type fleetMetrics struct {
	accepted  atomic.Uint64
	completed atomic.Uint64 // a backend response was forwarded (any status)
	failed    atomic.Uint64 // every attempt failed: client got 502 (or vanished)
	shed      atomic.Uint64 // no live backend within PoolWait: client got 503

	hedgesFired atomic.Uint64
	hedgesWon   atomic.Uint64
	retries     atomic.Uint64
	swaps       atomic.Uint64 // fleet-wide rolling swaps proxied

	// Streaming sessions are accounted separately from the one-shot
	// identity above: a session is a long-lived connection, not a
	// request, and its failure mode is a terminal retry event the
	// client resumes from — never a silent drop.
	streamSessions atomic.Uint64 // sessions admitted and pinned to a backend
	streamRetries  atomic.Uint64 // terminal retry events sent to clients

	mu    sync.Mutex
	lats  []time.Duration // ring of winning-attempt latencies
	latN  int
	latCt int
	seq   uint64
	p95   time.Duration
	p95At uint64
}

func newFleetMetrics() *fleetMetrics {
	return &fleetMetrics{lats: make([]time.Duration, hedgeWindow)}
}

func (m *fleetMetrics) recordLatency(d time.Duration) {
	m.mu.Lock()
	m.lats[m.latN] = d
	m.latN = (m.latN + 1) % hedgeWindow
	if m.latCt < hedgeWindow {
		m.latCt++
	}
	m.seq++
	m.mu.Unlock()
}

// latencyP95 is the rolling p95 of winning attempts (0 until enough
// history exists), recomputed at most once per hedgeP95Every records.
func (m *fleetMetrics) latencyP95() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.latCt < hedgeP95Every {
		return 0
	}
	if m.p95At != 0 && m.seq-m.p95At < hedgeP95Every {
		return m.p95
	}
	window := make([]time.Duration, m.latCt)
	copy(window, m.lats[:m.latCt])
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	rank := int(math.Ceil(0.95 * float64(len(window))))
	if rank < 1 {
		rank = 1
	}
	m.p95 = window[rank-1]
	m.p95At = m.seq
	return m.p95
}

// BackendSnapshot is one backend's entry in the fleet /metrics.
type BackendSnapshot struct {
	URL       string `json:"url"`
	State     string `json:"state"`
	InFlight  int64  `json:"in_flight"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Evictions uint64 `json:"evictions"`
	Probes    uint64 `json:"probes"`
	// ConsecutiveFails is the live failure streak feeding eviction.
	ConsecutiveFails int32 `json:"consecutive_fails"`
	// CoolingMs is the remaining 429 Retry-After cooldown (0 if none).
	CoolingMs float64 `json:"cooling_ms,omitempty"`
	LastError string  `json:"last_error,omitempty"`
}

// Snapshot is the GET /metrics response body: gateway-level request
// accounting plus per-backend health, in config order.
type Snapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`

	Accepted  uint64 `json:"requests_accepted"`
	Completed uint64 `json:"requests_completed"`
	Failed    uint64 `json:"requests_failed"`
	Shed      uint64 `json:"requests_shed"`

	HedgesFired uint64 `json:"hedges_fired"`
	HedgesWon   uint64 `json:"hedges_won"`
	Retries     uint64 `json:"retries"`
	Swaps       uint64 `json:"swaps"`

	// StreamSessions counts streaming sessions pinned to a backend;
	// StreamRetries counts the terminal retry events that handed a
	// broken session back to its client for resumption.
	StreamSessions uint64 `json:"stream_sessions"`
	StreamRetries  uint64 `json:"stream_retries"`
	// HedgeDelayMs is the delay a hedge would use right now.
	HedgeDelayMs float64 `json:"hedge_delay_ms"`

	// LiveBackends counts backends currently routable (healthy or
	// half-open); EvictionsTotal sums evictions across the fleet.
	LiveBackends   int    `json:"live_backends"`
	EvictionsTotal uint64 `json:"evictions_total"`

	Backends []BackendSnapshot `json:"backends"`
}

// Snapshot captures the gateway's current view of itself and the
// fleet.
func (g *Gateway) Snapshot() Snapshot {
	now := time.Now()
	s := Snapshot{
		UptimeSeconds:  now.Sub(g.start).Seconds(),
		Accepted:       g.met.accepted.Load(),
		Completed:      g.met.completed.Load(),
		Failed:         g.met.failed.Load(),
		Shed:           g.met.shed.Load(),
		HedgesFired:    g.met.hedgesFired.Load(),
		HedgesWon:      g.met.hedgesWon.Load(),
		Retries:        g.met.retries.Load(),
		Swaps:          g.met.swaps.Load(),
		StreamSessions: g.met.streamSessions.Load(),
		StreamRetries:  g.met.streamRetries.Load(),
		HedgeDelayMs:   float64(g.hedgeDelay()) / float64(time.Millisecond),
	}
	for _, b := range g.backends {
		st := b.currentState()
		if st != StateEvicted {
			s.LiveBackends++
		}
		s.EvictionsTotal += b.evictions.Load()
		bs := BackendSnapshot{
			URL:              b.url,
			State:            st.String(),
			InFlight:         b.inflight.Load(),
			Completed:        b.completed.Load(),
			Failed:           b.failed.Load(),
			Evictions:        b.evictions.Load(),
			Probes:           b.probes.Load(),
			ConsecutiveFails: b.consecFails.Load(),
			LastError:        b.lastErrString(),
		}
		if until := b.coolUntil.Load(); until > now.UnixNano() {
			bs.CoolingMs = float64(until-now.UnixNano()) / float64(time.Millisecond)
		}
		s.Backends = append(s.Backends, bs)
	}
	return s
}
