package serve

import (
	"context"
	"testing"
	"time"
)

// TestSnapshotPercentilesNearestRank pins the nearest-rank definition
// (rank ⌈p·n⌉) on a known 10-element window. The old truncating index
// int(p·(n−1)) read p50 from window[4] (45ms) and p99 from window[8]
// (90ms) — both one sample low.
func TestSnapshotPercentilesNearestRank(t *testing.T) {
	m := newMetrics(4, 3)
	for i := 1; i <= 10; i++ {
		m.complete(time.Duration(i*10)*time.Millisecond, Prediction{}, -1)
	}
	s := m.Snapshot()
	if s.LatencyP50Ms != 50 {
		t.Errorf("p50 = %vms, want 50 (5th of 10 samples)", s.LatencyP50Ms)
	}
	if s.LatencyP90Ms != 90 {
		t.Errorf("p90 = %vms, want 90 (9th of 10 samples)", s.LatencyP90Ms)
	}
	if s.LatencyP99Ms != 100 {
		t.Errorf("p99 = %vms, want 100 (⌈9.9⌉ = 10th of 10 samples)", s.LatencyP99Ms)
	}
	if s.LatencyMaxMs != 100 {
		t.Errorf("max = %vms, want 100", s.LatencyMaxMs)
	}
}

// TestSnapshotPercentileSingleSample: with one sample every percentile
// is that sample (rank clamps to 1).
func TestSnapshotPercentileSingleSample(t *testing.T) {
	m := newMetrics(4, 3)
	m.complete(7*time.Millisecond, Prediction{}, -1)
	s := m.Snapshot()
	if s.LatencyP50Ms != 7 || s.LatencyP99Ms != 7 {
		t.Errorf("p50/p99 = %v/%v ms, want 7/7", s.LatencyP50Ms, s.LatencyP99Ms)
	}
}

// TestExpiredContextRejectedAtEnqueue: a request whose context is
// already dead must not occupy a queue slot — it is answered
// immediately and counted as accepted + expired in the same breath, so
// the accounting identity accepted = completed + expired + failed
// holds without the request ever touching the queue or the engine.
func TestExpiredContextRejectedAtEnqueue(t *testing.T) {
	eng := newStubEngine()
	s := New(eng, Options{MaxBatch: 2})
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Infer(ctx, input(1), -1, -1)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	snap := s.Metrics().Snapshot()
	if snap.Expired != 1 {
		t.Errorf("expired = %d, want 1", snap.Expired)
	}
	if snap.Accepted != 1 {
		t.Errorf("accepted = %d, want 1 (identity: accepted = completed+expired+failed)", snap.Accepted)
	}
	if eng.sawInput(1) {
		t.Error("dead request reached the engine")
	}

	// A live request on the same server still flows.
	if _, err := s.Infer(context.Background(), input(2), -1, -1); err != nil {
		t.Fatalf("live request failed: %v", err)
	}
}
