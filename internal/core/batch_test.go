package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fault"
)

// sameResult pins bit-identity between a batched and a per-sample
// result: predictions, spike counts, potentials, timelines, spike
// times, and events must all match exactly.
func sameResult(t *testing.T, tag string, got, want Result) {
	t.Helper()
	if got.Pred != want.Pred || got.Latency != want.Latency || got.TotalSpikes != want.TotalSpikes {
		t.Fatalf("%s: pred/latency/spikes (%d,%d,%d) != (%d,%d,%d)",
			tag, got.Pred, got.Latency, got.TotalSpikes, want.Pred, want.Latency, want.TotalSpikes)
	}
	if len(got.Spikes) != len(want.Spikes) {
		t.Fatalf("%s: spike boundaries %d != %d", tag, len(got.Spikes), len(want.Spikes))
	}
	for b := range got.Spikes {
		if got.Spikes[b] != want.Spikes[b] {
			t.Fatalf("%s: boundary %d spikes %d != %d", tag, b, got.Spikes[b], want.Spikes[b])
		}
	}
	if len(got.Potentials) != len(want.Potentials) {
		t.Fatalf("%s: potentials %d != %d", tag, len(got.Potentials), len(want.Potentials))
	}
	for j := range got.Potentials {
		if math.Float64bits(got.Potentials[j]) != math.Float64bits(want.Potentials[j]) {
			t.Fatalf("%s: potential %d not bit-identical: %v != %v",
				tag, j, got.Potentials[j], want.Potentials[j])
		}
	}
	if len(got.Timeline) != len(want.Timeline) {
		t.Fatalf("%s: timeline %d != %d entries", tag, len(got.Timeline), len(want.Timeline))
	}
	for i := range got.Timeline {
		if got.Timeline[i] != want.Timeline[i] {
			t.Fatalf("%s: timeline[%d] %+v != %+v", tag, i, got.Timeline[i], want.Timeline[i])
		}
	}
	if len(got.SpikeTimes) != len(want.SpikeTimes) {
		t.Fatalf("%s: spike-time boundaries differ", tag)
	}
	for b := range got.SpikeTimes {
		if len(got.SpikeTimes[b]) != len(want.SpikeTimes[b]) {
			t.Fatalf("%s: boundary %d spike times %d != %d", tag, b, len(got.SpikeTimes[b]), len(want.SpikeTimes[b]))
		}
		for i := range got.SpikeTimes[b] {
			if got.SpikeTimes[b][i] != want.SpikeTimes[b][i] {
				t.Fatalf("%s: boundary %d spike time %d differs", tag, b, i)
			}
		}
	}
	if len(got.Events) != len(want.Events) {
		t.Fatalf("%s: event boundaries differ", tag)
	}
	for b := range got.Events {
		if len(got.Events[b]) != len(want.Events[b]) {
			t.Fatalf("%s: boundary %d events %d != %d", tag, b, len(got.Events[b]), len(want.Events[b]))
		}
		for i := range got.Events[b] {
			if got.Events[b][i] != want.Events[b][i] {
				t.Fatalf("%s: boundary %d event %d differs", tag, b, i)
			}
		}
	}
}

// TestInferBatchMatchesInfer pins the serving-layer contract: InferMany
// is bit-identical to the per-sample reference path, under every
// pipeline variant and collection flag.
func TestInferBatchMatchesInfer(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	const n = 24
	inputs := make([][]float64, n)
	for i := range inputs {
		inputs[i] = fixture.x.Data[i*256 : (i+1)*256]
	}
	configs := []RunConfig{
		{},
		{EarlyFire: true},
		{EarlyFire: true, EFStart: 13},
		{CollectTimeline: true, CollectSpikeTimes: true, CollectEvents: true},
		{EarlyFire: true, CollectTimeline: true},
	}
	for ci, cfg := range configs {
		batch := m.InferMany(inputs, cfg, InferOpts{})
		if len(batch) != n {
			t.Fatalf("cfg %d: %d results for %d inputs", ci, len(batch), n)
		}
		for i, input := range inputs {
			sameResult(t, fmt.Sprintf("cfg %d sample %d", ci, i), batch[i], m.InferOne(input, cfg, InferOpts{}))
		}
	}
}

// InferMany must route each sample's own fault stream exactly as the
// per-sample path does.
func TestInferBatchMatchesInferUnderFaults(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	inj, err := fault.New(fault.Config{Seed: 7, Drop: 0.2, Jitter: 2, StuckSilent: 0.05, ThresholdNoise: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	inputs := make([][]float64, n)
	streams := make([]*fault.Stream, n)
	for i := range inputs {
		inputs[i] = fixture.x.Data[i*256 : (i+1)*256]
		streams[i] = inj.Sample(i)
	}
	streams[3] = nil // mixed batch: one sample without injection
	cfg := RunConfig{EarlyFire: true, CollectTimeline: true}
	batch := m.InferMany(inputs, cfg, InferOpts{Faults: streams})
	for i, input := range inputs {
		ref := cfg
		ref.Faults = streams[i]
		sameResult(t, fmt.Sprintf("faulted sample %d", i), batch[i], m.InferOne(input, ref, InferOpts{}))
	}
}

func TestInferBatchEmptyAndValidation(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	if got := m.InferMany(nil, RunConfig{}, InferOpts{}); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched fault slice accepted")
		}
	}()
	m.InferMany(make([][]float64, 2), RunConfig{}, InferOpts{Faults: make([]*fault.Stream, 3)})
}

// BenchmarkInferBatch measures the sequential InferMany loop in its serving
// configuration: scratch and the model's scatter plan warmed before the
// timer, so allocs/op pins 0 and benchdiff can gate regressions on this
// path the same way it gates the parallel and event benchmarks.
func BenchmarkInferBatch(b *testing.B) {
	loadFixture(b)
	m := fixture.model()
	cfg := RunConfig{EarlyFire: true}
	for _, size := range []int{1, 8, 32} {
		inputs := make([][]float64, size)
		for i := range inputs {
			inputs[i] = fixture.x.Data[i*256 : (i+1)*256]
		}
		b.Run(fmt.Sprintf("batch%d", size), func(b *testing.B) {
			sc := NewInferScratch(m)
			m.InferMany(inputs, cfg, InferOpts{Scratch: sc})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.InferMany(inputs, cfg, InferOpts{Scratch: sc})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/sample")
		})
	}
	b.Run("referenceInfer", func(b *testing.B) {
		in := fixture.x.Data[:256]
		sc := NewInferScratch(m)
		m.InferOne(in, cfg, InferOpts{Scratch: sc})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.InferOne(in, cfg, InferOpts{Scratch: sc})
		}
	})
}
