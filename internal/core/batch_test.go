package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fault"
)

// sameResult pins bit-identity between a batched and a per-sample
// result: predictions, spike counts, early-exit accounting, potentials,
// timelines, spike times, and events must all match exactly.
func sameResult(t *testing.T, tag string, got, want Result) {
	t.Helper()
	if got.Pred != want.Pred || got.Latency != want.Latency || got.TotalSpikes != want.TotalSpikes {
		t.Fatalf("%s: pred/latency/spikes (%d,%d,%d) != (%d,%d,%d)",
			tag, got.Pred, got.Latency, got.TotalSpikes, want.Pred, want.Latency, want.TotalSpikes)
	}
	if got.EarlyExit != want.EarlyExit || got.StepsSaved != want.StepsSaved || got.EventsSaved != want.EventsSaved {
		t.Fatalf("%s: early exit (%v,%d,%d) != (%v,%d,%d)", tag,
			got.EarlyExit, got.StepsSaved, got.EventsSaved, want.EarlyExit, want.StepsSaved, want.EventsSaved)
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

// engines lists every engine kind the batch differentials sweep.
var engines = []EngineKind{EngineClocked, EngineEvent, EngineQuant}

// checkLoop runs the batch loop every caller writes — one InferOne per
// sample on one scratch, each sample's fault stream in cfg.Faults (nil
// streams inject nothing) — and pins each result, before the next
// sample reuses the arena, bit-identical to a fresh-scratch InferOne.
func checkLoop(t *testing.T, tag string, m *Model, sc *InferScratch, inputs [][]float64, cfg RunConfig, streams []*fault.Stream, engine EngineKind) {
	t.Helper()
	for i, in := range inputs {
		c := cfg
		if streams != nil {
			c.Faults = streams[i]
		}
		got := m.InferOne(in, c, InferOpts{Scratch: sc, Engine: engine})
		sameResult(t, fmt.Sprintf("%s sample %d", tag, i), got, m.InferOne(in, c, InferOpts{Engine: engine}))
	}
}

// fixtureBatch slices the first n fixture samples.
func fixtureBatch(t testing.TB, n int) [][]float64 {
	t.Helper()
	loadFixture(t)
	inputs := make([][]float64, n)
	for i := range inputs {
		inputs[i] = fixture.x.Data[i*256 : (i+1)*256]
	}
	return inputs
}

// TestInferBatchMatchesInfer pins the serving-layer contract: a batch,
// run as a per-sample loop on one scratch carried across every engine
// and pipeline variant, is bit-identical to per-sample fresh inference.
func TestInferBatchMatchesInfer(t *testing.T) {
	inputs := fixtureBatch(t, 24)
	m := fixture.model()
	sc := NewInferScratch(m)
	for _, engine := range engines {
		for ci, cfg := range scratchConfigs {
			if engine == EngineEvent {
				cfg.EarlyExit = ci%2 == 1
			}
			checkLoop(t, fmt.Sprintf("engine %d cfg %d", engine, ci), m, sc, inputs, cfg, nil, engine)
		}
	}
}

// The batch loop must route each sample's own fault stream exactly as
// the per-sample path does, on every engine, with faulted and clean
// samples mixed on one scratch.
func TestInferBatchMatchesInferUnderFaults(t *testing.T) {
	inputs := fixtureBatch(t, 10)
	m := fixture.model()
	inj, err := fault.New(fault.Config{Seed: 7, Drop: 0.2, Jitter: 2, StuckSilent: 0.05, ThresholdNoise: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]*fault.Stream, len(inputs))
	for i := range streams {
		streams[i] = inj.Sample(i)
	}
	streams[3] = nil // mixed batch: one sample without injection
	sc := NewInferScratch(m)
	cfg := RunConfig{EarlyFire: true, CollectTimeline: true}
	for _, engine := range engines {
		checkLoop(t, fmt.Sprintf("faulted engine %d", engine), m, sc, inputs, cfg, streams, engine)
	}
}

// BenchmarkInferBatch measures the sequential batch loop in its serving
// configuration — one InferOne per sample on one scratch — with the
// scratch and the model's scatter tables warmed before the timer, so
// allocs/op pins 0 and benchdiff can gate regressions on this path the
// same way it gates the parallel and event benchmarks.
func BenchmarkInferBatch(b *testing.B) {
	loadFixture(b)
	m := fixture.model()
	cfg := RunConfig{EarlyFire: true}
	for _, size := range []int{1, 8, 32} {
		inputs := fixtureBatch(b, size)
		b.Run(fmt.Sprintf("batch%d", size), func(b *testing.B) {
			sc := NewInferScratch(m)
			loop := func() {
				for _, in := range inputs {
					m.InferOne(in, cfg, InferOpts{Scratch: sc})
				}
			}
			loop()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loop()
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
