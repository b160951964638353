package core

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// scratchConfigs are the pipeline variants every scratch differential
// test sweeps: collection flags change which Result fields are built,
// early firing changes the integration schedule.
var scratchConfigs = []RunConfig{
	{},
	{EarlyFire: true},
	{EarlyFire: true, EFStart: 13},
	{CollectTimeline: true, CollectSpikeTimes: true, CollectEvents: true},
	{EarlyFire: true, CollectTimeline: true},
}

// TestInferWithMatchesInfer pins the scratch contract: a reused scratch
// produces results bit-identical to a fresh-allocation InferOne, across every
// pipeline variant, with the same scratch carried across samples and
// configs so buffer-reset bugs cannot hide.
func TestInferWithMatchesInfer(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	sc := NewInferScratch(m)
	for ci, cfg := range scratchConfigs {
		for i := 0; i < 8; i++ {
			in := fixture.x.Data[i*256 : (i+1)*256]
			got := m.InferOne(in, cfg, InferOpts{Scratch: sc})
			sameResult(t, fmt.Sprintf("cfg %d sample %d", ci, i), got, m.InferOne(in, cfg, InferOpts{}))
		}
	}
}

// TestInferWithMatchesInferUnderFaults runs the same differential with
// active fault injection (drop, jitter, stuck neurons, threshold noise)
// routed per sample.
func TestInferWithMatchesInferUnderFaults(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	inj, err := fault.New(fault.Config{Seed: 11, Drop: 0.2, Jitter: 2, StuckSilent: 0.05, ThresholdNoise: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewInferScratch(m)
	cfg := RunConfig{EarlyFire: true, CollectTimeline: true, CollectSpikeTimes: true}
	for i := 0; i < 8; i++ {
		in := fixture.x.Data[i*256 : (i+1)*256]
		run := cfg
		if i%2 == 1 { // faults on odd samples: mixed reuse of one scratch
			run.Faults = inj.Sample(i)
		}
		got := m.InferOne(in, run, InferOpts{Scratch: sc})
		sameResult(t, fmt.Sprintf("faulted sample %d", i), got, m.InferOne(in, run, InferOpts{}))
	}
}

// TestInferBatchWithMatchesFresh pins batch scratch reuse: one scratch
// across successive batch loops of different sizes, with per-sample
// fault streams, is bit-identical to fresh-scratch inference.
func TestInferBatchWithMatchesFresh(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	inj, err := fault.New(fault.Config{Seed: 3, Drop: 0.15, Jitter: 1, ThresholdNoise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewInferScratch(m)
	for _, n := range []int{1, 8, 70} {
		inputs := fixtureBatch(t, n)
		streams := make([]*fault.Stream, n)
		for i := 1; i < n; i += 2 {
			streams[i] = inj.Sample(i)
		}
		for ci, cfg := range scratchConfigs {
			checkLoop(t, fmt.Sprintf("n=%d cfg %d", n, ci), m, sc, inputs, cfg, streams, EngineClocked)
		}
	}
}

// TestScratchSharedAcrossModels reuses one scratch across models of
// different geometry — the serving pool does exactly this after a model
// swap — and checks results stay bit-identical to fresh allocation.
func TestScratchSharedAcrossModels(t *testing.T) {
	loadFixture(t)
	big := fixture.model()
	small, err := NewModel(tinyNet(), 20, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewInferScratch(small) // sized small, must grow for big
	tinyIn := []float64{0.9, 0.5, 0.2}
	cfg := RunConfig{EarlyFire: true}
	got := small.InferOne(tinyIn, cfg, InferOpts{Scratch: sc})
	sameResult(t, "small before grow", got, small.InferOne(tinyIn, cfg, InferOpts{}))
	bigIn := fixture.x.Data[:256]
	got = big.InferOne(bigIn, cfg, InferOpts{Scratch: sc})
	sameResult(t, "big after grow", got, big.InferOne(bigIn, cfg, InferOpts{}))
	got = small.InferOne(tinyIn, cfg, InferOpts{Scratch: sc})
	sameResult(t, "small after big", got, small.InferOne(tinyIn, cfg, InferOpts{}))

	checkLoop(t, "tiny batch", small, sc, [][]float64{tinyIn, {0.1, 0.8, 0.4}}, cfg, nil, EngineClocked)
}

// randomDenseNet builds a dense net with rng-drawn geometry and weights.
func randomDenseNet(rng *tensor.RNG, depth int) *snn.Net {
	dims := make([]int, depth+1)
	for i := range dims {
		dims[i] = 3 + int(rng.Float64()*10)
	}
	stages := make([]snn.Stage, depth)
	for si := 0; si < depth; si++ {
		in, out := dims[si], dims[si+1]
		w := tensor.New(in, out)
		for i := range w.Data {
			w.Data[i] = 0.8 * rng.Norm() / float64(in)
		}
		b := tensor.New(out)
		for i := range b.Data {
			b.Data[i] = 0.1 * rng.Norm()
		}
		stages[si] = snn.Stage{
			Name: fmt.Sprintf("d%d", si), Kind: snn.DenseStage,
			W: w, B: b, InLen: in, OutLen: out, Output: si == depth-1,
		}
	}
	return &snn.Net{Name: "rand", InShape: []int{dims[0]}, InLen: dims[0], Stages: stages}
}

// TestInferWithRandomNets fuzzes the scratch path over random dense nets
// of varying depth and width, one scratch throughout.
func TestInferWithRandomNets(t *testing.T) {
	rng := tensor.NewRNG(99)
	sc := NewInferScratch(nil2model(t, randomDenseNet(rng, 2)))
	for trial := 0; trial < 12; trial++ {
		depth := 2 + trial%3
		m := nil2model(t, randomDenseNet(rng, depth))
		cfg := scratchConfigs[trial%len(scratchConfigs)]
		inputs := make([][]float64, 5)
		for i := range inputs {
			in := make([]float64, m.Net.InLen)
			for j := range in {
				in[j] = rng.Float64()
			}
			inputs[i] = in
		}
		checkLoop(t, fmt.Sprintf("trial %d", trial), m, sc, inputs, cfg, nil, EngineClocked)
	}
}

func nil2model(t *testing.T, net *snn.Net) *Model {
	t.Helper()
	m, err := NewModel(net, 24, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestInferWithZeroAllocs gates the tentpole claim: once the scratch and
// the model's scatter tables are warm, the single-sample hot path
// performs zero heap allocations.
func TestInferWithZeroAllocs(t *testing.T) {
	eachKernel(t, func() {
		loadFixture(t)
		m := fixture.model()
		sc := NewInferScratch(m)
		in := fixture.x.Data[:256]
		for _, cfg := range []RunConfig{{}, {EarlyFire: true}} {
			cfg := cfg
			m.InferOne(in, cfg, InferOpts{Scratch: sc}) // warm tables + arenas
			if n := testing.AllocsPerRun(20, func() { m.InferOne(in, cfg, InferOpts{Scratch: sc}) }); n != 0 {
				t.Errorf("InferOne with scratch (earlyFire=%v) allocates %.1f/op, want 0", cfg.EarlyFire, n)
			}
		}
	})
}

// TestInferBatchWithZeroAllocs is the batch gate: a steady-state batch
// loop on one scratch allocates nothing on any engine, with the engines
// taking turns on that scratch.
func TestInferBatchWithZeroAllocs(t *testing.T) {
	inputs := fixtureBatch(t, 8)
	m := fixture.model()
	sc := NewInferScratch(m)
	cfg := RunConfig{EarlyFire: true, EarlyExit: true}
	loop := func() {
		for _, engine := range engines {
			for _, in := range inputs {
				m.InferOne(in, cfg, InferOpts{Scratch: sc, Engine: engine})
			}
		}
	}
	for i := 0; i < 3; i++ { // warm: plans, arenas, buckets, bound tables
		loop()
	}
	if n := testing.AllocsPerRun(20, loop); n != 0 {
		t.Errorf("batch loop allocates %.1f/op, want 0", n)
	}
}

// BenchmarkInfer reports the single-sample hot path with and without a
// reused scratch (ns/op and allocs/op feed scripts/bench.sh).
func BenchmarkInfer(b *testing.B) {
	loadFixture(b)
	m := fixture.model()
	in := fixture.x.Data[:256]
	cfg := RunConfig{EarlyFire: true}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.InferOne(in, cfg, InferOpts{})
		}
	})
	b.Run("scratch", func(b *testing.B) {
		sc := NewInferScratch(m)
		m.InferOne(in, cfg, InferOpts{Scratch: sc})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.InferOne(in, cfg, InferOpts{Scratch: sc})
		}
	})
}
