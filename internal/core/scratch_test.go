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
// across successive InferMany batches of different sizes is
// bit-identical to nil-scratch InferMany.
func TestInferBatchWithMatchesFresh(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	inj, err := fault.New(fault.Config{Seed: 3, Drop: 0.15, Jitter: 1, ThresholdNoise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewInferScratch(m)
	for _, n := range []int{1, 8, 70} {
		inputs := make([][]float64, n)
		streams := make([]*fault.Stream, n)
		for i := range inputs {
			inputs[i] = fixture.x.Data[i*256 : (i+1)*256]
			if i%2 == 1 {
				streams[i] = inj.Sample(i)
			}
		}
		for ci, cfg := range scratchConfigs {
			got := m.InferMany(inputs, cfg, InferOpts{Scratch: sc, Faults: streams})
			// build the reference with per-call streams: Stream state is
			// deterministic per (sample, boundary), so reuse is safe
			want := m.InferMany(inputs, cfg, InferOpts{Faults: streams})
			if len(got) != len(want) {
				t.Fatalf("n=%d cfg %d: %d results, want %d", n, ci, len(got), len(want))
			}
			for i := range got {
				sameResult(t, fmt.Sprintf("n=%d cfg %d sample %d", n, ci, i), got[i], want[i])
			}
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

	batch := small.InferMany([][]float64{tinyIn, {0.1, 0.8, 0.4}}, cfg, InferOpts{Scratch: sc})
	want := small.InferMany([][]float64{tinyIn, {0.1, 0.8, 0.4}}, cfg, InferOpts{})
	for i := range batch {
		sameResult(t, fmt.Sprintf("tiny batch %d", i), batch[i], want[i])
	}
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
// of varying depth and width, single and batched, one scratch throughout.
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
			got := m.InferOne(in, cfg, InferOpts{Scratch: sc})
			sameResult(t, fmt.Sprintf("trial %d sample %d", trial, i), got, m.InferOne(in, cfg, InferOpts{}))
		}
		batch := m.InferMany(inputs, cfg, InferOpts{Scratch: sc})
		want := m.InferMany(inputs, cfg, InferOpts{})
		for i := range batch {
			sameResult(t, fmt.Sprintf("trial %d batch %d", trial, i), batch[i], want[i])
		}
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
// the model's scatter plan are warm, the single-sample hot path performs
// zero heap allocations.
func TestInferWithZeroAllocs(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	sc := NewInferScratch(m)
	in := fixture.x.Data[:256]
	for _, cfg := range []RunConfig{{}, {EarlyFire: true}} {
		cfg := cfg
		m.InferOne(in, cfg, InferOpts{Scratch: sc}) // warm plan + arenas
		if n := testing.AllocsPerRun(20, func() { m.InferOne(in, cfg, InferOpts{Scratch: sc}) }); n != 0 {
			t.Errorf("InferOne with scratch (earlyFire=%v) allocates %.1f/op, want 0", cfg.EarlyFire, n)
		}
	}
}

// TestInferBatchWithZeroAllocs is the batch gate: steady-state InferMany
// calls reuse every buffer, including the result slice itself.
func TestInferBatchWithZeroAllocs(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	sc := NewInferScratch(m)
	inputs := make([][]float64, 8)
	for i := range inputs {
		inputs[i] = fixture.x.Data[i*256 : (i+1)*256]
	}
	cfg := RunConfig{EarlyFire: true}
	opts := InferOpts{Scratch: sc}
	for i := 0; i < 3; i++ { // warm: plan, arenas, buckets
		m.InferMany(inputs, cfg, opts)
	}
	if n := testing.AllocsPerRun(20, func() { m.InferMany(inputs, cfg, opts) }); n != 0 {
		t.Errorf("InferMany allocates %.1f/op, want 0", n)
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

// BenchmarkInferBatchScratch is BenchmarkInferBatch with a reused
// scratch — the serving layer's steady state.
func BenchmarkInferBatchScratch(b *testing.B) {
	loadFixture(b)
	m := fixture.model()
	for _, size := range []int{1, 8, 32} {
		inputs := make([][]float64, size)
		for i := range inputs {
			inputs[i] = fixture.x.Data[i*256 : (i+1)*256]
		}
		b.Run(fmt.Sprintf("batch%d", size), func(b *testing.B) {
			sc := NewInferScratch(m)
			opts := InferOpts{Scratch: sc}
			m.InferMany(inputs, RunConfig{EarlyFire: true}, opts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.InferMany(inputs, RunConfig{EarlyFire: true}, opts)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/sample")
		})
	}
}
