package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// A minimal hand-built spiking network run through the T2FSNN pipeline:
// two inputs feed one hidden neuron which drives one output neuron.
// Early firing halves the pipeline advance and therefore the latency.
func ExampleModel_InferOne() {
	net := &snn.Net{
		Name: "demo", InShape: []int{2}, InLen: 2,
		Stages: []snn.Stage{
			{Name: "hidden", Kind: snn.DenseStage,
				W: tensor.FromSlice([]float64{0.6, 0.6}, 2, 1), B: tensor.New(1),
				InLen: 2, OutLen: 1},
			{Name: "out", Kind: snn.DenseStage,
				W: tensor.FromSlice([]float64{1}, 1, 1), B: tensor.New(1),
				InLen: 1, OutLen: 1, Output: true},
		},
	}
	m, err := core.NewModel(net, 20, 5, 0) // T=20, τ=5
	if err != nil {
		panic(err)
	}
	in := []float64{0.8, 0.4}
	base := m.InferOne(in, core.RunConfig{}, core.InferOpts{})
	ef := m.InferOne(in, core.RunConfig{EarlyFire: true}, core.InferOpts{})
	fmt.Printf("baseline: latency=%d spikes=%d\n", base.Latency, base.TotalSpikes)
	fmt.Printf("early-firing: latency=%d spikes=%d\n", ef.Latency, ef.TotalSpikes)
	// Output:
	// baseline: latency=40 spikes=3
	// early-firing: latency=30 spikes=3
}
