// Quickstart: train a small DNN, convert it to a spiking network, and
// run T2FSNN inference with time-to-first-spike coding — the minimal
// end-to-end tour of the library.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/tensor"
)

func main() {
	// 1. A toy two-class problem: bright blobs on the left or right half
	// of an 8×8 image.
	rng := tensor.NewRNG(1)
	n := 200
	x := tensor.New(n, 1, 8, 8)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		labels[i] = cls
		xOff := 1 + cls*4
		for dy := 0; dy < 3; dy++ {
			for dx := 0; dx < 3; dx++ {
				x.Set(tensor.Clamp(0.9+0.1*rng.Norm(), 0, 1), i, 0, 2+dy, xOff+dx)
			}
		}
	}

	// 2. Train a small ReLU CNN (the DNN-to-SNN conversion needs
	// Conv/Dense + ReLU + AvgPool).
	g := tensor.ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	net := dnn.NewNetwork("quickstart", 1, 8, 8).Add(
		dnn.NewConv2D("Conv1", 4, g, rng),
		dnn.NewReLU("Conv1.relu"),
		dnn.NewPool2D("Pool1", dnn.AvgPool, 4, 8, 8, 2),
		dnn.NewFlatten("Flatten"),
		dnn.NewDense("FC2", 4*4*4, 2, rng),
	)
	dnn.Train(net, x, labels, dnn.TrainConfig{Epochs: 5, BatchSize: 20,
		Optimizer: dnn.NewAdam(2e-3, 0), RNG: tensor.NewRNG(2)})
	fmt.Printf("DNN accuracy: %.1f%%\n", 100*dnn.Evaluate(net, x, labels, 50))

	// 3. Convert: fold BatchNorm (none here), normalize activations with
	// the 99.9th percentile, emit the spiking network.
	res, err := convert.Convert(net, convert.Options{Calibration: x})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Equip the network with TTFS kernels (window T=32, τ=8) and run
	// the T2FSNN pipeline on one sample.
	model, err := core.NewModel(res.Net, 32, 8, 0)
	if err != nil {
		log.Fatal(err)
	}
	sample := x.Data[:64]
	r := model.InferOne(sample, core.RunConfig{}, core.InferOpts{})
	fmt.Printf("T2FSNN baseline: pred=%d latency=%d steps, %d spikes (≤1 per neuron)\n",
		r.Pred, r.Latency, r.TotalSpikes)

	// 5. Early firing halves the latency.
	ef := model.InferOne(sample, core.RunConfig{EarlyFire: true}, core.InferOpts{})
	fmt.Printf("T2FSNN+EF:       pred=%d latency=%d steps, %d spikes\n",
		ef.Pred, ef.Latency, ef.TotalSpikes)

	// 6. Whole-set accuracy through the spiking pipeline.
	flat := x.Reshape(n, 64)
	ev, err := core.Evaluate(model, flat, labels, core.EvalOptions{
		Run: core.RunConfig{EarlyFire: true}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("T2FSNN+EF accuracy over %d samples: %.1f%% (avg %.0f spikes/sample)\n",
		ev.N, 100*ev.Accuracy, ev.AvgSpikes)
	if ev.Accuracy < 0.9 {
		fmt.Fprintln(os.Stderr, "warning: spiking accuracy unexpectedly low")
		os.Exit(1)
	}
}
