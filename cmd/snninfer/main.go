// Command snninfer executes a .t2f spiking model written by cmd/snnc on
// freshly generated evaluation data, reporting accuracy, latency, and
// spike statistics — the deployment half of the toolchain.
//
// Usage:
//
//	snninfer -model cifar10.t2f -dataset cifar10 -n 50 -ef
//	snninfer -model cifar10.t2f -dataset cifar10 -engine quant
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/tensor"
)

func main() {
	modelPath := flag.String("model", "", "path to a .t2f model (required)")
	ds := flag.String("dataset", "mnist", "evaluation data: mnist|cifar10|cifar100")
	n := flag.Int("n", 50, "number of evaluation samples")
	seed := flag.Uint64("seed", 99, "evaluation data seed (distinct from training)")
	ef := flag.Bool("ef", true, "use early firing")
	engine := flag.String("engine", "clock", "inference engine: clock (float64 reference), event (clock plus an early-exit output stage), or quant (fixed-point int8)")
	analytic := flag.Bool("analytic", false, "use the analytic baseline engine (disables -ef)")
	flag.Parse()

	var engineKind core.EngineKind
	switch *engine {
	case "clock":
		engineKind = core.EngineClocked
	case "event":
		engineKind = core.EngineEvent
	case "quant":
		engineKind = core.EngineQuant
	default:
		fmt.Fprintf(os.Stderr, "snninfer: unknown engine %q (want clock, event, or quant)\n", *engine)
		os.Exit(2)
	}

	if *modelPath == "" {
		fmt.Fprintln(os.Stderr, "snninfer: -model is required")
		os.Exit(2)
	}
	f, err := os.Open(*modelPath)
	if err != nil {
		fatal(err)
	}
	model, err := core.LoadModel(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	cfg := dataset.Config{Train: *n, Test: 1, Seed: *seed}
	var eval *dataset.Dataset
	switch *ds {
	case "mnist":
		eval, _ = dataset.MNISTLike(cfg)
	case "cifar10":
		eval, _ = dataset.CIFAR10Like(cfg)
	case "cifar100":
		eval, _ = dataset.CIFAR100Like(cfg)
	default:
		fatal(fmt.Errorf("unknown dataset %q", *ds))
	}
	sampleLen := 1
	for _, d := range eval.SampleShape() {
		sampleLen *= d
	}
	if sampleLen != model.Net.InLen {
		fatal(fmt.Errorf("model expects %d inputs, %s samples have %d", model.Net.InLen, *ds, sampleLen))
	}

	if *analytic {
		hit, spikes := 0, 0
		for i := 0; i < eval.N(); i++ {
			r := model.InferAnalytic(eval.Sample(i).Data)
			if r.Pred == eval.Labels[i] {
				hit++
			}
			spikes += r.TotalSpikes
		}
		fmt.Printf("analytic engine: acc=%.1f%% latency=%d avg spikes=%.0f over %d samples\n",
			100*float64(hit)/float64(eval.N()), len(model.Net.Stages)*model.T,
			float64(spikes)/float64(eval.N()), eval.N())
		return
	}

	flat := tensor.FromSlice(eval.X.Data, eval.N(), sampleLen)
	res, err := core.Evaluate(model, flat, eval.Labels, core.EvalOptions{
		Run: core.RunConfig{EarlyFire: *ef}, Engine: engineKind})
	if err != nil {
		fatal(err)
	}
	mode := "baseline"
	if *ef {
		mode = "early-firing"
	}
	if *engine != "clock" {
		mode += "/" + *engine
	}
	fmt.Printf("%s pipeline: acc=%.1f%% latency=%d steps avg spikes=%.0f over %d samples\n",
		mode, 100*res.Accuracy, res.Latency, res.AvgSpikes, res.N)
	for b, s := range res.SpikesPerStage {
		name := "Input"
		if b > 0 {
			name = model.Net.Stages[b-1].Name
		}
		fmt.Printf("  %-10s %8.0f spikes/sample\n", name, s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "snninfer:", err)
	os.Exit(1)
}
