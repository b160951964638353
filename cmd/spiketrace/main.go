// Command spiketrace runs one sample through a .t2f model (written by
// cmd/snnc) and dumps the spike activity as a GTKWave-compatible VCD
// waveform and/or a terminal raster — the hardware engineer's view of a
// TTFS inference.
//
// Usage:
//
//	spiketrace -model mnist.t2f -dataset mnist -sample 3 -vcd trace.vcd -raster
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/trace"
)

func main() {
	modelPath := flag.String("model", "", "path to a .t2f model (required)")
	ds := flag.String("dataset", "mnist", "sample source: mnist|cifar10|cifar100")
	sampleIdx := flag.Int("sample", 0, "sample index to trace")
	seed := flag.Uint64("seed", 99, "sample generator seed")
	ef := flag.Bool("ef", true, "use early firing")
	vcdPath := flag.String("vcd", "", "write a VCD waveform to this path")
	raster := flag.Bool("raster", true, "print per-layer spike rasters")
	maxWires := flag.Int("maxwires", 64, "VCD wires per layer (viewers choke on more)")
	flag.Parse()

	if *modelPath == "" {
		fmt.Fprintln(os.Stderr, "spiketrace: -model is required")
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

	cfg := dataset.Config{Train: *sampleIdx + 1, Test: 1, Seed: *seed}
	var set *dataset.Dataset
	switch *ds {
	case "mnist":
		set, _ = dataset.MNISTLike(cfg)
	case "cifar10":
		set, _ = dataset.CIFAR10Like(cfg)
	case "cifar100":
		set, _ = dataset.CIFAR100Like(cfg)
	default:
		fatal(fmt.Errorf("unknown dataset %q", *ds))
	}
	sample := set.Sample(*sampleIdx)
	if sample.Len() != model.Net.InLen {
		fatal(fmt.Errorf("model expects %d inputs, sample has %d", model.Net.InLen, sample.Len()))
	}

	fmt.Fprintf(os.Stderr, "input (label %d):\n%s", set.Labels[*sampleIdx], dataset.ASCII(sample))
	r := model.InferOne(sample.Data, core.RunConfig{EarlyFire: *ef, CollectEvents: true}, core.InferOpts{})
	fmt.Printf("pred=%d latency=%d steps total spikes=%d\n", r.Pred, r.Latency, r.TotalSpikes)

	tr := trace.FromResult(model, r)
	if *raster {
		for _, g := range tr.Groups() {
			fmt.Print(tr.Raster(g, 24, 100))
		}
	}
	if *vcdPath != "" {
		out, err := os.Create(*vcdPath)
		if err != nil {
			fatal(err)
		}
		if err := tr.WriteVCD(out, "1us", *maxWires); err != nil {
			out.Close()
			fatal(err)
		}
		if err := out.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (open with GTKWave)\n", *vcdPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spiketrace:", err)
	os.Exit(1)
}
