package coding

import (
	"repro/internal/fault"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// Rate is classic rate coding: information is carried by firing rates.
// Input pixels drive integrate-and-fire encoders with constant current
// (deterministic, uniform inter-spike intervals) or, with Poisson set,
// Bernoulli spike draws with probability equal to the pixel value — the
// stochastic encoder of Diehl 2015. Hidden IF neurons use threshold 1
// with soft reset (subtract); biases inject constant current every
// step. Accuracy converges slowly as rates are averaged over time, at
// the cost of many spikes — the baseline the paper's Table II
// normalizes energy against. Deterministic rate coding is burst coding
// with the one-rung ladder [1].
type Rate struct {
	// Poisson selects stochastic Bernoulli input encoding; Seed makes
	// it reproducible.
	Poisson bool
	Seed    uint64
}

// Name implements Scheme.
func (r Rate) Name() string {
	if r.Poisson {
		return "Rate(poisson)"
	}
	return "Rate"
}

// Run implements Scheme.
func (r Rate) Run(net *snn.Net, input []float64, opts RunOpts) snn.SimResult {
	if !r.Poisson {
		return runLadder(net, input, opts, scratchFor(opts), oneRung)
	}
	fs, rng := opts.Faults, tensor.NewRNG(r.Seed^0x706f6973)
	return simulate(net, opts, scratchFor(opts), oneRung, 0, func(_ int, unit float64, out []fault.Spike) []fault.Spike {
		// Bernoulli draws with p = pixel value
		for i, u := range input {
			var stuck bool
			if out, stuck = stuckAt(fs, 0, i, unit, out); stuck || u <= 0 {
				continue
			}
			if rng.Float64() < u {
				out = append(out, fault.Spike{Idx: i, W: 1})
			}
		}
		return out
	})
}
