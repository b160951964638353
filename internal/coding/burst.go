package coding

import (
	"repro/internal/fault"
	"repro/internal/snn"
)

// Burst is burst coding (Park et al., DAC 2019): a neuron that keeps
// firing on consecutive steps emits burst spikes whose weight grows
// geometrically (g, g², …), letting large activations transmit in a few
// steps. The weight resets once the neuron falls silent. Burst coding
// needs fewer steps than phase coding and far fewer spikes than rate
// coding — the strongest baseline in the paper's Table II.
type Burst struct {
	// Growth is the burst weight growth factor g (default 2).
	Growth float64
	// MaxLen caps the burst length (default 5, i.e. max weight g⁴).
	MaxLen int
}

// Name implements Scheme.
func (Burst) Name() string { return "Burst" }

func (b Burst) params() (float64, int) {
	g, m := b.Growth, b.MaxLen
	if g <= 1 {
		g = 2
	}
	if m <= 0 {
		m = 5
	}
	return g, m
}

// Run implements Scheme.
func (b Burst) Run(net *snn.Net, input []float64, opts RunOpts) snn.SimResult {
	g, maxLen := b.params()
	sc := scratchFor(opts)
	return runLadder(net, input, opts, sc, sc.powers(g, maxLen))
}

// runLadder runs a deterministic coding whose spikes climb the weight
// ladder [1, g, g², …]: burst coding, or rate coding with the one-rung
// ladder [1]. Its input encoder is the hidden neurons' integrate-and-fire
// rule fed a constant current per pixel, without threshold noise.
func runLadder(net *snn.Net, input []float64, opts RunOpts, sc *Scratch, ladder []float64) snn.SimResult {
	fs := opts.Faults
	acc, rung := sc.floats(net.InLen), sc.ints(net.InLen)
	top := len(ladder) - 1
	return simulate(net, opts, sc, ladder, 0, func(_ int, unit float64, out []fault.Spike) []fault.Spike {
		for i, u := range input {
			var stuck bool
			if out, stuck = stuckAt(fs, 0, i, unit, out); stuck || u <= 0 {
				continue
			}
			acc[i] += u
			w := ladder[rung[i]]
			if acc[i] >= w {
				acc[i] -= w
				out = append(out, fault.Spike{Idx: i, W: w})
				if rung[i] < top {
					rung[i]++
				}
			} else {
				rung[i] = 0
			}
		}
		return out
	})
}
