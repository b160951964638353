package coding

import (
	"math"

	"repro/internal/fault"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// Phase is phase coding with weighted spikes (Kim et al. 2018): a global
// oscillator of period K assigns spike weight 2^−(1+t mod K) to every
// spike, so one period transmits a K-bit binary expansion of each
// activation. It needs far fewer spikes than rate coding but, as the
// paper notes, its efficiency degrades when hidden activations do not
// match the fixed phase pattern.
type Phase struct {
	// Period is the oscillator period K (default 8).
	Period int
}

// Name implements Scheme.
func (Phase) Name() string { return "Phase" }

func (p Phase) period() int {
	if p.Period <= 0 {
		return 8
	}
	return p.Period
}

// Run implements Scheme.
func (p Phase) Run(net *snn.Net, input []float64, opts RunOpts) snn.SimResult {
	k, fs, sc := p.period(), opts.Faults, scratchFor(opts)

	// Quantize inputs once: bit b of round(u·2^K) selects a spike at
	// phase b carrying weight 2^-(1+b).
	bits := sc.uint32s(net.InLen)
	for i, u := range input {
		q := uint32(math.Round(tensor.Clamp(u, 0, 1) * float64(uint32(1)<<k)))
		if q >= 1<<k {
			q = 1<<k - 1
		}
		bits[i] = q
	}

	// Hidden neurons fire one-rung spikes of the oscillator weight, so
	// the membrane threshold follows the phase.
	return simulate(net, opts, sc, oneRung, k, func(t int, unit float64, out []fault.Spike) []fault.Spike {
		// emit the bit for this phase, every period
		bit := uint32(1) << (k - 1 - t%k)
		for i, q := range bits {
			var stuck bool
			if out, stuck = stuckAt(fs, 0, i, unit, out); stuck {
				continue
			}
			if q&bit != 0 {
				out = append(out, fault.Spike{Idx: i, W: unit})
			}
		}
		return out
	})
}
