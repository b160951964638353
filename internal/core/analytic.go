package core

import (
	"fmt"

	"repro/internal/snn"
)

// InferAnalytic runs the baseline (guaranteed-integration) pipeline in
// closed form: because every input spike of a layer has arrived before
// its fire phase opens, the fire time of each neuron is exactly the
// analytic encode (Eq. 7) of its fully integrated potential, so no
// per-step threshold clock is needed. It is equivalent to the clocked
// InferOne(..., RunConfig{}, InferOpts{}) — same prediction and spike
// counts, output potentials within 1e-9, pinned by tests — and serves
// snninfer -analytic as the fast path for baseline sweeps.
//
// Early firing has no analytic form (firing depends on arrival order
// within the overlapped window); use InferOne for EF runs.
func (m *Model) InferAnalytic(input []float64) Result {
	if len(input) != m.Net.InLen {
		panic(fmt.Sprintf("core: input length %d, want %d", len(input), m.Net.InLen))
	}
	nStages := len(m.Net.Stages)
	res := Result{
		Spikes:  make([]int, nStages),
		Latency: nStages * m.T, // (L-1)·T advance + final T window
	}

	// encode input pixels
	decoded := make([]float64, m.Net.InLen)
	fired := 0
	for i, u := range input {
		if t, ok := m.K[0].Encode(u); ok {
			decoded[i] = m.K[0].Decode(t)
			fired++
		}
	}
	res.Spikes[0] = fired

	for si := range m.Net.Stages {
		st := &m.Net.Stages[si]
		pot := st.Forward(decoded)
		if st.Output {
			res.Pred = snn.ArgMax(pot)
			res.Potentials = pot
			break
		}
		outK := m.K[si+1]
		next := make([]float64, st.OutLen)
		count := 0
		for j, u := range pot {
			if t, ok := outK.Encode(u); ok {
				next[j] = outK.Decode(t)
				count++
			}
		}
		res.Spikes[si+1] = count
		decoded = next
	}
	for _, s := range res.Spikes {
		res.TotalSpikes += s
	}
	return res
}
