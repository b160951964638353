package coding

import (
	"math"

	"repro/internal/fault"
	"repro/internal/snn"
)

// oneRung is the weight ladder of rate and phase coding: every spike a
// hidden neuron fires carries the step's unit weight.
var oneRung = []float64{1}

// simulate is the clock-driven integrate-and-fire loop every baseline
// coding runs; the codings differ only in their input encoder, their
// weight ladder and their clock. Each step encode appends the input
// spikes of step t, weighted by the step's unit, to out; they cascade
// through the stack: every stage takes its bias, its gated input
// spikes, and then fires. A hidden neuron on rung k fires a spike of
// weight w = unit·ladder[k] once its membrane reaches w (the threshold,
// under threshold noise), soft-resets by w and climbs one rung; a step
// without a spike sends it back to rung 0. period 0 is the unit clock
// (unit 1, bias every step); period K > 0 is phase coding's oscillator:
// unit 2^−(1+t mod K), bias once per period.
//
// encode is passed as a func literal at every call site so it stays on
// the caller's stack: a Run with a warm scratch allocates nothing.
func simulate(net *snn.Net, opts RunOpts, sc *Scratch, ladder []float64, period int,
	encode func(t int, unit float64, out []fault.Spike) []fault.Spike) snn.SimResult {
	steps, fs := opts.Steps, opts.Faults
	nStages := len(net.Stages)
	gates := boundaryGates(fs, nStages)
	res := newSimResult(sc, net, steps)
	pot := sc.potentials(net)
	rungs := sc.rungs(net)
	spikeBuf := sc.spikeBufs(net) // reused spike lists per boundary
	top := len(ladder) - 1

	for t := 0; t < steps; t++ {
		unit, bias := 1.0, true
		if period > 0 {
			phase := t % period
			unit, bias = math.Exp2(-float64(1+phase)), phase == 0
		}
		spikeBuf[0] = encode(t, unit, spikeBuf[0][:0])

		// synchronous sweep: spikes cascade through the stack this step
		for si := range net.Stages {
			st := &net.Stages[si]
			if bias {
				st.AddBias(pot[si])
			}
			in := gateStep(gates, si, t, spikeBuf[si])
			res.SpikesPerStage[si] += len(in)
			for _, s := range in {
				st.Scatter(s.Idx, s.W, pot[si])
			}
			if st.Output {
				break
			}
			out := spikeBuf[si+1][:0]
			p, rung := pot[si], rungs[si]
			noise := fs.ThresholdDraw(si+1, t) // one draw per boundary and step
			for j := range p {
				w := unit * ladder[rung[j]]
				thr := w
				if fs != nil {
					var stuck bool
					if out, stuck = stuckAt(fs, si+1, j, unit, out); stuck {
						continue
					}
					thr = noise.Apply(w)
				}
				if p[j] >= thr {
					// soft reset by the transmitted weight, not the
					// perturbed comparison threshold
					p[j] -= w
					out = append(out, fault.Spike{Idx: j, W: w})
					if rung[j] < top {
						rung[j]++
					}
				} else {
					rung[j] = 0
				}
			}
			spikeBuf[si+1] = out
		}
		if opts.CollectTimeline {
			res.RecordPred(t, pot[nStages-1])
		}
	}
	res.Pred = snn.ArgMax(pot[nStages-1])
	res.Potentials = pot[nStages-1]
	res.CountSpikes()
	return res
}

// newSimResult builds the result for a network with the standard
// stage-boundary spike accounting, its tally drawn from the scratch's
// results arena (the scratch aliasing contract covers SpikesPerStage).
func newSimResult(sc *Scratch, net *snn.Net, steps int) snn.SimResult {
	// Boundary 0 is the input encoding; boundary i is stage i-1's fire
	// output. The final (Output) stage never fires, so there are exactly
	// len(Stages) boundaries — the same accounting internal/core uses.
	return snn.SimResult{
		Steps:          steps,
		SpikesPerStage: sc.stageCounts(len(net.Stages)),
	}
}

// stuckAt applies the stuck-at defect of neuron i at boundary b: a
// stuck-fire neuron emits a spike of weight unit whatever its state (a
// jammed driver ignores the burst ladder and the membrane). stuck
// reports that the neuron is defective either way and its own dynamics
// are skipped this step.
func stuckAt(fs *fault.Stream, b, i int, unit float64, out []fault.Spike) (_ []fault.Spike, stuck bool) {
	switch fs.Stuck(b, i) {
	case fault.Healthy:
		return out, false
	case fault.StuckFire:
		out = append(out, fault.Spike{Idx: i, W: unit})
	}
	return out, true
}

// boundaryGates builds the per-fire-boundary transmission gates (drop +
// delivery delay) for a clock-driven simulation; nil when the stream
// injects no transmission faults.
func boundaryGates(fs *fault.Stream, nStages int) []*fault.ClockGate {
	if fs == nil {
		return nil
	}
	gates := make([]*fault.ClockGate, nStages)
	live := false
	for b := range gates {
		gates[b] = fs.ClockGate(b)
		live = live || gates[b] != nil
	}
	if !live {
		return nil
	}
	return gates
}

// gateStep routes boundary b's emissions through its gate (pass-through
// when no gates are active).
func gateStep(gates []*fault.ClockGate, b, t int, emitted []fault.Spike) []fault.Spike {
	if gates == nil {
		return emitted
	}
	return gates[b].Step(t, emitted)
}
