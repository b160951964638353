package coding

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/snn"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// The reference simulators below are the three baseline codings as they
// ran before they shared one integrate-and-fire loop: a separate
// clock-driven loop per scheme, each with its own input encoder, stuck-at
// handling and fire rule. TestSchemesMatchReference pins the shared loop
// to them bit for bit.

// referenceRate is Rate.Run as a standalone per-scheme loop.
func referenceRate(r Rate, net *snn.Net, input []float64, opts RunOpts) snn.SimResult {
	steps, fs := opts.Steps, opts.Faults
	nStages := len(net.Stages)
	var rng *tensor.RNG
	if r.Poisson {
		rng = tensor.NewRNG(r.Seed ^ 0x706f6973)
	}
	gates := boundaryGates(fs, nStages)

	sc := scratchFor(opts)
	res := newSimResult(sc, net, steps)
	inputAcc := sc.floats(net.InLen)
	pot := sc.potentials(net)
	spikeBuf := sc.spikeBufs(net) // reused spike lists per boundary

	for t := 0; t < steps; t++ {
		// input encoding: constant-current IF (deterministic) or
		// Bernoulli draws with p = pixel value (Poisson mode)
		spikeBuf[0] = spikeBuf[0][:0]
		for i, u := range input {
			if fs != nil {
				switch fs.Stuck(0, i) {
				case fault.StuckSilent:
					continue
				case fault.StuckFire:
					spikeBuf[0] = append(spikeBuf[0], fault.Spike{Idx: i, W: 1})
					continue
				}
			}
			if u <= 0 {
				continue
			}
			if rng != nil {
				if rng.Float64() < u {
					spikeBuf[0] = append(spikeBuf[0], fault.Spike{Idx: i, W: 1})
				}
				continue
			}
			inputAcc[i] += u
			if inputAcc[i] >= 1 {
				inputAcc[i]--
				spikeBuf[0] = append(spikeBuf[0], fault.Spike{Idx: i, W: 1})
			}
		}

		// synchronous sweep: spikes cascade through the stack this step
		for si := range net.Stages {
			st := &net.Stages[si]
			st.AddBias(pot[si]) // constant bias current per step
			in := gateStep(gates, si, t, spikeBuf[si])
			res.SpikesPerStage[si] += len(in)
			for _, s := range in {
				st.Scatter(s.Idx, s.W, pot[si])
			}
			if st.Output {
				break
			}
			spikeBuf[si+1] = spikeBuf[si+1][:0]
			p := pot[si]
			for j := range p {
				if fs != nil {
					switch fs.Stuck(si+1, j) {
					case fault.StuckSilent:
						continue
					case fault.StuckFire:
						spikeBuf[si+1] = append(spikeBuf[si+1], fault.Spike{Idx: j, W: 1})
						continue
					}
				}
				thr := 1.0
				if fs != nil {
					thr = fs.Threshold(si+1, t, thr)
				}
				if p[j] >= thr {
					// soft reset by the transmitted quantum (1), not the
					// perturbed comparison threshold
					p[j]--
					spikeBuf[si+1] = append(spikeBuf[si+1], fault.Spike{Idx: j, W: 1})
				}
			}
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

// referencePhase is Phase.Run as a standalone per-scheme loop.
func referencePhase(p Phase, net *snn.Net, input []float64, opts RunOpts) snn.SimResult {
	steps, fs := opts.Steps, opts.Faults
	k := p.period()
	nStages := len(net.Stages)
	gates := boundaryGates(fs, nStages)

	sc := scratchFor(opts)
	res := newSimResult(sc, net, steps)

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

	pot := sc.potentials(net)
	spikeBuf := sc.spikeBufs(net)

	for t := 0; t < steps; t++ {
		phase := t % k
		weight := math.Exp2(-float64(1 + phase))

		// input: emit the bit for this phase, every period
		spikeBuf[0] = spikeBuf[0][:0]
		bit := uint32(1) << (k - 1 - phase)
		for i, q := range bits {
			if fs != nil {
				switch fs.Stuck(0, i) {
				case fault.StuckSilent:
					continue
				case fault.StuckFire:
					spikeBuf[0] = append(spikeBuf[0], fault.Spike{Idx: i, W: weight})
					continue
				}
			}
			if q&bit != 0 {
				spikeBuf[0] = append(spikeBuf[0], fault.Spike{Idx: i, W: weight})
			}
		}

		for si := range net.Stages {
			st := &net.Stages[si]
			if phase == 0 {
				// biases inject their value once per period
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
			spikeBuf[si+1] = spikeBuf[si+1][:0]
			pp := pot[si]
			for j := range pp {
				if fs != nil {
					switch fs.Stuck(si+1, j) {
					case fault.StuckSilent:
						continue
					case fault.StuckFire:
						spikeBuf[si+1] = append(spikeBuf[si+1], fault.Spike{Idx: j, W: weight})
						continue
					}
				}
				// fire a weighted spike when the membrane covers the
				// current phase weight (phase-modulated threshold)
				thr := weight
				if fs != nil {
					thr = fs.Threshold(si+1, t, thr)
				}
				if pp[j] >= thr {
					pp[j] -= weight
					spikeBuf[si+1] = append(spikeBuf[si+1], fault.Spike{Idx: j, W: weight})
				}
			}
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

// referenceBurst is Burst.Run as a standalone per-scheme loop.
func referenceBurst(b Burst, net *snn.Net, input []float64, opts RunOpts) snn.SimResult {
	steps, fs := opts.Steps, opts.Faults
	g, maxLen := b.params()
	nStages := len(net.Stages)
	gates := boundaryGates(fs, nStages)

	sc := scratchFor(opts)
	res := newSimResult(sc, net, steps)
	inputAcc := sc.floats(net.InLen)
	inputBurst := sc.ints(net.InLen)
	pot := sc.potentials(net)
	burst := sc.rungs(net)
	spikeBuf := sc.spikeBufs(net)
	pow := sc.powers(g, maxLen)

	for t := 0; t < steps; t++ {
		spikeBuf[0] = spikeBuf[0][:0]
		for i, u := range input {
			if fs != nil {
				switch fs.Stuck(0, i) {
				case fault.StuckSilent:
					continue
				case fault.StuckFire:
					spikeBuf[0] = append(spikeBuf[0], fault.Spike{Idx: i, W: 1})
					continue
				}
			}
			if u <= 0 {
				continue
			}
			inputAcc[i] += u
			w := pow[inputBurst[i]]
			if inputAcc[i] >= w {
				inputAcc[i] -= w
				spikeBuf[0] = append(spikeBuf[0], fault.Spike{Idx: i, W: w})
				if inputBurst[i] < maxLen-1 {
					inputBurst[i]++
				}
			} else {
				inputBurst[i] = 0
			}
		}

		for si := range net.Stages {
			st := &net.Stages[si]
			st.AddBias(pot[si])
			in := gateStep(gates, si, t, spikeBuf[si])
			res.SpikesPerStage[si] += len(in)
			for _, s := range in {
				st.Scatter(s.Idx, s.W, pot[si])
			}
			if st.Output {
				break
			}
			spikeBuf[si+1] = spikeBuf[si+1][:0]
			pp := pot[si]
			bb := burst[si]
			for j := range pp {
				if fs != nil {
					switch fs.Stuck(si+1, j) {
					case fault.StuckSilent:
						continue
					case fault.StuckFire:
						// a jammed driver fires unit spikes, ignoring the
						// burst ladder and the membrane state
						spikeBuf[si+1] = append(spikeBuf[si+1], fault.Spike{Idx: j, W: 1})
						continue
					}
				}
				w := pow[bb[j]]
				thr := w
				if fs != nil {
					thr = fs.Threshold(si+1, t, thr)
				}
				if pp[j] >= thr {
					pp[j] -= w
					spikeBuf[si+1] = append(spikeBuf[si+1], fault.Spike{Idx: j, W: w})
					if bb[j] < maxLen-1 {
						bb[j]++
					}
				} else {
					bb[j] = 0
				}
			}
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

// TestSchemesMatchReference pins every scheme variant to its standalone
// reference loop under every fault kind, alone and mixed, with the
// timeline on (sample 1) and off: predictions, spike tallies, timelines and the
// final potentials (by bit pattern) must all agree.
func TestSchemesMatchReference(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	net := fx.Conv.Net
	type variant struct {
		s   Scheme
		ref func(net *snn.Net, input []float64, opts RunOpts) snn.SimResult
	}
	rate := func(r Rate) variant {
		return variant{r, func(n *snn.Net, in []float64, o RunOpts) snn.SimResult { return referenceRate(r, n, in, o) }}
	}
	phase := func(p Phase) variant {
		return variant{p, func(n *snn.Net, in []float64, o RunOpts) snn.SimResult { return referencePhase(p, n, in, o) }}
	}
	burst := func(b Burst) variant {
		return variant{b, func(n *snn.Net, in []float64, o RunOpts) snn.SimResult { return referenceBurst(b, n, in, o) }}
	}
	variants := []variant{
		rate(Rate{}), rate(Rate{Poisson: true, Seed: 4}),
		phase(Phase{}), phase(Phase{Period: 1}), phase(Phase{Period: 5}),
		burst(Burst{}), burst(Burst{Growth: 3, MaxLen: 3}), burst(Burst{MaxLen: 1}),
	}
	faults := []struct {
		name string
		cfg  *fault.Config
	}{
		{"nil", nil},
		{"zero", &fault.Config{Seed: 31}},
		{"drop", &fault.Config{Seed: 32, Drop: 0.2}},
		{"jitter", &fault.Config{Seed: 33, Jitter: 2}},
		{"stuck-silent", &fault.Config{Seed: 34, StuckSilent: 0.1}},
		{"stuck-fire", &fault.Config{Seed: 35, StuckFire: 0.05}},
		{"threshold-noise", &fault.Config{Seed: 36, ThresholdNoise: 0.1}},
		{"mixed", &fault.Config{Seed: 37, Drop: 0.1, Jitter: 1, StuckSilent: 0.03, StuckFire: 0.02, ThresholdNoise: 0.05}},
	}
	for _, fc := range faults {
		var inj *fault.Injector
		if fc.cfg != nil {
			inj = mustInjector(t, *fc.cfg)
		}
		for _, v := range variants {
			for i := 0; i < 3; i++ {
				in := fx.X.Data[i*256 : (i+1)*256]
				opts := RunOpts{Steps: 80, CollectTimeline: i%2 == 1, Faults: inj.Sample(i)}
				tag := fmt.Sprintf("%s/%s/sample %d", fc.name, v.s.Name(), i)
				sameSimResult(t, tag, v.s.Run(net, in, opts), v.ref(net, in, opts))
			}
		}
	}
}
