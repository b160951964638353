// Package coding implements the three baseline neural coding schemes the
// paper compares T2FSNN against: rate coding (Diehl 2015 / Rueckauer
// 2017), phase coding with weighted spikes (Kim 2018), and burst coding
// (Park, DAC 2019). All three run the same converted network
// (internal/convert) through one clock-driven integrate-and-fire loop
// (simulate) and report spikes, decision timelines and
// accuracy-versus-time curves for Fig. 6 and Tables II–III. T2FSNN
// itself is not a Scheme: it runs on internal/core (core.Model.InferOne,
// core.Evaluate).
package coding

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// RunOpts configures one scheme simulation, mirroring core.RunConfig so
// the serving layer and the experiments call every engine with one
// shape. The zero value (plus a Steps horizon) is the plain fault-free
// run.
type RunOpts struct {
	// Steps is the simulation horizon in global time steps.
	Steps int
	// CollectTimeline retains the output-potential argmax trajectory
	// for inference curves (costs memory; off by default).
	CollectTimeline bool
	// Faults is the sample's fault-injection stream (internal/fault);
	// nil injects nothing and the simulation is bit-identical to the
	// fault-free path.
	Faults *fault.Stream
	// Scratch supplies the simulation's reusable working buffers so a
	// sustained caller allocates nothing per Run; nil falls back to a
	// fresh single-use scratch. See Scratch for the aliasing contract.
	Scratch *Scratch
}

// Scheme simulates one input (flattened [C,H,W], values in [0,1])
// through net under the given options.
type Scheme interface {
	Name() string
	Run(net *snn.Net, input []float64, opts RunOpts) snn.SimResult
}

// CurvePoint is one accuracy sample of an inference curve, shared with
// internal/core via internal/metrics.
type CurvePoint = metrics.CurvePoint

// EvalResult aggregates a scheme over a labelled evaluation set.
type EvalResult struct {
	SchemeName string
	Accuracy   float64
	AvgSpikes  float64
	Steps      int
	Curve      []CurvePoint
	// ConvergenceStep is the first curve step whose accuracy is within
	// Tolerance of the final accuracy — the "latency" the paper reports
	// for rate/phase/burst coding.
	ConvergenceStep int
	N               int
}

// Tolerance is the absolute accuracy slack used to declare convergence.
const Tolerance = 0.005

// SweepOpts configures an evaluation sweep over a labelled set.
type SweepOpts struct {
	// Steps is the simulation horizon per sample.
	Steps int
	// Stride samples the accuracy curve every Stride steps (≤0 means
	// Steps/50, minimum 1).
	Stride int
	// Faults runs sample i with the per-sample stream Faults.Sample(i)
	// (nil = no faults).
	Faults *fault.Injector
	// Pool fans samples across a shared worker pool with one Scratch per
	// worker; nil (or a single-worker pool) runs the sequential
	// one-scratch sweep. Results are identical at any worker count:
	// every scheme's Run is a pure function of (input, sample stream) —
	// even Poisson rate coding reseeds its generator per Run — and the
	// retained fields (Pred, TotalSpikes, Timeline) never alias scratch
	// memory.
	Pool *core.Pool
}

// Evaluate runs scheme over a batch X [N, ...] with labels for the given
// number of steps, sampling the accuracy curve every stride steps.
func Evaluate(s Scheme, net *snn.Net, x *tensor.Tensor, labels []int, steps, stride int) (EvalResult, error) {
	return EvaluateSweep(s, net, x, labels, SweepOpts{Steps: steps, Stride: stride})
}

// EvaluateSweep is the full-control sweep: fault injection plus
// optional data-parallel execution over a shared core.Pool.
func EvaluateSweep(s Scheme, net *snn.Net, x *tensor.Tensor, labels []int, opts SweepOpts) (EvalResult, error) {
	n := x.Shape[0]
	if n == 0 || n != len(labels) {
		return EvalResult{}, fmt.Errorf("coding: %d samples with %d labels", n, len(labels))
	}
	sampleLen := x.Len() / n
	if sampleLen != net.InLen {
		return EvalResult{}, fmt.Errorf("coding: sample length %d, network expects %d", sampleLen, net.InLen)
	}
	steps, stride, inj := opts.Steps, opts.Stride, opts.Faults
	if stride <= 0 {
		stride = max(steps/50, 1)
	}
	res := EvalResult{SchemeName: s.Name(), Steps: steps, N: n}
	preds := make([]int, n)
	spikes := make([]int, n)
	timelines := make([][]snn.TimedPred, n)
	// Only Timeline/Pred/TotalSpikes are retained across samples, none of
	// which alias scratch memory — so one scratch per worker (one for a
	// sequential sweep) is safe.
	scratches := make([]*Scratch, opts.Pool.Workers())
	opts.Pool.Each(n, max(n/(len(scratches)*4), 1), func(lo, hi, worker int) {
		if scratches[worker] == nil {
			scratches[worker] = NewScratch()
		}
		for i := lo; i < hi; i++ {
			in := x.Data[i*sampleLen : (i+1)*sampleLen]
			r := s.Run(net, in, RunOpts{Steps: steps, CollectTimeline: true, Faults: inj.Sample(i), Scratch: scratches[worker]})
			preds[i] = r.Pred
			spikes[i] = r.TotalSpikes
			timelines[i] = r.Timeline
		}
	})
	correct := 0
	totalSpikes := 0.0
	for i := 0; i < n; i++ {
		if preds[i] == labels[i] {
			correct++
		}
		totalSpikes += float64(spikes[i])
	}
	res.Accuracy = float64(correct) / float64(n)
	res.AvgSpikes = totalSpikes / float64(n)
	res.Curve = core.AccuracyCurve(timelines, labels, steps, stride)
	res.ConvergenceStep = ConvergenceStep(res.Curve, res.Accuracy)
	return res, nil
}

// ConvergenceStep returns the first curve step whose accuracy is within
// Tolerance of final; if the curve is empty it returns 0.
func ConvergenceStep(curve []CurvePoint, final float64) int {
	for _, p := range curve {
		if p.Accuracy >= final-Tolerance {
			return p.Step
		}
	}
	if len(curve) > 0 {
		return curve[len(curve)-1].Step
	}
	return 0
}
