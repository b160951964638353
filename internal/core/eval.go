package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// CurvePoint is one point of an accuracy-versus-time-step inference
// curve (paper Fig. 6). It is the shared metrics.CurvePoint: the TTFS
// core and the baseline codings produce the same curve type, so
// experiment code can mix them without copy-conversion.
type CurvePoint = metrics.CurvePoint

// StageSpikeStats aggregates the spike timing of one fire boundary
// across an evaluation set (paper Fig. 5).
type StageSpikeStats struct {
	Name       string
	Times      []int // global spike times of every spike observed
	FirstSpike int   // earliest global spike time (-1 if silent)
	Count      int
}

// Histogram bins the stage's spike times into nbins bins over
// [lo, hi] and returns counts and edges.
func (s *StageSpikeStats) Histogram(lo, hi, nbins int) (counts []int, edges []float64) {
	vals := make([]float64, len(s.Times))
	for i, t := range s.Times {
		vals[i] = float64(t)
	}
	if len(vals) == 0 {
		return make([]int, nbins), nil
	}
	return tensor.Histogram(vals, float64(lo), float64(hi), nbins)
}

// SampleError records one sample whose inference panicked. The sweep
// survives; the sample counts as misclassified.
type SampleError struct {
	Index int
	Err   string
}

// EvalResult aggregates an evaluation run over a labelled set.
type EvalResult struct {
	Accuracy float64
	// Latency is the maximum per-sample latency observed.
	Latency        int
	AvgSpikes      float64 // mean spikes per sample, all boundaries
	SpikesPerStage []float64
	Curve          []CurvePoint
	StageStats     []StageSpikeStats
	// Confusion breaks the accuracy down per class.
	Confusion *metrics.Confusion
	N         int
	// Errors lists samples whose inference panicked (recovered); they
	// are excluded from spike/latency aggregates and counted as
	// misclassified.
	Errors []SampleError
}

// EvalOptions controls Evaluate.
type EvalOptions struct {
	Run RunConfig
	// CurveStride samples the accuracy curve every CurveStride global
	// steps (0 disables the curve).
	CurveStride int
	// CollectStats enables the per-stage spike-time statistics.
	CollectStats bool
	// Pool runs samples concurrently on a shared worker pool with
	// chunk-granularity work stealing (inference only reads the model,
	// so a Model is safe to share); nil runs them sequentially. Results
	// are identical either way: samples are aggregated in order after
	// all inferences finish.
	Pool *Pool
	// Faults evaluates under fault injection: sample i runs with the
	// stream Faults.Sample(i). Streams are pure functions of
	// (seed, sample), so the result is identical at any worker count.
	Faults *fault.Injector
	// Engine selects the inference kernel per sample (clocked, event, or
	// fixed-point quant) — every engine produces the same Result shape,
	// so aggregation is engine-agnostic.
	Engine EngineKind
}

// Evaluate runs the model over a batch X of shape [N, ...] with labels,
// aggregating accuracy, spikes, latency, the inference curve, and
// per-stage spike statistics.
func Evaluate(m *Model, x *tensor.Tensor, labels []int, opts EvalOptions) (EvalResult, error) {
	return EvaluateContext(context.Background(), m, x, labels, opts)
}

// EvaluateContext is Evaluate with cancellation: it stops dispatching
// samples once ctx is done (in-flight inferences finish first) and
// returns ctx.Err(). Long sweeps — large horizons, fault grids — use it
// to respect deadlines instead of running to completion.
func EvaluateContext(ctx context.Context, m *Model, x *tensor.Tensor, labels []int, opts EvalOptions) (EvalResult, error) {
	n := x.Shape[0]
	if n == 0 || n != len(labels) {
		return EvalResult{}, fmt.Errorf("core: %d samples with %d labels", n, len(labels))
	}
	sampleLen := x.Len() / n
	if sampleLen != m.Net.InLen {
		return EvalResult{}, fmt.Errorf("core: sample length %d, model expects %d", sampleLen, m.Net.InLen)
	}
	run := opts.Run
	run.CollectTimeline = run.CollectTimeline || opts.CurveStride > 0
	run.CollectSpikeTimes = run.CollectSpikeTimes || opts.CollectStats

	nB := len(m.Net.Stages) // fire boundaries
	res := EvalResult{N: n, SpikesPerStage: make([]float64, nB)}
	if opts.CollectStats {
		res.StageStats = make([]StageSpikeStats, nB)
		for i := range res.StageStats {
			res.StageStats[i].FirstSpike = -1
			if i == 0 {
				res.StageStats[i].Name = "Input"
			} else {
				res.StageStats[i].Name = m.Net.Stages[i-1].Name
			}
		}
	}

	classes := m.Net.Stages[len(m.Net.Stages)-1].OutLen
	conf, err := metrics.NewConfusion(classes)
	if err != nil {
		return EvalResult{}, fmt.Errorf("core: %w", err)
	}
	res.Confusion = conf

	// run all inferences (optionally across workers; Infer only reads
	// the shared model), then aggregate deterministically in order
	results := make([]Result, n)
	errs := make([]error, n)
	inferOne := func(i int) {
		defer func() {
			// a faulted or malformed sample becomes an error record, not
			// a crashed sweep
			if p := recover(); p != nil {
				errs[i] = fmt.Errorf("core: sample %d: panic: %v", i, p)
			}
		}()
		cfg := run
		cfg.Faults = opts.Faults.Sample(i)
		results[i] = m.InferOne(x.Data[i*sampleLen:(i+1)*sampleLen], cfg, InferOpts{Engine: opts.Engine})
	}
	opts.Pool.Each(n, evalChunk(n, opts.Pool.Workers()), func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			if ctx.Err() != nil {
				return
			}
			inferOne(i)
		}
	})
	if err := ctx.Err(); err != nil {
		return EvalResult{}, err
	}

	correct := 0
	ok := 0
	totalSpikes := 0.0
	timelines := make([][]TimedPred, n)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			res.Errors = append(res.Errors, SampleError{Index: i, Err: errs[i].Error()})
			res.Confusion.Add(labels[i], -1)
			continue
		}
		ok++
		r := results[i]
		if r.Latency > res.Latency {
			res.Latency = r.Latency
		}
		res.Confusion.Add(labels[i], r.Pred)
		if r.Pred == labels[i] {
			correct++
		}
		totalSpikes += float64(r.TotalSpikes)
		for b, s := range r.Spikes {
			res.SpikesPerStage[b] += float64(s)
		}
		if opts.CollectStats {
			for b, ts := range r.SpikeTimes {
				st := &res.StageStats[b]
				st.Times = append(st.Times, ts...)
				st.Count += len(ts)
				for _, t := range ts {
					if st.FirstSpike < 0 || t < st.FirstSpike {
						st.FirstSpike = t
					}
				}
			}
		}
		timelines[i] = r.Timeline
	}
	res.Accuracy = float64(correct) / float64(n)
	if ok > 0 {
		res.AvgSpikes = totalSpikes / float64(ok)
		for b := range res.SpikesPerStage {
			res.SpikesPerStage[b] /= float64(ok)
		}
	}

	if opts.CurveStride > 0 {
		res.Curve = AccuracyCurve(timelines, labels, res.Latency, opts.CurveStride)
	}
	return res, nil
}

// AccuracyCurve samples an inference curve (paper Fig. 6) from
// per-sample decision timelines: at steps 0, stride, 2·stride, … up to
// last, the fraction of samples whose decision then (snn.PredAt)
// matches the label. A nil timeline (a failed sample) holds no
// decision. stride must be positive.
func AccuracyCurve(timelines [][]TimedPred, labels []int, last, stride int) []CurvePoint {
	var curve []CurvePoint
	for step := 0; step <= last; step += stride {
		hit := 0
		for i, tl := range timelines {
			if snn.PredAt(tl, step) == labels[i] {
				hit++
			}
		}
		curve = append(curve, CurvePoint{Step: step, Accuracy: float64(hit) / float64(len(labels))})
	}
	return curve
}

// MeanAbsDiff is a helper reporting the mean absolute difference between
// the model's final output potentials and a reference logit vector; the
// equivalence tests use it to bound TTFS transmission error.
func MeanAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("core: MeanAbsDiff length mismatch")
	}
	s := 0.0
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s / float64(len(a))
}
