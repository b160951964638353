package coding

import (
	"testing"

	"repro/internal/snn"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

func evalScheme(t *testing.T, s Scheme, steps, n int) EvalResult {
	t.Helper()
	fx := testutil.TrainedLeNet16()
	x := tensor.FromSlice(fx.X.Data[:n*256], n, 256)
	res, err := Evaluate(s, fx.Conv.Net, x, fx.Labels[:n], steps, steps/40)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRateCodingConvergesToDNNAccuracy(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	res := evalScheme(t, Rate{}, 400, 60)
	if res.Accuracy < fx.DNNAccuracy-0.15 {
		t.Fatalf("rate accuracy %.2f far below DNN %.2f", res.Accuracy, fx.DNNAccuracy)
	}
}

func TestPhaseCodingConverges(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	res := evalScheme(t, Phase{}, 200, 60)
	if res.Accuracy < fx.DNNAccuracy-0.15 {
		t.Fatalf("phase accuracy %.2f far below DNN %.2f", res.Accuracy, fx.DNNAccuracy)
	}
}

func TestBurstCodingConverges(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	res := evalScheme(t, Burst{}, 200, 60)
	if res.Accuracy < fx.DNNAccuracy-0.15 {
		t.Fatalf("burst accuracy %.2f far below DNN %.2f", res.Accuracy, fx.DNNAccuracy)
	}
}

// Spikes must be compared at each scheme's own convergence horizon (the
// paper's Table II pairs each scheme's spike count with its latency; in
// the paper phase can out-spike rate per step, and does on MNIST and
// CIFAR-100). The robust ordering is spikes-to-convergence: burst
// converges in far fewer steps than rate and so needs no more spikes to
// reach its converged accuracy.
func TestSpikesToConvergenceOrdering(t *testing.T) {
	horizon := 400
	rate := evalScheme(t, Rate{}, horizon, 40)
	burst := evalScheme(t, Burst{}, horizon, 40)
	// re-measure spike cost truncated at each scheme's convergence step
	rateConv := evalScheme(t, Rate{}, maxInt(rate.ConvergenceStep, 1), 40)
	burstConv := evalScheme(t, Burst{}, maxInt(burst.ConvergenceStep, 1), 40)
	if burstConv.AvgSpikes > rateConv.AvgSpikes {
		t.Fatalf("burst needs %.0f spikes to converge, rate only %.0f",
			burstConv.AvgSpikes, rateConv.AvgSpikes)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Burst coding should reach its converged accuracy no later than rate
// coding (paper Fig. 6 fast-to-slow ordering: burst < phase < rate).
func TestConvergenceOrdering(t *testing.T) {
	rate := evalScheme(t, Rate{}, 400, 40)
	burst := evalScheme(t, Burst{}, 400, 40)
	if burst.ConvergenceStep > rate.ConvergenceStep {
		t.Fatalf("burst converges at %d, later than rate at %d",
			burst.ConvergenceStep, rate.ConvergenceStep)
	}
}

func TestRateInputEncoderFrequency(t *testing.T) {
	// A single input neuron with pixel u must fire at rate ≈ u.
	fx := testutil.TrainedLeNet16()
	net := fx.Conv.Net
	input := make([]float64, net.InLen)
	input[0] = 0.37
	res := Rate{}.Run(net, input, RunOpts{Steps: 1000})
	rate := float64(res.SpikesPerStage[0]) / 1000
	if rate < 0.36 || rate > 0.38 {
		t.Fatalf("input firing rate %.3f, want ≈0.37", rate)
	}
}

func TestPhaseInputEmitsPerPeriod(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	net := fx.Conv.Net
	input := make([]float64, net.InLen)
	input[0] = 0.5 // exactly one bit set -> one spike per period
	res := Phase{}.Run(net, input, RunOpts{Steps: 80})
	if res.SpikesPerStage[0] != 10 {
		t.Fatalf("phase input spikes = %d, want 10 (one per 8-step period)", res.SpikesPerStage[0])
	}
}

func TestBurstTransmitsLargeValuesFaster(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	net := fx.Conv.Net
	big := make([]float64, net.InLen)
	for i := range big {
		big[i] = 1.0
	}
	nSteps := 20
	burst := Burst{}.Run(net, big, RunOpts{Steps: nSteps})
	rate := Rate{}.Run(net, big, RunOpts{Steps: nSteps})
	// burst input encoders drain accumulated charge with growing weights,
	// so they emit at most as many spikes as rate for the same drive
	if burst.SpikesPerStage[0] > rate.SpikesPerStage[0] {
		t.Fatalf("burst input spikes %d > rate %d", burst.SpikesPerStage[0], rate.SpikesPerStage[0])
	}
	// but transmit more total charge: sum over weights is larger; check
	// via output potential magnitude
	if absSum(burst.Potentials) < absSum(rate.Potentials)*0.9 {
		t.Fatalf("burst transmitted less charge than rate: %v vs %v",
			absSum(burst.Potentials), absSum(rate.Potentials))
	}
}

func TestTimelineInvariants(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	net := fx.Conv.Net
	in := fx.X.Data[:256]
	for _, s := range []Scheme{Rate{}, Phase{}, Burst{}} {
		r := s.Run(net, in, RunOpts{Steps: 100, CollectTimeline: true})
		if r.Pred < 0 || r.Pred >= 10 {
			t.Fatalf("%s: pred %d out of range", s.Name(), r.Pred)
		}
		prev := -1
		for _, tp := range r.Timeline {
			if tp.Step < prev {
				t.Fatalf("%s: timeline steps not monotone", s.Name())
			}
			prev = tp.Step
		}
		if got := snn.PredAt(r.Timeline, 1<<30); got != r.Pred {
			t.Fatalf("%s: PredAt(inf) = %d, want %d", s.Name(), got, r.Pred)
		}
		if snn.PredAt(r.Timeline, -1) != -1 {
			t.Fatalf("%s: PredAt before start should be -1", s.Name())
		}
		if r.TotalSpikes <= 0 {
			t.Fatalf("%s: no spikes on a real image", s.Name())
		}
		// per-boundary accounting sums to the total
		sum := 0
		for _, c := range r.SpikesPerStage {
			sum += c
		}
		if sum != r.TotalSpikes {
			t.Fatalf("%s: spike accounting %d != %d", s.Name(), sum, r.TotalSpikes)
		}
	}
}

func TestEvaluateCurveShape(t *testing.T) {
	res := evalScheme(t, Rate{}, 200, 30)
	if len(res.Curve) < 10 {
		t.Fatalf("curve too sparse: %d points", len(res.Curve))
	}
	if last := res.Curve[len(res.Curve)-1]; last.Accuracy != res.Accuracy {
		t.Fatalf("curve must end at final accuracy: %v vs %v", last.Accuracy, res.Accuracy)
	}
	if res.ConvergenceStep > res.Steps {
		t.Fatalf("convergence step %d beyond horizon %d", res.ConvergenceStep, res.Steps)
	}
	// early accuracy must not exceed converged accuracy by much (rates
	// need time to average out)
	if res.Curve[0].Accuracy > res.Accuracy+Tolerance {
		t.Fatalf("accuracy at step 0 (%v) above converged (%v)", res.Curve[0].Accuracy, res.Accuracy)
	}
}

func TestEvaluateErrors(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	x := tensor.New(2, 256)
	if _, err := Evaluate(Rate{}, fx.Conv.Net, x, []int{0}, 10, 1); err == nil {
		t.Fatal("label mismatch accepted")
	}
	bad := tensor.New(2, 99)
	if _, err := Evaluate(Rate{}, fx.Conv.Net, bad, []int{0, 1}, 10, 1); err == nil {
		t.Fatal("bad sample length accepted")
	}
}

func TestConvergenceStepEdgeCases(t *testing.T) {
	if got := ConvergenceStep(nil, 0.5); got != 0 {
		t.Fatalf("empty curve -> %d, want 0", got)
	}
	curve := []CurvePoint{
		{Step: 0, Accuracy: 0.1},
		{Step: 10, Accuracy: 0.5},
		{Step: 20, Accuracy: 0.9},
		{Step: 30, Accuracy: 0.9},
	}
	if got := ConvergenceStep(curve, 0.9); got != 20 {
		t.Fatalf("ConvergenceStep = %d, want 20", got)
	}
}

func TestSchemeNames(t *testing.T) {
	if (Rate{}).Name() != "Rate" || (Phase{}).Name() != "Phase" || (Burst{}).Name() != "Burst" {
		t.Fatal("scheme names wrong")
	}
}

func TestPhasePeriodDefault(t *testing.T) {
	if (Phase{}).period() != 8 || (Phase{Period: 4}).period() != 4 {
		t.Fatal("phase period defaulting wrong")
	}
}

func TestBurstParamsDefault(t *testing.T) {
	g, m := (Burst{}).params()
	if g != 2 || m != 5 {
		t.Fatalf("burst defaults = (%v,%d), want (2,5)", g, m)
	}
}

func absSum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		if x < 0 {
			s -= x
		} else {
			s += x
		}
	}
	return s
}

var _ = snn.ArgMax // keep the import obvious for readers

func TestPoissonRateFrequency(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	net := fx.Conv.Net
	input := make([]float64, net.InLen)
	input[0] = 0.37
	res := Rate{Poisson: true, Seed: 5}.Run(net, input, RunOpts{Steps: 3000})
	rate := float64(res.SpikesPerStage[0]) / 3000
	if rate < 0.34 || rate > 0.40 {
		t.Fatalf("poisson input firing rate %.3f, want ≈0.37", rate)
	}
}

func TestPoissonRateDeterministicPerSeed(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	in := fx.X.Data[:256]
	a := Rate{Poisson: true, Seed: 7}.Run(fx.Conv.Net, in, RunOpts{Steps: 100})
	b := Rate{Poisson: true, Seed: 7}.Run(fx.Conv.Net, in, RunOpts{Steps: 100})
	if a.TotalSpikes != b.TotalSpikes || a.Pred != b.Pred {
		t.Fatal("same seed must reproduce the same simulation")
	}
	c := Rate{Poisson: true, Seed: 8}.Run(fx.Conv.Net, in, RunOpts{Steps: 100})
	if a.TotalSpikes == c.TotalSpikes {
		t.Fatal("different seeds should perturb the spike count")
	}
}

func TestPoissonRateAccuracyTracksDeterministic(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	x := tensor.FromSlice(fx.X.Data[:40*256], 40, 256)
	det, err := Evaluate(Rate{}, fx.Conv.Net, x, fx.Labels[:40], 300, 30)
	if err != nil {
		t.Fatal(err)
	}
	poi, err := Evaluate(Rate{Poisson: true, Seed: 9}, fx.Conv.Net, x, fx.Labels[:40], 300, 30)
	if err != nil {
		t.Fatal(err)
	}
	if poi.Accuracy < det.Accuracy-0.15 {
		t.Fatalf("poisson accuracy %.2f far below deterministic %.2f", poi.Accuracy, det.Accuracy)
	}
	if poi.SchemeName != "Rate(poisson)" {
		t.Fatalf("scheme name %q", poi.SchemeName)
	}
}
