package core

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/convert"
	"repro/internal/dnn"
	"repro/internal/kernel"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// tinyNet builds a handcrafted 2-stage dense network (3 -> 4 -> 2) with
// fixed weights for exact-value tests.
func tinyNet() *snn.Net {
	w1 := tensor.FromSlice([]float64{
		0.5, 0.2, 0.1, 0.3,
		0.1, 0.4, 0.2, 0.1,
		0.2, 0.1, 0.5, 0.2,
	}, 3, 4)
	b1 := tensor.New(4)
	w2 := tensor.FromSlice([]float64{
		0.6, 0.1,
		0.2, 0.5,
		0.1, 0.4,
		0.3, 0.2,
	}, 4, 2)
	b2 := tensor.FromSlice([]float64{0.05, -0.05}, 2)
	return &snn.Net{
		Name: "tiny", InShape: []int{3}, InLen: 3,
		Stages: []snn.Stage{
			{Name: "h", Kind: snn.DenseStage, W: w1, B: b1, InLen: 3, OutLen: 4},
			{Name: "out", Kind: snn.DenseStage, W: w2, B: b2, InLen: 4, OutLen: 2, Output: true},
		},
	}
}

// trainedFixture converts a small trained LeNet once and shares it.
var fixture struct {
	once   sync.Once
	model  func() *Model // fresh model over the shared net
	res    *convert.Result
	x      *tensor.Tensor
	labels []int
	inputs []float64 // calibration pixels for GO
}

func loadFixture(t testing.TB) {
	t.Helper()
	fixture.once.Do(func() {
		rng := tensor.NewRNG(21)
		cfg := dnn.ArchConfig{InC: 1, InH: 16, InW: 16, Classes: 10, FCWidth: 32, BatchNorm: true, Pool: dnn.AvgPool}
		net := dnn.BuildLeNet(cfg, rng)
		n := 300
		x := tensor.New(n, 1, 16, 16)
		labels := make([]int, n)
		r := tensor.NewRNG(22)
		for i := 0; i < n; i++ {
			cls := i % 10
			labels[i] = cls
			cx, cy := 2+(cls%5)*3, 2+(cls/5)*8
			for dy := 0; dy < 4; dy++ {
				for dx := 0; dx < 4; dx++ {
					x.Data[i*256+(cy+dy)*16+cx+dx] = tensor.Clamp(0.8+0.2*r.Norm(), 0, 1)
				}
			}
			for j := 0; j < 256; j++ {
				x.Data[i*256+j] = tensor.Clamp(x.Data[i*256+j]+0.05*r.Norm(), 0, 1)
			}
		}
		dnn.Train(net, x, labels, dnn.TrainConfig{
			Epochs: 3, BatchSize: 25, Optimizer: dnn.NewAdam(2e-3, 0), RNG: tensor.NewRNG(23)})
		res, err := convert.Convert(net, convert.Options{Calibration: x})
		if err != nil {
			panic(err)
		}
		fixture.res = res
		fixture.x = x
		fixture.labels = labels
		fixture.inputs = x.Data[:256*100]
		fixture.model = func() *Model {
			m, err := NewModel(res.Net, 80, 20, 0)
			if err != nil {
				panic(err)
			}
			return m
		}
	})
}

func TestNewModelValidation(t *testing.T) {
	net := tinyNet()
	if _, err := NewModel(net, 20, -1, 0); err == nil {
		t.Fatal("negative τ accepted")
	}
	m, err := NewModel(net, 20, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.K) != 2 {
		t.Fatalf("kernel count = %d, want 2", len(m.K))
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	m.K[1].T = 10
	if err := m.Validate(); err == nil {
		t.Fatal("mismatched kernel window accepted")
	}
}

func TestBaselineLatency(t *testing.T) {
	m, _ := NewModel(tinyNet(), 20, 5, 0)
	r := m.InferOne([]float64{0.5, 0.5, 0.5}, RunConfig{}, InferOpts{})
	// 2 stages: latency = L·T = 40
	if r.Latency != 40 {
		t.Fatalf("baseline latency = %d, want 40", r.Latency)
	}
}

func TestEarlyFiringLatency(t *testing.T) {
	m, _ := NewModel(tinyNet(), 20, 5, 0)
	r := m.InferOne([]float64{0.5, 0.5, 0.5}, RunConfig{EarlyFire: true}, InferOpts{})
	// (L-1)·T/2 + T = 10 + 20 = 30
	if r.Latency != 30 {
		t.Fatalf("EF latency = %d, want 30", r.Latency)
	}
	r2 := m.InferOne([]float64{0.5, 0.5, 0.5}, RunConfig{EarlyFire: true, EFStart: 5}, InferOpts{})
	if r2.Latency != 25 {
		t.Fatalf("EF(5) latency = %d, want 25", r2.Latency)
	}
}

// Paper VGG-16 sanity: 16 stages, T=80 -> 1280 baseline, 680 with EF.
func TestPaperLatencyNumbers(t *testing.T) {
	cfg := RunConfig{}
	if got := (16-1)*cfg.advance(80) + 80; got != 1280 {
		t.Fatalf("baseline VGG-16 latency = %d, want 1280", got)
	}
	ef := RunConfig{EarlyFire: true}
	if got := (16-1)*ef.advance(80) + 80; got != 680 {
		t.Fatalf("EF VGG-16 latency = %d, want 680", got)
	}
}

// The baseline clocked fire phase must agree exactly with the analytic
// encode of the fully integrated potential (guaranteed integration).
func TestBaselineMatchesAnalyticEncode(t *testing.T) {
	net := tinyNet()
	m, _ := NewModel(net, 40, 8, 0)
	in := []float64{0.9, 0.3, 0.6}
	r := m.InferOne(in, RunConfig{CollectSpikeTimes: true}, InferOpts{})

	// decode input spikes analytically
	decoded := make([]float64, 3)
	for i, u := range in {
		if tt, ok := m.K[0].Encode(u); ok {
			decoded[i] = m.K[0].Decode(tt)
		}
	}
	pot := net.Stages[0].Forward(decoded)
	wantSpikes := 0
	for _, u := range pot {
		if _, ok := m.K[1].Encode(u); ok {
			wantSpikes++
		}
	}
	if r.Spikes[1] != wantSpikes {
		t.Fatalf("hidden spikes = %d, analytic %d", r.Spikes[1], wantSpikes)
	}
	// spike times must match the analytic encode, offset by the window base T
	want := map[int]bool{}
	for _, u := range pot {
		if tt, ok := m.K[1].Encode(u); ok {
			want[40+tt] = true
		}
	}
	for _, gt := range r.SpikeTimes[1] {
		if !want[gt] {
			t.Fatalf("unexpected spike time %d (want one of %v)", gt, want)
		}
	}
}

// EF with EFStart = T must be identical to the baseline pipeline.
func TestEFWithFullWindowEqualsBaseline(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	for i := 0; i < 10; i++ {
		in := fixture.x.Data[i*256 : (i+1)*256]
		a := m.InferOne(in, RunConfig{}, InferOpts{})
		b := m.InferOne(in, RunConfig{EarlyFire: true, EFStart: m.T}, InferOpts{})
		if a.Pred != b.Pred || a.TotalSpikes != b.TotalSpikes {
			t.Fatalf("sample %d: EF(T) differs from baseline: pred %d/%d spikes %d/%d",
				i, a.Pred, b.Pred, a.TotalSpikes, b.TotalSpikes)
		}
	}
}

// Invariant: at most one spike per neuron, for any pipeline variant.
func TestAtMostOneSpikePerNeuronProperty(t *testing.T) {
	net := tinyNet()
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		m, err := NewModel(net, 10+r.Intn(40), r.Range(1, 15), r.Range(0, 2))
		if err != nil {
			return true
		}
		in := []float64{r.Float64(), r.Float64(), r.Float64()}
		cfg := RunConfig{EarlyFire: r.Intn(2) == 0, EFStart: 1 + r.Intn(m.T), CollectSpikeTimes: true}
		res := m.InferOne(in, cfg, InferOpts{})
		if res.Spikes[0] > 3 || res.Spikes[1] > 4 {
			return false // more spikes than neurons
		}
		return len(res.SpikeTimes[0]) == res.Spikes[0] && len(res.SpikeTimes[1]) == res.Spikes[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The T2FSNN potentials at the output must approximate the converted
// ANN's clipped reference logits within the kernels' precision error.
func TestOutputPotentialsApproximateReference(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	worst := 0.0
	for i := 0; i < 20; i++ {
		in := fixture.x.Data[i*256 : (i+1)*256]
		r := m.InferOne(in, RunConfig{}, InferOpts{})
		ref := convert.ReferenceForward(fixture.res.Net, append([]float64(nil), in...), true)
		if d := MeanAbsDiff(r.Potentials, ref); d > worst {
			worst = d
		}
	}
	// τ=20 -> per-hop relative error ≈ 5%; allow accumulated slack
	if worst > 0.25 {
		t.Fatalf("output potentials deviate from reference by %v", worst)
	}
}

// Baseline T2FSNN classification must be close to the converted ANN.
func TestBaselineAccuracyNearReference(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	n := 100
	agree := 0
	for i := 0; i < n; i++ {
		in := fixture.x.Data[i*256 : (i+1)*256]
		r := m.InferOne(in, RunConfig{}, InferOpts{})
		ref := convert.ReferenceForward(fixture.res.Net, append([]float64(nil), in...), true)
		if r.Pred == argmax(ref) {
			agree++
		}
	}
	if frac := float64(agree) / float64(n); frac < 0.85 {
		t.Fatalf("T2FSNN agrees with reference on only %.0f%%", 100*frac)
	}
}

func TestEarlyFiringKeepsAccuracy(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	n := 100
	base, ef := 0, 0
	for i := 0; i < n; i++ {
		in := fixture.x.Data[i*256 : (i+1)*256]
		if m.InferOne(in, RunConfig{}, InferOpts{}).Pred == fixture.labels[i] {
			base++
		}
		if m.InferOne(in, RunConfig{EarlyFire: true}, InferOpts{}).Pred == fixture.labels[i] {
			ef++
		}
	}
	if float64(ef) < 0.85*float64(base) {
		t.Fatalf("early firing degraded accuracy too much: %d vs %d", ef, base)
	}
}

func TestApplyGOShiftsSpikesEarlier(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	in := fixture.x.Data[:256]
	before := m.InferOne(in, RunConfig{CollectSpikeTimes: true}, InferOpts{})

	_, err := m.ApplyGO(fixture.inputs, fixture.res.Activations, kernel.OptimizeConfig{
		LRTau: 2, LRTd: 0.5, BatchSize: 512, Epochs: 2, RNG: tensor.NewRNG(31)})
	if err != nil {
		t.Fatal(err)
	}
	after := m.InferOne(in, RunConfig{CollectSpikeTimes: true}, InferOpts{})

	// Fig. 5 behaviour: GO shortens (or at worst barely moves) the first
	// spike time of hidden layers while not inflating the spike count.
	// On this small fixture the exact shift depends on the activation
	// distribution, so the assertion bounds the movement rather than
	// demanding strict improvement.
	firstBefore := minOf(before.SpikeTimes[1])
	firstAfter := minOf(after.SpikeTimes[1])
	if firstAfter > firstBefore+m.T/16 {
		t.Fatalf("GO delayed the first spike: %d -> %d", firstBefore, firstAfter)
	}
	if float64(after.TotalSpikes) > 1.05*float64(before.TotalSpikes) {
		t.Fatalf("GO inflated spikes: %d -> %d", before.TotalSpikes, after.TotalSpikes)
	}
}

func TestApplyGOPreservesAccuracy(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	n := 100
	acc := func() int {
		hit := 0
		for i := 0; i < n; i++ {
			in := fixture.x.Data[i*256 : (i+1)*256]
			if m.InferOne(in, RunConfig{}, InferOpts{}).Pred == fixture.labels[i] {
				hit++
			}
		}
		return hit
	}
	before := acc()
	if _, err := m.ApplyGO(fixture.inputs, fixture.res.Activations, kernel.OptimizeConfig{
		LRTau: 1, LRTd: 0.2, BatchSize: 512, Epochs: 1, RNG: tensor.NewRNG(32)}); err != nil {
		t.Fatal(err)
	}
	after := acc()
	if after < before-10 {
		t.Fatalf("GO collapsed accuracy: %d -> %d of %d", before, after, n)
	}
}

func TestTimelineAndPredAt(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	in := fixture.x.Data[:256]
	r := m.InferOne(in, RunConfig{CollectTimeline: true}, InferOpts{})
	if len(r.Timeline) == 0 {
		t.Fatal("no timeline recorded")
	}
	if r.PredAt(-1) != -1 {
		t.Fatal("PredAt before any information should be -1")
	}
	if got := r.PredAt(r.Latency); got != r.Pred {
		t.Fatalf("PredAt(latency) = %d, final pred = %d", got, r.Pred)
	}
	// timeline steps must be within the output window
	for _, tp := range r.Timeline {
		if tp.Step < 0 || tp.Step > r.Latency {
			t.Fatalf("timeline step %d outside [0,%d]", tp.Step, r.Latency)
		}
	}
}

func TestEvaluateAggregates(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	sub := fixture.x.Reshape(300, 256)
	x50 := tensor.FromSlice(sub.Data[:50*256], 50, 256)
	res, err := Evaluate(m, x50, fixture.labels[:50], EvalOptions{
		Run: RunConfig{}, CurveStride: 40, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 50 || res.Accuracy < 0.3 {
		t.Fatalf("Evaluate: N=%d acc=%.2f", res.N, res.Accuracy)
	}
	if res.AvgSpikes <= 0 || res.AvgSpikes > float64(m.Net.InLen+m.Net.NumNeurons()) {
		t.Fatalf("implausible spike count %v", res.AvgSpikes)
	}
	if len(res.Curve) == 0 {
		t.Fatal("no curve points")
	}
	// curve must end at final accuracy
	if last := res.Curve[len(res.Curve)-1]; last.Accuracy != res.Accuracy {
		t.Fatalf("curve end %.3f != accuracy %.3f", last.Accuracy, res.Accuracy)
	}
	// curve accuracy is (weakly) increasing overall: end >= start
	if res.Curve[0].Accuracy > res.Accuracy {
		t.Fatal("curve starts above final accuracy")
	}
	if len(res.StageStats) != 4 {
		t.Fatalf("stage stats = %d, want 4", len(res.StageStats))
	}
	if res.StageStats[0].Name != "Input" {
		t.Fatalf("boundary 0 name = %s", res.StageStats[0].Name)
	}
}

func TestEvaluateErrors(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	x := tensor.New(2, 256)
	if _, err := Evaluate(m, x, []int{0}, EvalOptions{}); err == nil {
		t.Fatal("label mismatch accepted")
	}
	bad := tensor.New(2, 100)
	if _, err := Evaluate(m, bad, []int{0, 1}, EvalOptions{}); err == nil {
		t.Fatal("wrong sample length accepted")
	}
}

func minOf(xs []int) int {
	if len(xs) == 0 {
		return 1 << 30
	}
	m := xs[0]
	for _, v := range xs {
		if v < m {
			m = v
		}
	}
	return m
}
