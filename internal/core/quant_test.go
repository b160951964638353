package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// quantParityMin is the pinned int8-vs-float argmax agreement over the
// trained fixture set (both pipeline modes). The make-check parity leg
// runs TestQuantEngineFixtureParity, so a change that degrades the
// fixed-point engine below this baseline fails CI.
const quantParityMin = 0.99

// referenceQuant is an independent naive re-implementation of the
// fixed-point semantics: int64 accumulators (so an int32 overflow in
// the engine shows up as a mismatch), rows re-derived from
// Stage.ScatterVisit with weights re-quantized inline (so an SoA
// build bug shows up too), no buckets, no scratch. ok=false reports the
// engine's documented fallback case (headroom infeasible at sf=0).
func referenceQuant(m *Model, input []float64, cfg RunConfig) (res Result, ok bool) {
	qstages := m.quantStages()
	adv := cfg.advance(m.T)
	nStages := len(m.Net.Stages)
	res = Result{Spikes: make([]int, nStages), Latency: (nStages-1)*adv + m.T}

	times := make([]int, m.Net.InLen)
	fired := 0
	for i, u := range input {
		t, f := m.K[0].Encode(u)
		if f {
			times[i] = t
			fired++
		} else {
			times[i] = -1
		}
	}
	if cfg.Faults != nil {
		fired = cfg.Faults.ApplyTTFS(0, times, m.T)
	}
	res.Spikes[0] = fired

	for si := range m.Net.Stages {
		st := &m.Net.Stages[si]
		qs := &qstages[si]
		dec := decodeTable(m.K[si], m.T)
		decMax := 0.0
		for _, d := range dec {
			if d > decMax {
				decMax = d
			}
		}
		thetaMax := 0.0
		if !st.Output {
			thetaMax = m.K[si+1].Threshold(0)
		}
		sf, shiftOK := stageShift(qs, decMax, thetaMax)
		if !shiftOK {
			return Result{}, false
		}
		unitInv := math.Exp2(float64(sf)) / qs.step

		acc := make([]int64, st.OutLen)
		for j := range acc {
			acc[j] = int64(clampQ(qs.bias[j] * unitInv))
		}
		deliver := func(off int) {
			s := int64(clampQ(dec[off] / qs.div * math.Exp2(float64(sf))))
			if s == 0 {
				return
			}
			for idx, tOff := range times {
				if tOff != off {
					continue
				}
				// A scale of div cancels the pool divisor, so the
				// visitor sees the raw weights (div/div·w = w exactly).
				_, div := st.RowKey(idx)
				st.ScatterVisit(idx, div, func(j int, w float64) {
					q := snn.FixedRound(w / qs.step)
					if q > float64(qs.maxQ) {
						q = float64(qs.maxQ)
					} else if q < -float64(qs.maxQ) {
						q = -float64(qs.maxQ)
					}
					acc[j] += s * int64(q)
				})
			}
		}

		if st.Output {
			for off := 0; off < m.T; off++ {
				deliver(off)
			}
			best, bi := acc[0], 0
			for j, v := range acc {
				if v > best {
					best, bi = v, j
				}
			}
			res.Pred = bi
			res.Potentials = make([]float64, st.OutLen)
			for j, v := range acc {
				res.Potentials[j] = float64(v) / unitInv
			}
			res.TotalSpikes = 0
			for _, s := range res.Spikes {
				res.TotalSpikes += s
			}
			return res, true
		}

		for off := 0; off < adv && off < m.T; off++ {
			deliver(off)
		}
		out := make([]int, st.OutLen)
		for j := range out {
			out[j] = -1
		}
		fired = 0
		for f := 0; f < m.T; f++ {
			if inOff := adv + f; inOff < m.T {
				deliver(inOff)
			}
			theta := m.K[si+1].Threshold(float64(f))
			if cfg.Faults != nil {
				theta = cfg.Faults.Threshold(si+1, f, theta)
			}
			thr := int64(clampQ(theta * unitInv))
			for j, v := range acc {
				if out[j] < 0 && v >= thr {
					out[j] = f
					fired++
				}
			}
		}
		if cfg.Faults != nil {
			fired = cfg.Faults.ApplyTTFS(si+1, out, m.T)
		}
		res.Spikes[si+1] = fired
		times = out
	}
	return res, true // unreachable
}

// quantConvNet is a small conv → pooled-dense net exercising every
// stage shape the fixed-point plans must handle.
func quantConvNet(r *tensor.RNG) *snn.Net {
	g := tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	w1 := tensor.New(2, 1, 3, 3)
	r.FillNormal(w1, 0, 0.5)
	b1 := tensor.New(2)
	r.FillNormal(b1, 0, 0.1)
	w2 := tensor.New(8, 3)
	r.FillNormal(w2, 0, 0.5)
	b2 := tensor.New(3)
	r.FillNormal(b2, 0, 0.1)
	return &snn.Net{
		Name: "qconv", InShape: []int{1, 4, 4}, InLen: 16,
		Stages: []snn.Stage{
			{Name: "c1", Kind: snn.ConvStage, Geom: g, OutC: 2, W: w1, B: b1, InLen: 16, OutLen: 32},
			{Name: "fc", Kind: snn.DenseStage, PrePool: &snn.PoolSpec{C: 2, InH: 4, InW: 4, K: 2},
				W: w2, B: b2, InLen: 32, OutLen: 3, Output: true},
		},
	}
}

// quantDenseNet is a random dense net with occasional large weights so
// per-stage formats vary.
func quantDenseNet(r *tensor.RNG) *snn.Net {
	in, hid, out := 3+r.Intn(4), 4+r.Intn(5), 2+r.Intn(3)
	w1 := tensor.New(in, hid)
	w2 := tensor.New(hid, out)
	for _, w := range []*tensor.Tensor{w1, w2} {
		for i := range w.Data {
			if r.Intn(5) == 0 {
				w.Data[i] = r.Range(-8, 8)
			} else {
				w.Data[i] = r.Range(-1, 1)
			}
		}
	}
	b1, b2 := tensor.New(hid), tensor.New(out)
	for i := range b1.Data {
		b1.Data[i] = r.Range(-0.3, 0.3)
	}
	for i := range b2.Data {
		b2.Data[i] = r.Range(-0.3, 0.3)
	}
	return &snn.Net{
		Name: "qdense", InShape: []int{in}, InLen: in,
		Stages: []snn.Stage{
			{Name: "h", Kind: snn.DenseStage, W: w1, B: b1, InLen: in, OutLen: hid},
			{Name: "out", Kind: snn.DenseStage, W: w2, B: b2, InLen: hid, OutLen: out, Output: true},
		},
	}
}

// Property (PR 8): the engine's int32 SoA pipeline is bit-exact with
// the naive int64 reference across random nets (dense and conv/pooled),
// kernels, pipeline modes, and injected fault streams — drop, jitter,
// stuck neurons, and threshold noise included.
func TestQuantEngineMatchesReference(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		var net *snn.Net
		if r.Intn(3) == 0 {
			net = quantConvNet(r)
		} else {
			net = quantDenseNet(r)
		}
		m, err := NewModel(net, 8+r.Intn(30), r.Range(1, 12), r.Range(0, 2))
		if err != nil {
			return true
		}
		in := make([]float64, net.InLen)
		for i := range in {
			in[i] = r.Float64()
		}
		cfg := RunConfig{}
		if r.Intn(2) == 0 {
			cfg = RunConfig{EarlyFire: true, EFStart: 1 + r.Intn(m.T)}
		}
		if r.Intn(2) == 0 {
			inj, err := fault.New(fault.Config{
				Seed:           seed,
				Drop:           r.Range(0, 0.3),
				Jitter:         r.Intn(3),
				StuckSilent:    r.Range(0, 0.1),
				StuckFire:      r.Range(0, 0.05),
				ThresholdNoise: r.Range(0, 0.1),
			})
			if err != nil {
				return true
			}
			cfg.Faults = inj.Sample(r.Intn(50))
		}
		want, ok := referenceQuant(m, in, cfg)
		got := m.InferOne(in, cfg, InferOpts{Engine: EngineQuant})
		if !ok {
			// Engine documented fallback: must equal the clocked engine.
			clocked := m.InferOne(in, cfg, InferOpts{})
			return got.Pred == clocked.Pred && got.TotalSpikes == clocked.TotalSpikes
		}
		if got.Pred != want.Pred || got.Latency != want.Latency || got.TotalSpikes != want.TotalSpikes {
			return false
		}
		for i := range want.Spikes {
			if got.Spikes[i] != want.Spikes[i] {
				return false
			}
		}
		for j := range want.Potentials {
			if got.Potentials[j] != want.Potentials[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property (PR 8): quant vs float argmax agreement. A one-LSB
// difference near a threshold crossing can legitimately move a spike
// time, so exact agreement is only asserted when it is provable: every
// fire boundary produced identical spikes on both engines AND the float
// margin between the top two outputs exceeds the worst-case output-
// stage quantization error. Everything else is vacuously true — the
// real-world agreement rate is pinned by TestQuantEngineFixtureParity.
func TestQuantEngineVsClockedArgmax(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		net := quantDenseNet(r)
		m, err := NewModel(net, 8+r.Intn(30), r.Range(1, 12), r.Range(0, 2))
		if err != nil {
			return true
		}
		in := make([]float64, net.InLen)
		for i := range in {
			in[i] = r.Float64()
		}
		cfg := RunConfig{CollectEvents: true}
		if r.Intn(2) == 0 {
			cfg.EarlyFire, cfg.EFStart = true, 1+r.Intn(m.T)
		}
		fl := m.InferOne(in, cfg, InferOpts{})
		flPots := append([]float64(nil), fl.Potentials...)
		qt := m.InferOne(in, cfg, InferOpts{Engine: EngineQuant})
		for b := range fl.Events {
			if len(fl.Events[b]) != len(qt.Events[b]) {
				return true // spike trains diverged: agreement not provable
			}
			for i := range fl.Events[b] {
				if fl.Events[b][i] != qt.Events[b][i] {
					return true
				}
			}
		}
		// Identical spike trains: the engines differ only by output-stage
		// LUT/bias rounding. Bound that error and demand agreement when
		// the float margin clears twice the bound.
		osi := len(net.Stages) - 1
		qs := &m.quantStages()[osi]
		dec := decodeTable(m.K[osi], m.T)
		decMax := 0.0
		for _, d := range dec {
			if d > decMax {
				decMax = d
			}
		}
		sf, ok := stageShift(qs, decMax, 0)
		if !ok {
			return true
		}
		unit := qs.step / math.Exp2(float64(sf))
		bound := 0.5*unit +
			float64(qs.plan.MaxInDegree)*(decMax/qs.div*0.5*qs.step+float64(qs.maxQ)*0.5*unit)
		best, second := math.Inf(-1), math.Inf(-1)
		for _, v := range flPots {
			if v > best {
				best, second = v, best
			} else if v > second {
				second = v
			}
		}
		if best-second <= 2*bound {
			return true // decision genuinely within quantization noise
		}
		return qt.Pred == fl.Pred
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuantEngineFixtureParity pins the serving claim on the trained
// fixture: int8 argmax agreement with the float clocked engine stays at
// or above quantParityMin in both pipeline modes. This is the make
// check parity leg.
func TestQuantEngineFixtureParity(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	sc := NewInferScratch(m)
	n := fixture.x.Shape[0]
	for _, cfg := range []RunConfig{{}, {EarlyFire: true}} {
		agree := 0
		for i := 0; i < n; i++ {
			in := fixture.x.Data[i*256 : (i+1)*256]
			clocked := m.InferOne(in, cfg, InferOpts{})
			q := m.InferOne(in, cfg, InferOpts{Scratch: sc, Engine: EngineQuant})
			if q.Pred == clocked.Pred {
				agree++
			}
		}
		rate := float64(agree) / float64(n)
		t.Logf("ef=%v: quant/clocked argmax agreement %d/%d (%.4f)", cfg.EarlyFire, agree, n, rate)
		if rate < quantParityMin {
			t.Fatalf("ef=%v: agreement %.4f below pinned baseline %v", cfg.EarlyFire, rate, quantParityMin)
		}
	}
}

// TestQuantEngineZeroAllocs gates the scratch-arena claim: the warm
// fixed-point path allocates nothing per call.
func TestQuantEngineZeroAllocs(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	sc := NewInferScratch(m)
	in := fixture.x.Data[:256]
	for _, cfg := range []RunConfig{{}, {EarlyFire: true}} {
		cfg := cfg
		opts := InferOpts{Scratch: sc, Engine: EngineQuant}
		m.InferOne(in, cfg, opts) // warm plans + arenas
		if n := testing.AllocsPerRun(20, func() { m.InferOne(in, cfg, opts) }); n != 0 {
			t.Errorf("quant engine (earlyFire=%v) allocates %.1f/op, want 0", cfg.EarlyFire, n)
		}
	}
}

// TestInferManyQuantMatchesInferOne pins the quant engine's batch
// loop: one scratch across the batch, each sample's result equal to its
// fresh InferOne — including per-sample fault streams.
func TestInferManyQuantMatchesInferOne(t *testing.T) {
	inputs := fixtureBatch(t, 12)
	m := fixture.model()
	inj, err := fault.New(fault.Config{Seed: 3, Drop: 0.1, Jitter: 1, ThresholdNoise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]*fault.Stream, len(inputs))
	for i := 0; i < len(inputs); i += 2 {
		streams[i] = inj.Sample(i)
	}
	checkLoop(t, "quant", m, NewInferScratch(m), inputs, RunConfig{EarlyFire: true}, streams, EngineQuant)
}

// A model whose integer headroom cannot fit int32 even at shift 0 must
// fall back to the float clocked engine, bit for bit.
func TestQuantEngineOverflowFallback(t *testing.T) {
	net := tinyNet()
	net.Stages[0].B.Data[0] = 3e8 // bias alone exceeds accCap at sf=0
	m, err := NewModel(net, 20, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{0.8, 0.5, 0.3}
	want := m.InferOne(in, RunConfig{}, InferOpts{})
	wantPots := append([]float64(nil), want.Potentials...)
	got := m.InferOne(in, RunConfig{}, InferOpts{Engine: EngineQuant})
	if got.Pred != want.Pred || got.Latency != want.Latency || got.TotalSpikes != want.TotalSpikes {
		t.Fatalf("fallback diverged: %+v != %+v", got, want)
	}
	for j := range wantPots {
		if got.Potentials[j] != wantPots[j] {
			t.Fatalf("fallback potential %d: %v != %v", j, got.Potentials[j], wantPots[j])
		}
	}
}

// The quant timeline must follow the same dedup contract as the float
// engines: entries only on argmax changes, closed at the final latency.
func TestQuantEngineTimeline(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	in := fixture.x.Data[:256]
	res := m.InferOne(in, RunConfig{CollectTimeline: true}, InferOpts{Engine: EngineQuant})
	if len(res.Timeline) == 0 {
		t.Fatal("no timeline collected")
	}
	for i := 1; i < len(res.Timeline); i++ {
		if res.Timeline[i].Pred == res.Timeline[i-1].Pred {
			t.Fatalf("timeline entries %d and %d share a prediction", i-1, i)
		}
		if res.Timeline[i].Step <= res.Timeline[i-1].Step {
			t.Fatalf("timeline steps not increasing at %d", i)
		}
	}
	if got := snn.PredAt(res.Timeline, res.Latency); got != res.Pred {
		t.Fatalf("PredAt(latency) = %d, want %d", got, res.Pred)
	}
}

// BenchmarkInferQuant is the PR's headline number: batch-1 latency of
// the int8 SoA engine against the float64 clocked engine on warm
// scratches. Argmax agreement at the pinned fixture baseline is
// asserted before timing, so the speedup cannot come from wrong
// answers.
func BenchmarkInferQuant(b *testing.B) {
	loadFixture(b)
	m := fixture.model()
	sc := NewInferScratch(m)
	n := fixture.x.Shape[0]
	for _, cfg := range []RunConfig{{}, {EarlyFire: true}} {
		agree := 0
		for i := 0; i < n; i++ {
			in := fixture.x.Data[i*256 : (i+1)*256]
			clocked := m.InferOne(in, cfg, InferOpts{Scratch: sc})
			q := m.InferOne(in, cfg, InferOpts{Scratch: sc, Engine: EngineQuant})
			if q.Pred == clocked.Pred {
				agree++
			}
		}
		if rate := float64(agree) / float64(n); rate < quantParityMin {
			b.Fatalf("ef=%v: agreement %.4f below pinned baseline %v", cfg.EarlyFire, rate, quantParityMin)
		}
	}
	in := fixture.x.Data[:256]
	run := func(name string, cfg RunConfig, opts InferOpts) {
		opts.Scratch = sc
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.InferOne(in, cfg, opts)
			}
		})
	}
	run("quant", RunConfig{}, InferOpts{Engine: EngineQuant})
	run("clocked", RunConfig{}, InferOpts{})
	run("quant-ef", RunConfig{EarlyFire: true}, InferOpts{Engine: EngineQuant})
	run("clocked-ef", RunConfig{EarlyFire: true}, InferOpts{})
}
