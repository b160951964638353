package core

import (
	"sync"
	"testing"

	"repro/internal/convert"
	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/tensor"
)

// served holds a model with the geometry snnserve and the end-to-end
// benchmark serve by default (-dataset mnist -scale tiny): 1×28×28
// input, conv 8, pool 2, conv 16, pool 2, fc 32, fc 10, T = 20, early
// firing at T/2. It is trained here from the synthetic MNIST-like set
// with the tiny scale's sizes, not loaded from a weight cache.
var served struct {
	once   sync.Once
	model  *Model
	inputs [][]float64
}

func loadServed(tb testing.TB) {
	tb.Helper()
	served.once.Do(func() {
		train, test := dataset.MNISTLike(dataset.Config{Train: 300, Test: 60, Seed: 1})
		net := dnn.BuildLeNet(dnn.ArchConfig{InC: 1, InH: 28, InW: 28, Classes: 10, FCWidth: 32,
			BatchNorm: true, Pool: dnn.AvgPool}, tensor.NewRNG(101))
		dnn.Train(net, train.X, train.Labels, dnn.TrainConfig{
			Epochs: 2, BatchSize: 32, Optimizer: dnn.NewAdam(2e-3, 1e-5), RNG: tensor.NewRNG(201)})
		res, err := convert.Convert(net, convert.Options{Calibration: train.X, Percentile: 99.9})
		if err != nil {
			panic(err)
		}
		if served.model, err = NewModel(res.Net, 20, 20.0/4, 0); err != nil { // τ = T/4, t_d = 0
			panic(err)
		}
		for i := 0; i < 32; i++ {
			served.inputs = append(served.inputs, test.X.Data[i*784:(i+1)*784])
		}
	})
}

// BenchmarkInferServed times one InferOne per sample over 32 test
// inputs on the served geometry, for each engine a served workload
// runs: clocked (oneshot-clock-json), event with early exit
// (stream-event-gw) and quant (oneshot-quant-gw), all with early firing
// at T/2 on one warm scratch. clocked-efoff is clocked with early
// firing off, so one run shows what early firing costs on a CPU. The
// fixture nets of the other benchmarks are 16×16 at T = 80; this is the
// shape a request actually pays for.
func BenchmarkInferServed(b *testing.B) {
	loadServed(b)
	m := served.model
	ef := RunConfig{EarlyFire: true, EFStart: m.T / 2}
	exit := ef
	exit.EarlyExit = true
	for _, c := range []struct {
		name   string
		cfg    RunConfig
		engine EngineKind
	}{
		{"clocked", ef, EngineClocked},
		{"clocked-efoff", RunConfig{}, EngineClocked},
		{"event-earlyexit", exit, EngineEvent},
		{"quant", ef, EngineQuant},
	} {
		b.Run(c.name, func(b *testing.B) {
			sc := NewInferScratch(m)
			loop := func() {
				for _, in := range served.inputs {
					m.InferOne(in, c.cfg, InferOpts{Scratch: sc, Engine: c.engine})
				}
			}
			loop()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loop()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(served.inputs)), "ns/sample")
		})
	}
}
