package coding

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

func ttfsScheme(t *testing.T) (TTFS, *testutil.Fixture) {
	t.Helper()
	fx := testutil.TrainedLeNet16()
	m, err := core.NewModel(fx.Conv.Net, 40, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	return TTFS{Model: m}, fx
}

func TestTTFSAdapterName(t *testing.T) {
	s, _ := ttfsScheme(t)
	if s.Name() != "T2FSNN" {
		t.Fatalf("name = %s", s.Name())
	}
	s.Label = "T2FSNN+EF"
	if s.Name() != "T2FSNN+EF" {
		t.Fatal("label override broken")
	}
}

func TestTTFSAdapterMatchesDirectInfer(t *testing.T) {
	s, fx := ttfsScheme(t)
	in := fx.X.Data[:256]
	direct := s.Model.InferOne(in, core.RunConfig{}, core.InferOpts{})
	via := s.Run(fx.Conv.Net, in, RunOpts{})
	if via.Pred != direct.Pred || via.TotalSpikes != direct.TotalSpikes {
		t.Fatalf("adapter diverges: pred %d/%d spikes %d/%d",
			via.Pred, direct.Pred, via.TotalSpikes, direct.TotalSpikes)
	}
}

func TestTTFSAdapterInEvaluateHarness(t *testing.T) {
	s, fx := ttfsScheme(t)
	x := tensor.FromSlice(fx.X.Data[:40*256], 40, 256)
	ev, err := Evaluate(s, fx.Conv.Net, x, fx.Labels[:40], 200, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy < 0.3 {
		t.Fatalf("TTFS via harness accuracy %.2f", ev.Accuracy)
	}
	// TTFS spends at most one spike per neuron; far fewer than rate
	rate, err := Evaluate(Rate{}, fx.Conv.Net, x, fx.Labels[:40], 200, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ev.AvgSpikes >= rate.AvgSpikes {
		t.Fatalf("TTFS spikes %.0f not below rate %.0f", ev.AvgSpikes, rate.AvgSpikes)
	}
}

func TestTTFSAdapterTimelineTruncation(t *testing.T) {
	s, fx := ttfsScheme(t)
	in := fx.X.Data[:256]
	full := s.Run(fx.Conv.Net, in, RunOpts{CollectTimeline: true})
	if len(full.Timeline) == 0 {
		t.Fatal("no timeline")
	}
	cut := s.Run(fx.Conv.Net, in, RunOpts{Steps: full.Timeline[0].Step, CollectTimeline: true})
	if len(cut.Timeline) >= len(full.Timeline) && len(full.Timeline) > 1 {
		t.Fatalf("truncation had no effect: %d vs %d", len(cut.Timeline), len(full.Timeline))
	}
}
