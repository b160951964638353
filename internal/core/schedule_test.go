package core

import (
	"strings"
	"testing"
)

func TestScheduleBaselineFig3a(t *testing.T) {
	m, _ := NewModel(tinyNet(), 20, 5, 0)
	s := m.BuildSchedule(RunConfig{})
	if s.Advance != 20 || s.Overlap() != 0 {
		t.Fatalf("baseline schedule: advance=%d overlap=%d", s.Advance, s.Overlap())
	}
	// layer 1 integrates [0,20), fires [20,40); layer 2 integrates [20,40)
	if s.Integration[0] != (PhaseWindow{Layer: 1, Start: 0, End: 20}) {
		t.Fatalf("L1 integration = %+v", s.Integration[0])
	}
	if s.Fire[0] != (PhaseWindow{Layer: 1, Start: 20, End: 40}) {
		t.Fatalf("L1 fire = %+v", s.Fire[0])
	}
	if s.Integration[1].Start != 20 {
		t.Fatalf("L2 integration start = %d", s.Integration[1].Start)
	}
	// fire phase of layer k aligns with integration of layer k+1 (Fig. 3-a)
	if s.Fire[0].Start != s.Integration[1].Start {
		t.Fatal("fire/integration pipeline misaligned")
	}
	if s.Latency != 40 {
		t.Fatalf("latency = %d", s.Latency)
	}
}

func TestScheduleEarlyFiringFig3b(t *testing.T) {
	m, _ := NewModel(tinyNet(), 20, 5, 0)
	s := m.BuildSchedule(RunConfig{EarlyFire: true})
	if s.Advance != 10 {
		t.Fatalf("EF advance = %d, want T/2", s.Advance)
	}
	// EF overlap: the fire phase intrudes T−advance steps into the
	// layer's own integration (non-guaranteed integration)
	if s.Overlap() != 10 {
		t.Fatalf("overlap = %d, want 10", s.Overlap())
	}
	if s.Latency != 30 {
		t.Fatalf("EF latency = %d, want 30", s.Latency)
	}
	// fire window must start inside the integration window
	if s.Fire[0].Start >= s.Integration[0].End {
		t.Fatal("EF fire phase does not overlap integration")
	}
}

// The schedule's latency must match the simulator's reported latency for
// any configuration — the figure and the engine share one timing model.
func TestScheduleMatchesInferLatency(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	in := fixture.x.Data[:256]
	for _, cfg := range []RunConfig{
		{}, {EarlyFire: true}, {EarlyFire: true, EFStart: 13}, {EarlyFire: true, EFStart: m.T},
	} {
		s := m.BuildSchedule(cfg)
		r := m.InferOne(in, cfg, InferOpts{})
		if s.Latency != r.Latency {
			t.Fatalf("cfg %+v: schedule latency %d != inference %d", cfg, s.Latency, r.Latency)
		}
	}
}

func TestScheduleRender(t *testing.T) {
	m, _ := NewModel(tinyNet(), 20, 5, 0)
	base := m.BuildSchedule(RunConfig{}).Render(1)
	if !strings.Contains(base, "L1") || !strings.Contains(base, "i") || !strings.Contains(base, "f") {
		t.Fatalf("render missing elements:\n%s", base)
	}
	// baseline has no overlapped cells; early firing must show some
	if strings.Contains(base, "x") {
		t.Fatalf("baseline render shows overlap:\n%s", base)
	}
	ef := m.BuildSchedule(RunConfig{EarlyFire: true}).Render(1)
	if !strings.Contains(ef, "x") {
		t.Fatalf("EF render shows no overlap:\n%s", ef)
	}
}
