package main

import (
	"slices"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		// rank ⌈p·n⌉, 1-based, as serve's Snapshot and snnload compute it
		{100, 0.50, 50},
		{100, 0.99, 99},
		{1000, 0.99, 990},
		{10, 0.99, 10},
		{10, 0.50, 5},
		{3, 0.50, 2},
		{1, 0.99, 1},
		{7, 0, 1},
		{7, 1, 7},
	}
	for _, c := range cases {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	p50, p99 := quantiles([]float64{5, 1, 4, 2, 3})
	if p50 != 3 || p99 != 5 {
		t.Errorf("quantiles of unsorted input = %v, %v; want 3, 5", p50, p99)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	cases := []struct {
		name string
		kids []interval
		want int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{10, 40}}, 70},
		// Two hedged attempts in flight at once: their overlap counts once.
		{"overlapping hedges", []interval{{10, 40}, {30, 60}}, 50},
		{"nested children", []interval{{10, 60}, {20, 30}}, 50},
		// A canceled loser outliving its parent counts only inside it.
		{"child past the parent's end", []interval{{90, 130}}, 90},
		{"child before the parent", []interval{{-20, -5}}, 100},
		{"touching children", []interval{{0, 50}, {50, 100}}, 0},
		{"unsorted mix", []interval{{70, 80}, {10, 20}, {15, 30}, {75, 95}}, 55},
	}
	for _, c := range cases {
		if got := selfTime(0, 100, c.kids); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSeedGivesSameScheduleAndInputs(t *testing.T) {
	a := poissonSchedule(phaseRNG(7, "light/1"), 500, 100, 512)
	b := poissonSchedule(phaseRNG(7, "light/1"), 500, 100, 512)
	if !slices.Equal(a.due, b.due) || !slices.Equal(a.pick, b.pick) {
		t.Fatal("same seed and phase gave different schedules")
	}
	c := poissonSchedule(phaseRNG(8, "light/1"), 500, 100, 512)
	if slices.Equal(a.due, c.due) {
		t.Fatal("different seeds gave the same arrival times")
	}
	d := poissonSchedule(phaseRNG(7, "heavy/1"), 500, 100, 512)
	if slices.Equal(a.due, d.due) {
		t.Fatal("different phases gave the same arrival times")
	}
	if last, want := a.due[len(a.due)-1], 5*time.Second; last < want-time.Microsecond || last > want+time.Microsecond {
		t.Fatalf("last arrival at %v, want n/rate = %v", last, want)
	}
	if !slices.IsSorted(a.due) {
		t.Fatal("arrival times not increasing")
	}

	for _, walk := range []bool{false, true} {
		x := makeInputs(3, 2, walk, !walk)
		y := makeInputs(3, 2, walk, !walk)
		if len(x.x) != len(y.x) || !slices.Equal(x.labels, y.labels) {
			t.Fatalf("walk=%v: same seed gave different input sets", walk)
		}
		for i := range x.x {
			if !slices.Equal(x.x[i], y.x[i]) {
				t.Fatalf("walk=%v: input %d differs between runs", walk, i)
			}
		}
		if z := makeInputs(4, 2, walk, !walk); slices.Equal(x.x[1], z.x[1]) {
			t.Fatalf("walk=%v: different seeds gave the same input", walk)
		}
	}
}

func TestOpenLoopCountsBusyConnectionWait(t *testing.T) {
	const service = 20 * time.Millisecond
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	res := runOpen(due, 1, func(_, _ int) error {
		time.Sleep(service)
		return nil
	})
	if res.attempted != 3 || res.failed != 0 || len(res.lat) != 3 {
		t.Fatalf("attempted %d failed %d samples %d, want 3 0 3", res.attempted, res.failed, len(res.lat))
	}
	// One connection: request i waits for the i before it, and that wait
	// is part of its latency, measured from when it was due.
	for i, lat := range res.lat {
		floor := ms(time.Duration(i+1)*service - due[i])
		if lat < floor || lat > floor+15 {
			t.Errorf("request %d: latency %.2f ms, want ≈ %.2f ms from its due time", i, lat, floor)
		}
	}
	if r := res.rateRatio(); r <= 0 || r > 1 {
		t.Errorf("rate ratio %v outside (0, 1]", r)
	}
}

func TestLoadGeneratorValidity(t *testing.T) {
	// 100 requests: latency p50 2 ms and p99 10 ms; the generator was
	// late by lateP50 ms on most and by lateP99 ms on the slowest few.
	phaseWith := func(lateP50, lateP99 float64, released time.Duration) phaseResult {
		p := phaseResult{nominal: time.Second, released: released}
		for i := 0; i < 100; i++ {
			lat, lag := 2.0, lateP50
			if i >= 98 {
				lat, lag = 10, lateP99
			}
			p.lat = append(p.lat, lat)
			p.lags = append(p.lags, lag)
		}
		return p
	}
	if err := phaseWith(0.1, 5, time.Second).valid(); err != nil {
		t.Errorf("lag at 5%% of the latency p50 and half the p99: %v, want valid", err)
	}
	if err := phaseWith(0.4, 1, time.Second).valid(); err == nil {
		t.Error("lag p50 at 20% of the latency p50 passed, want invalid")
	}
	if err := phaseWith(0.1, 7, time.Second).valid(); err == nil {
		t.Error("lag p99 at 70% of the latency p99 passed, want invalid")
	}
	if err := phaseWith(0.1, 1, 1100*time.Millisecond).valid(); err == nil {
		t.Error("release rate at 91% of nominal passed, want invalid")
	}
}

func TestFrameSpansFollowEvents(t *testing.T) {
	fl := &frameLog{layer: "serve", session: 1, start: 0,
		// frame 1 arrives in two reads, frame 2 in one
		reads:  []int64{5, 7, 30, 60},
		events: []int64{20, 40, 70}}
	got := fl.frameSpans([]int64{11, 12, 13})
	want := []span{
		{name: "serve", id: 11, start: 5, end: 20},
		{name: "serve", id: 12, start: 30, end: 40},
		{name: "serve", id: 13, start: 60, end: 70},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d spans, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].name != want[i].name || got[i].id != want[i].id || got[i].start != want[i].start || got[i].end != want[i].end {
			t.Errorf("span %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestWrapEngineKeepsCapabilities(t *testing.T) {
	tr := newTracer()
	for _, e := range []serve.Engine{&serve.TTFSEngine{}, &serve.EventEngine{}, &serve.QuantEngine{}, &serve.SchemeEngine{}} {
		w, err := wrapEngine(e, tr)
		if err != nil {
			t.Fatalf("%T: %v", e, err)
		}
		if got, want := capsOf(w), capsOf(e); got != want {
			t.Errorf("%T: wrapper capabilities %+v, engine has %+v", e, got, want)
		}
	}
}
