package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stream"
)

// workload is one traffic mix against one serving stack.
type workload struct {
	name string
	// engine is the core engine the backends serve on; the reference
	// predictions are computed on it.
	engine core.EngineKind
	// backends is the number of registries; gateway puts a
	// gateway.Gateway in front of them.
	backends int
	gateway  bool
	// binary sends one-shot requests as application/x-t2f frames (f32
	// lane) instead of JSON; stream runs NDJSON /v1/stream sessions
	// instead of one-shot requests.
	binary bool
	stream bool
	// mode is serve.Options.DefaultMode ("" = automatic routing).
	mode string
	// lightRate and heavyRate are the open-loop arrival rates in req/s
	// (frames/s for streams), fixed at roughly 20–30% and 30–45% of the
	// peak rate measured on a 2-CPU host at the parent commit; README.md
	// says why heavy is not nearer saturation.
	lightRate, heavyRate float64
}

var workloads = []*workload{
	{name: "oneshot-clock-json", engine: core.EngineClocked, backends: 1,
		lightRate: 100, heavyRate: 160},
	{name: "oneshot-quant-gw", engine: core.EngineQuant, backends: 2, gateway: true, binary: true,
		mode: "latency", lightRate: 250, heavyRate: 360},
	{name: "stream-event-gw", engine: core.EngineEvent, backends: 1, gateway: true, stream: true,
		lightRate: 140, heavyRate: 220},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

const (
	// distinctInputs is how many dataset samples a one-shot workload
	// draws from: more than snnload's 64, so early exit and the spike
	// counts see varied inputs.
	distinctInputs = 512
	// framesPerSession is the length of each stream session's seeded
	// random walk; sessions cycle through it.
	framesPerSession = 256
	// minPhaseSamples is the least number of completed requests (or
	// frames) a measured phase must collect, so p99 has at least ten
	// samples beyond it.
	minPhaseSamples = 1000
	// Walk parameters, snnload's defaults.
	walkStep, walkJump = 0.02, 0.05
)

// accuracySeed draws the fixed evaluation inputs accuracy is measured
// on: the same in every run, so accuracy compares across seeds, and not
// the seed experiments.Prepare trains the model on.
const accuracySeed = 1000

// inputSet is a workload's distinct inputs with their labels. Inputs
// [0, traffic) are drawn from the run's seed and carry the measured
// traffic; inputs [traffic, len(x)) are the fixed evaluation set, served
// once during warm-up. For stream workloads each half is the
// concatenation of every session's walk: session s owns frames
// [s*framesPerSession, (s+1)*framesPerSession) of it.
type inputSet struct {
	x       [][]float64
	labels  []int
	traffic int
}

// makeInputs draws the workload's distinct inputs. f32 rounds every
// value to float32 first, as the binary wire's f32 lane will: the
// reference predictions must see the exact values the server decodes.
func makeInputs(seed uint64, sessions int, streamWalk, f32 bool) inputSet {
	set := drawInputs(seed, sessions, streamWalk)
	fixed := drawInputs(accuracySeed, sessions, streamWalk)
	set.traffic = len(set.x)
	set.x = append(set.x, fixed.x...)
	set.labels = append(set.labels, fixed.labels...)
	if f32 {
		for i, in := range set.x {
			r := make([]float64, len(in))
			for j, v := range in {
				r[j] = float64(float32(v))
			}
			set.x[i] = r
		}
	}
	return set
}

func drawInputs(seed uint64, sessions int, streamWalk bool) inputSet {
	train, _ := dataset.MNISTLike(dataset.Config{Train: distinctInputs, Test: 1, Seed: seed})
	sampleLen := len(train.X.Data) / len(train.Labels)
	bases := make([][]float64, len(train.Labels))
	for i := range bases {
		bases[i] = train.X.Data[i*sampleLen : (i+1)*sampleLen]
	}
	if !streamWalk {
		return inputSet{x: bases, labels: train.Labels}
	}
	var set inputSet
	for s := 0; s < sessions; s++ {
		wk := stream.NewWalk(bases, seed*1000003+uint64(s), walkStep, walkJump)
		for i := 0; i < framesPerSession; i++ {
			in, base := wk.Next()
			set.x = append(set.x, in)
			set.labels = append(set.labels, train.Labels[base])
		}
	}
	return set
}

// schedule is one open-loop phase: request i is due at due[i] after the
// phase starts and carries input pick[i].
type schedule struct {
	due  []time.Duration
	pick []int
}

// phaseRNG derives an independent generator for one phase of one seed.
func phaseRNG(seed uint64, phase string) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(phase); i++ {
		h = (h ^ uint64(phase[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// poissonSchedule draws n Poisson arrivals at rate per second, scaled so
// the last arrival lands exactly at n/rate: the realized mean rate then
// equals the nominal one and loadgen.rate_ratio measures only the
// generator's own lateness. Inputs are drawn uniformly from nInputs.
func poissonSchedule(rng *rand.Rand, n int, rate float64, nInputs int) schedule {
	s := schedule{due: make([]time.Duration, n), pick: make([]int, n)}
	gaps := make([]float64, n)
	sum := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		sum += gaps[i]
		s.pick[i] = rng.IntN(nInputs)
	}
	scale := float64(n) / rate / sum
	t := 0.0
	for i, g := range gaps {
		t += g * scale
		s.due[i] = time.Duration(t * float64(time.Second))
	}
	return s
}

// frameClock is one stream session's open-loop schedule: a fixed frame
// period, the way a sensor sends, with a seeded phase offset so sessions
// do not send in unison.
func frameClock(rng *rand.Rand, n int, period time.Duration) []time.Duration {
	offset := time.Duration(rng.Float64() * float64(period))
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = offset + time.Duration(i)*period
	}
	return due
}

// picks draws n input indices for a closed-loop phase.
func picks(rng *rand.Rand, n, nInputs int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = rng.IntN(nInputs)
	}
	return p
}
